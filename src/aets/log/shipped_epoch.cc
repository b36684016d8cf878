#include "aets/log/shipped_epoch.h"

#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/log/framing.h"

namespace aets {

ShippedEpoch EncodeEpoch(const Epoch& epoch) {
  ShippedEpoch out;
  out.epoch_id = epoch.epoch_id;
  out.num_txns = epoch.num_txns();
  out.num_records = epoch.num_records();
  out.first_txn = epoch.first_txn();
  out.last_txn = epoch.last_txn();
  out.max_commit_ts = epoch.max_commit_ts();
  auto payload = std::make_shared<std::string>();
  payload->reserve(epoch.ByteSize() + 8 * epoch.num_records());  // + frames
  for (const auto& txn : epoch.txns) {
    for (const auto& rec : txn.records) LogCodec::Encode(rec, payload.get());
  }
  out.payload_crc = Crc32c(payload->data(), payload->size());
  out.payload = std::move(payload);
  return out;
}

ShippedEpoch MakeHeartbeatEpoch(EpochId id, Timestamp ts) {
  AETS_CHECK(ts != kInvalidTimestamp);
  ShippedEpoch out;
  out.epoch_id = id;
  out.payload = std::make_shared<std::string>();
  out.payload_crc = Crc32c(nullptr, 0);
  out.heartbeat_ts = ts;
  out.max_commit_ts = ts;
  return out;
}

bool ShippedEpoch::PayloadIntact() const {
  const char* data = payload ? payload->data() : nullptr;
  size_t n = payload ? payload->size() : 0;
  return Crc32c(data, n) == payload_crc;
}

Result<Epoch> DecodeEpoch(const ShippedEpoch& shipped) {
  Epoch epoch;
  epoch.epoch_id = shipped.epoch_id;
  if (shipped.is_heartbeat()) return epoch;
  AETS_CHECK(shipped.payload != nullptr);
  Status s = WalkEpochPayload<RecordDecode::kFull>(
      *shipped.payload,
      [&epoch](const LogRecordView& rec, const TxnFrame& txn, size_t, size_t) {
        if (rec.type == LogRecordType::kBegin) {
          epoch.txns.emplace_back();
          epoch.txns.back().txn_id = txn.txn_id;
        }
        TxnLog& log = epoch.txns.back();
        if (rec.type == LogRecordType::kCommit) log.commit_ts = rec.timestamp;
        log.records.push_back(rec.Materialize());
        return Status::OK();
      });
  if (!s.ok()) return s;
  return epoch;
}

}  // namespace aets
