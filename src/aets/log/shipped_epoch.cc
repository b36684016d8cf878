#include "aets/log/shipped_epoch.h"

#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/log/framing.h"

namespace aets {

namespace {

void PutLe(uint64_t v, int bytes, std::string* out) {
  for (int i = 0; i < bytes; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t GetLe(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

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

void EncodeEpochBody(const ShippedEpoch& epoch, std::string* out) {
  const size_t payload_len = epoch.ByteSize();
  out->reserve(out->size() + kEpochBodyFixedBytes + payload_len);
  for (uint64_t v : {uint64_t{epoch.epoch_id}, uint64_t{epoch.heartbeat_ts},
                     uint64_t{epoch.max_commit_ts}, uint64_t{epoch.num_txns},
                     uint64_t{epoch.num_records}, uint64_t{epoch.first_txn},
                     uint64_t{epoch.last_txn}}) {
    PutLe(v, 8, out);
  }
  PutLe(epoch.payload_crc, 4, out);
  PutLe(payload_len, 4, out);
  if (payload_len > 0) out->append(*epoch.payload);
}

Result<ShippedEpoch> DecodeEpochBody(std::string_view body) {
  if (body.size() < kEpochBodyFixedBytes ||
      GetLe(body.data() + kEpochBodyFixedBytes - 4, 4) !=
          body.size() - kEpochBodyFixedBytes) {
    return Status::Corruption("malformed epoch frame body");
  }
  const char* p = body.data();
  ShippedEpoch epoch;
  epoch.epoch_id = GetLe(p, 8);
  epoch.heartbeat_ts = GetLe(p + 8, 8);
  epoch.max_commit_ts = GetLe(p + 16, 8);
  epoch.num_txns = GetLe(p + 24, 8);
  epoch.num_records = GetLe(p + 32, 8);
  epoch.first_txn = GetLe(p + 40, 8);
  epoch.last_txn = GetLe(p + 48, 8);
  epoch.payload_crc = static_cast<uint32_t>(GetLe(p + 56, 4));
  epoch.payload = std::make_shared<const std::string>(
      body.substr(kEpochBodyFixedBytes));
  return epoch;
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
