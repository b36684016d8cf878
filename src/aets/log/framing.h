#ifndef AETS_LOG_FRAMING_H_
#define AETS_LOG_FRAMING_H_

#include <string_view>

#include "aets/common/status.h"
#include "aets/log/codec.h"

namespace aets {

/// How much of each record WalkEpochPayload decodes — the parsing-cost
/// asymmetry of the paper's Section VI-B: AETS and ATR route on metadata and
/// decode values later in parallel, C5's dispatcher pays the full decode.
enum class RecordDecode {
  kMetadata,  // LogCodec::DecodeMetadata: fixed prefix, no record checksum
  kFull,      // LogCodec::DecodeView: checksum plus validated values
};

/// The transaction a record belongs to.
struct TxnFrame {
  TxnId txn_id = kInvalidTxnId;
  /// The BEGIN record's timestamp, which the primary stamps with the commit
  /// timestamp.
  Timestamp commit_ts = kInvalidTimestamp;
  /// Ordinal of the transaction within the payload.
  size_t index = 0;
};

/// The one framing rule over an epoch payload: every record sits inside a
/// BEGIN ... COMMIT pair, pairs do not nest, the last one is closed, and
/// heartbeats never appear as records (they travel as heartbeat epochs).
/// Calls `visit(rec, txn, begin, end)` for every record in order, BEGIN and
/// COMMIT included, where [begin, end) is the record's frame in `payload`.
/// Returns the first decode or framing Corruption, or the first non-OK
/// status `visit` returns. Framing errors can surface after some records
/// were visited, so callers must not act on what they collected unless the
/// walk returns OK.
template <RecordDecode kDecode, typename Visit>
Status WalkEpochPayload(std::string_view payload, Visit&& visit) {
  TxnFrame txn;
  bool in_txn = false;
  size_t num_txns = 0;
  size_t offset = 0;
  while (offset < payload.size()) {
    const size_t begin = offset;
    Result<LogRecordView> rec = kDecode == RecordDecode::kFull
                                    ? LogCodec::DecodeView(payload, &offset)
                                    : LogCodec::DecodeMetadata(payload, &offset);
    if (!rec.ok()) return rec.status();
    switch (rec->type) {
      case LogRecordType::kBegin:
        if (in_txn) return Status::Corruption("nested BEGIN");
        in_txn = true;
        txn = TxnFrame{rec->txn_id, rec->timestamp, num_txns++};
        break;
      case LogRecordType::kCommit:
        if (!in_txn) return Status::Corruption("COMMIT without BEGIN");
        in_txn = false;
        break;
      case LogRecordType::kHeartbeat:
        return Status::Corruption("heartbeat record inside a data epoch");
      default:
        if (!in_txn) return Status::Corruption("DML outside transaction");
        break;
    }
    Status s = visit(*rec, txn, begin, offset);
    if (!s.ok()) return s;
  }
  if (in_txn) return Status::Corruption("unterminated transaction");
  return Status::OK();
}

}  // namespace aets

#endif  // AETS_LOG_FRAMING_H_
