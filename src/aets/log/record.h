#ifndef AETS_LOG_RECORD_H_
#define AETS_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "aets/catalog/schema.h"
#include "aets/common/clock.h"
#include "aets/storage/value.h"

namespace aets {

using Lsn = uint64_t;
using TxnId = uint64_t;

constexpr TxnId kInvalidTxnId = 0;

/// Log entry types (paper Section III-A): transaction boundary markers plus
/// the three row operations; heartbeats are the dummy entries of Section V-B.
enum class LogRecordType : uint8_t {
  kBegin = 0,
  kCommit = 1,
  kInsert = 2,
  kUpdate = 3,
  kDelete = 4,
  kHeartbeat = 5,
};

std::string_view LogRecordTypeToString(LogRecordType type);

/// A SiloR-style value-log entry (paper Fig. 2). DML entries carry the table
/// id, the row key, and the column-id/new-value pairs; `prev_txn_id` is the
/// before-image transaction id that last wrote this row on the primary, which
/// the ATR baseline uses for its operation-sequence check.
struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  Lsn lsn = 0;
  TxnId txn_id = kInvalidTxnId;
  Timestamp timestamp = kInvalidTimestamp;  // commit_ts on kCommit entries
  TableId table_id = kInvalidTableId;
  int64_t row_key = 0;
  TxnId prev_txn_id = kInvalidTxnId;
  /// Versions appended to this row on the primary before this operation
  /// (MemNode::AppendCount — a per-row modification sequence like ATR's
  /// RVID, which GC never lowers). Baselines that install versions directly
  /// use it for the operation-sequence check.
  uint64_t row_seq = 0;
  std::vector<ColumnValue> values;

  bool is_dml() const {
    return type == LogRecordType::kInsert || type == LogRecordType::kUpdate ||
           type == LogRecordType::kDelete;
  }

  /// Approximate serialized size; drives the allocator's n_gi weights.
  size_t ByteSize() const;

  static LogRecord Begin(Lsn lsn, TxnId txn, Timestamp ts);
  static LogRecord Commit(Lsn lsn, TxnId txn, Timestamp commit_ts);
  static LogRecord Heartbeat(Lsn lsn, TxnId txn, Timestamp ts);
  static LogRecord Dml(LogRecordType type, Lsn lsn, TxnId txn, Timestamp ts,
                       TableId table, int64_t row_key,
                       std::vector<ColumnValue> values,
                       TxnId prev_txn = kInvalidTxnId, uint64_t row_seq = 0);

  bool operator==(const LogRecord& other) const;
};

}  // namespace aets

#endif  // AETS_LOG_RECORD_H_
