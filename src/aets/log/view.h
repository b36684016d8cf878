#ifndef AETS_LOG_VIEW_H_
#define AETS_LOG_VIEW_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "aets/log/record.h"
#include "aets/storage/value.h"

namespace aets {

/// Wire tag of one encoded value. The same byte appears in log-record frames
/// and inside PackedDelta buffers — both carry the value wire format:
///   [tag u8][payload: i64 | f64 | u32 len + bytes | none]
enum class ValueTag : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

/// A non-owning decoded value: scalars by copy, strings as a view into the
/// underlying buffer (an epoch payload or a PackedDelta block). Valid only
/// while that buffer is alive and unmodified.
struct ValueView {
  ValueTag tag = ValueTag::kNull;
  int64_t i64 = 0;        // valid when tag == kInt64
  double f64 = 0.0;       // valid when tag == kDouble
  std::string_view str;   // valid when tag == kString

  bool is_null() const { return tag == ValueTag::kNull; }
  bool is_int64() const { return tag == ValueTag::kInt64; }
  bool is_double() const { return tag == ValueTag::kDouble; }
  bool is_string() const { return tag == ValueTag::kString; }

  /// Materializes an owning Value (allocates for strings).
  Value ToValue() const;

  /// Deep equality against an owning Value (no allocation).
  bool Equals(const Value& v) const;
};

/// Exact wire size of a value: tag byte plus payload.
inline size_t ValueWireSize(const Value& v) { return v.ByteSize(); }

/// Appends the value wire form to a string (codec / test path).
void AppendValueWire(const Value& v, std::string* out);

/// Writes the value wire form at `dst` (PackedDelta path); returns the byte
/// past the last one written. `dst` must have ValueWireSize(v) bytes free.
char* WriteValueWire(char* dst, const Value& v);

/// Parses one value at `p` (bounded by `end`) into `out`. Returns the byte
/// past the value, or nullptr when truncated or the tag is invalid.
const char* ParseValueWire(const char* p, const char* end, ValueView* out);

/// Cursor over a validated sequence of `[col_id u16][value wire]` entries —
/// the payload tail of a DML record and the body of a PackedDelta. The
/// bytes must have been bounds-checked once (DecodeView / PackedDelta do);
/// Next() then never fails before `count` entries are consumed.
class DeltaReader {
 public:
  DeltaReader(std::string_view bytes, uint16_t count)
      : pos_(bytes.data()), end_(bytes.data() + bytes.size()),
        remaining_(count) {}

  /// Reads the next (column, value) entry. False once exhausted.
  bool Next(ColumnId* col, ValueView* value);

  uint16_t remaining() const { return remaining_; }

 private:
  const char* pos_;
  const char* end_;
  uint16_t remaining_;
};

/// A non-owning decoded log record: fixed fields by copy, values as a raw
/// validated slice into the source buffer. The view (and every ValueView
/// obtained from it) is valid only while the source buffer out-lives it —
/// for replay, until the epoch's shared payload is released.
struct LogRecordView {
  LogRecordType type = LogRecordType::kBegin;
  Lsn lsn = 0;
  TxnId txn_id = kInvalidTxnId;
  Timestamp timestamp = kInvalidTimestamp;
  TableId table_id = kInvalidTableId;
  int64_t row_key = 0;
  TxnId prev_txn_id = kInvalidTxnId;
  uint64_t row_seq = 0;
  /// Declared value count; for metadata-only decodes the count is read from
  /// the DML header but `value_bytes` stays empty (values not validated).
  uint16_t num_values = 0;
  /// Validated `[col_id u16][value wire]` entries (full decodes only).
  std::string_view value_bytes;

  bool is_dml() const {
    return type == LogRecordType::kInsert || type == LogRecordType::kUpdate ||
           type == LogRecordType::kDelete;
  }

  DeltaReader values() const { return DeltaReader(value_bytes, num_values); }

  /// Materializes an owning LogRecord (the one allocation-heavy path:
  /// DecodeEpoch — the serial oracle, the reference model, the bench
  /// harness — and tests).
  LogRecord Materialize() const;
};

}  // namespace aets

#endif  // AETS_LOG_VIEW_H_
