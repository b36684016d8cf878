#ifndef AETS_LOG_CODEC_H_
#define AETS_LOG_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "aets/common/result.h"
#include "aets/common/status.h"
#include "aets/log/record.h"
#include "aets/log/view.h"

namespace aets {

/// Binary wire format for value-log entries.
///
/// Layout (little-endian):
///   u32 crc32c over everything after the crc field
///   u32 payload length
///   u8  type
///   u64 lsn, u64 txn_id, u64 timestamp
///   DML only: u32 table_id, i64 row_key, u64 prev_txn_id, u64 row_seq,
///             u16 value count, then per value: u16 column_id, u8 tag,
///             tag-dependent payload (i64 | f64 | u32 len + bytes | none)
///
/// The replication channel ships encoded epochs; replayers decode either the
/// metadata prefix only (AETS, ATR) or the full image (C5) — the asymmetric
/// parsing cost the paper's Section VI-B calls out — through the one framing
/// walker, WalkEpochPayload (log/framing.h). The hot apply path uses
/// `DecodeView`, which validates the frame once and hands back string_view
/// slices into the source buffer instead of allocating per value.
class LogCodec {
 public:
  /// Appends the encoded record to `out`.
  static void Encode(const LogRecord& record, std::string* out);

  /// The one full decoder. Decodes one record starting at `data[*offset]`,
  /// advancing `*offset`; checksum mismatches and truncation return
  /// Corruption. Single pass and zero-copy: verifies the checksum,
  /// bounds-checks every value once, and returns a view whose `value_bytes`
  /// (and any string ValueView read from it) points into `data`. The caller
  /// must keep `data` alive and unmodified for the lifetime of the view — on
  /// the replay path that is the epoch's shared payload. Callers that need
  /// an owning record call LogRecordView::Materialize on the result.
  static Result<LogRecordView> DecodeView(std::string_view data,
                                          size_t* offset);

  /// Decodes only the fixed metadata prefix (type/lsn/txn/ts/table/rowkey),
  /// skipping value parsing AND checksum verification — the cheap dispatch
  /// path touches headers only; the phase-1 full decode of the same frame
  /// verifies the checksum before anything is installed. Advances `*offset`
  /// past the whole record. The returned view's `value_bytes` is empty (the
  /// declared `num_values` is still populated).
  static Result<LogRecordView> DecodeMetadata(std::string_view data,
                                              size_t* offset);

  /// Encodes a whole sequence (single exact-size allocation).
  static std::string EncodeAll(const std::vector<LogRecord>& records);
};

/// Software CRC32C (Castagnoli), table-driven slice-by-8 (little-endian
/// fast path, byte-at-a-time tail). Also guards shipped-epoch payloads and
/// checkpoint images, so throughput matters beyond the per-record frames.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

}  // namespace aets

#endif  // AETS_LOG_CODEC_H_
