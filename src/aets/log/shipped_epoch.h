#ifndef AETS_LOG_SHIPPED_EPOCH_H_
#define AETS_LOG_SHIPPED_EPOCH_H_

#include <memory>
#include <string>
#include <string_view>

#include "aets/common/result.h"
#include "aets/log/epoch.h"

namespace aets {

/// The wire form of an epoch: all log records of its transactions encoded
/// back-to-back in commit order. Replayers differ in how much of it they
/// decode where — AETS and ATR route on the cheap metadata prefix and let
/// replay workers decode values in parallel, while C5's dispatcher must
/// decode the full data image up front (the parsing-cost asymmetry of the
/// paper's Section VI-B).
struct ShippedEpoch {
  EpochId epoch_id = 0;
  /// Encoded records; shared so fragments can reference offsets into it
  /// without copying.
  std::shared_ptr<const std::string> payload;
  /// CRC32C over the whole payload, computed by EncodeEpoch before the epoch
  /// leaves the primary. Receivers verify it before dispatch (the per-record
  /// checksums protect individual frames, but the cheap metadata dispatch
  /// path skips them — the epoch-level CRC closes that window and turns link
  /// corruption into a retransmittable loss instead of a decode error).
  uint32_t payload_crc = 0;
  size_t num_txns = 0;
  size_t num_records = 0;
  TxnId first_txn = kInvalidTxnId;
  TxnId last_txn = kInvalidTxnId;
  Timestamp max_commit_ts = kInvalidTimestamp;
  /// Non-zero marks a heartbeat epoch: no transactions, just a liveness
  /// timestamp that bumps global_cmt_ts on the backup (paper Section V-B).
  Timestamp heartbeat_ts = kInvalidTimestamp;

  bool is_heartbeat() const { return heartbeat_ts != kInvalidTimestamp; }
  size_t ByteSize() const { return payload ? payload->size() : 0; }

  /// Recomputes the payload CRC32C and compares it against `payload_crc`.
  /// False means the payload was damaged in flight (or truncated); the
  /// receiver must treat the epoch as lost and request a retransmit.
  bool PayloadIntact() const;
};

/// Encodes a sealed epoch for shipping.
ShippedEpoch EncodeEpoch(const Epoch& epoch);

/// Builds a heartbeat epoch.
ShippedEpoch MakeHeartbeatEpoch(EpochId id, Timestamp ts);

/// The one byte layout of a ShippedEpoch outside memory: the body of a
/// durable segment frame (DESIGN.md §10) and of a kEpoch/kFetchOk wire frame
/// (DESIGN.md §12). All integers little-endian:
///   u64 epoch_id | u64 heartbeat_ts | u64 max_commit_ts | u64 num_txns |
///   u64 num_records | u64 first_txn | u64 last_txn | u32 payload_crc |
///   u32 payload_len | payload
/// DecodeEpochBody checks every bound (payload_len must match the body size
/// exactly, else Corruption) but NOT the payload CRC — the receiver's normal
/// ingest path does that (PayloadIntact), keeping the corruption handling
/// single-pathed. The frame around the body carries its own CRC.
constexpr size_t kEpochBodyFixedBytes = 7 * 8 + 2 * 4;
void EncodeEpochBody(const ShippedEpoch& epoch, std::string* out);
Result<ShippedEpoch> DecodeEpochBody(std::string_view body);

/// Fully decodes a shipped epoch back into transaction logs through the
/// framing walker (used by tests, the serial oracle, the reference model and
/// the bench harness). A heartbeat epoch decodes to no transactions.
Result<Epoch> DecodeEpoch(const ShippedEpoch& shipped);

}  // namespace aets

#endif  // AETS_LOG_SHIPPED_EPOCH_H_
