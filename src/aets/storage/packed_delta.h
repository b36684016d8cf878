#ifndef AETS_STORAGE_PACKED_DELTA_H_
#define AETS_STORAGE_PACKED_DELTA_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "aets/log/view.h"
#include "aets/storage/flat_row.h"
#include "aets/storage/value.h"

namespace aets {

/// The delta payload of one version cell, packed into a single contiguous
/// allocation instead of a std::vector<ColumnValue> (which costs one vector
/// block plus one string block per string value). Layout mirrors the log
/// wire format so translate can memcpy straight out of a decoded view:
///
///   [u16 count][entry]*count   where entry = u16 col_id, u8 tag, payload
///
/// Empty deltas (pure tombstones) hold no allocation at all. Move-only —
/// version chains only ever move cells; copying is an explicit Clone().
class PackedDelta {
 public:
  PackedDelta() = default;
  PackedDelta(PackedDelta&&) noexcept = default;
  PackedDelta& operator=(PackedDelta&&) noexcept = default;
  PackedDelta(const PackedDelta&) = delete;
  PackedDelta& operator=(const PackedDelta&) = delete;

  /// Packs a validated `[col_id][value wire]` slice — the `value_bytes` of a
  /// LogRecordView. One memcpy, the single allocation of the apply path.
  static PackedDelta FromWire(uint16_t count, std::string_view bytes);

  /// Packs owning column values (serial oracle, checkpoint restore, tests).
  static PackedDelta FromColumnValues(const std::vector<ColumnValue>& values);

  /// Packs a materialized row — the GC fold writes its full-image base cell
  /// through this. Row iteration order is ascending column id.
  static PackedDelta FromRow(const FlatRow& row);

  /// Explicit deep copy.
  PackedDelta Clone() const;

  uint16_t count() const {
    if (data_ == nullptr) return 0;
    uint16_t n;
    std::memcpy(&n, data_.get(), sizeof(n));
    return n;
  }
  bool empty() const { return data_ == nullptr; }

  /// Iterates the entries; views into this block, valid while it lives.
  DeltaReader Read() const {
    if (data_ == nullptr) return DeltaReader(std::string_view(), 0);
    return DeltaReader(
        std::string_view(data_.get() + sizeof(uint16_t), size_ - sizeof(uint16_t)),
        count());
  }

  /// Folds this delta into `row` (upsert per entry) — the ReadVisible and GC
  /// reconstruction step. Strings are copied out into owning Values.
  void ApplyTo(FlatRow* row) const;

  /// Materializes owning column values (checkpoint serialization, tests).
  std::vector<ColumnValue> ToColumnValues() const;

  /// Byte equality — the encoding is deterministic, so packed bytes agree
  /// iff the logical deltas agree entry-for-entry.
  bool operator==(const PackedDelta& other) const {
    return size_ == other.size_ &&
           (size_ == 0 ||
            std::memcmp(data_.get(), other.data_.get(), size_) == 0);
  }
  bool operator!=(const PackedDelta& other) const { return !(*this == other); }

 private:
  PackedDelta(std::unique_ptr<char[]> data, uint32_t size)
      : data_(std::move(data)), size_(size) {}

  std::unique_ptr<char[]> data_;
  uint32_t size_ = 0;
};

}  // namespace aets

#endif  // AETS_STORAGE_PACKED_DELTA_H_
