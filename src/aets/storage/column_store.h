#ifndef AETS_STORAGE_COLUMN_STORE_H_
#define AETS_STORAGE_COLUMN_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/clock.h"
#include "aets/storage/column_chunk.h"
#include "aets/storage/table_store.h"

namespace aets {
namespace storage {

struct ColumnStoreOptions {
  /// Target rows per chunk. A rewrite that grows a chunk past twice this
  /// splits it back into chunk_rows-sized pieces.
  size_t chunk_rows = 4096;
  /// Generations retained per table. A query pinned before the oldest
  /// retained generation falls back to the row path.
  size_t max_generations = 8;
  /// Publish amortization: when > 0, a non-forced Publish skips any table
  /// whose pending dirty set is smaller than
  /// max(publish_min_dirty, live_rows / 8) — rewriting a chunk costs
  /// O(chunk_rows) regardless of how few of its rows changed, so batching
  /// epochs until the backlog is worth the rewrite bounds the replay-path
  /// write amplification at ~8x. Skipped tables stay exact: their changes
  /// ride the residual top-up until the backlog crosses the threshold (or a
  /// forced flush on heartbeat / shutdown). 0 publishes on every call.
  size_t publish_min_dirty = 0;
};

/// One query's consistent view of a table's columnar projection: the newest
/// generation with chunk_ts <= qts, plus the sorted residual key set that
/// may have changed in (chunk_ts, qts] and must be re-resolved from the
/// row-store version chains. Obtained from ColumnStore::SnapshotAt; all
/// referenced chunk data is immutable, so a snapshot outlives any
/// concurrent Publish.
///
/// Protocol: call LoadResidual() while `qts` is still protected from GC
/// (snapshot pin / watermark retention) — it reads the residual keys from
/// the version chains. After that, Digest/RowCount/ScanRows touch only
/// immutable chunk data plus the preloaded residual rows, so the caller may
/// release its pin first (this is what bounds the QueryServer's pin time).
class ColumnSnapshot {
 public:
  ColumnSnapshot() = default;

  bool valid() const { return gen_ != nullptr; }
  Timestamp qts() const { return qts_; }
  Timestamp chunk_ts() const { return gen_->chunk_ts; }
  const std::vector<ColumnChunk>& chunks() const { return gen_->chunks; }
  const std::vector<int64_t>& residual_keys() const { return residual_; }

  /// Re-resolves every residual key at qts from the row store. Requires the
  /// snapshot to be GC-protected at the time of the call.
  void LoadResidual();
  /// Residual keys visible at qts, with their rows (absent keys dropped).
  const std::map<int64_t, FlatRow>& residual_rows() const {
    return residual_rows_;
  }

  /// Rows of `chunk` a scan must skip: this generation's tombstones plus
  /// any residual key falling in the chunk (its chunk value is stale at
  /// qts; the residual row supersedes it). Irregular rows are NOT included
  /// — typed loops must OR in chunk.data->irregular themselves and cover
  /// those rows via chunk.data->irregular_rows.
  BitVec ScanSkipBits(const ColumnChunk& chunk) const;

  /// Order-independent digest of everything visible at qts — equals
  /// Memtable::DigestAt(qts). Requires LoadResidual().
  uint64_t Digest() const;

  /// Number of rows visible at qts. Requires LoadResidual().
  size_t RowCount() const;

  /// Visits every row visible at qts (chunk rows in ascending key order
  /// first, then residual rows; overall order unspecified). Visitor returns
  /// false to stop. Requires LoadResidual().
  template <typename Visitor>
  void ScanRows(Visitor&& visit) const {
    AETS_CHECK_MSG(residual_loaded_, "ScanRows before LoadResidual");
    for (const ColumnChunk& chunk : gen_->chunks) {
      BitVec skip = ScanSkipBits(chunk);
      size_t n = chunk.data->num_rows();
      for (size_t i = 0; i < n; ++i) {
        if (skip.Get(i)) continue;
        if (!visit(chunk.data->keys[i], chunk.data->MaterializeRow(i))) return;
      }
    }
    for (const auto& [key, row] : residual_rows_) {
      if (!visit(key, row)) return;
    }
  }

 private:
  friend class ColumnStore;

  std::shared_ptr<const TableGeneration> gen_;
  const Memtable* rows_ = nullptr;  // residual top-up source
  Timestamp qts_ = kInvalidTimestamp;
  std::vector<int64_t> residual_;  // sorted
  std::map<int64_t, FlatRow> residual_rows_;
  bool residual_loaded_ = false;
};

/// Watermark-versioned columnar projections of a TableStore, rebuilt
/// incrementally from the dirty-key sets of each committed epoch
/// (DESIGN.md §13; the delta-merge design of ROADMAP item 1).
///
/// Commit side:
///   - Group commits call NoteDirty(key, commit_ts) for every row they
///     install, BEFORE publishing the group watermark — so any reader that
///     observed a watermark also observes the dirty keys accumulated up to
///     it.
///   - After an epoch's watermarks publish, the replayer posts w with
///     RequestPublish and moves on; the store's own merge worker runs
///     Publish(w), turning each table's pending entries with commit_ts <= w
///     into a new generation (later entries stay pending): only touched
///     chunks are rewritten (pure deletes just copy the tombstone overlay),
///     everything else shares the previous generation's column vectors.
///
/// Query side (any thread): SnapshotAt(table, qts) picks the newest
/// generation with chunk_ts <= qts and derives the residual key set —
/// the next generation's dirty list, or the live pending set when qts runs
/// ahead of the newest generation. Chunks are immutable, so queries never
/// block Publish and vice versa (per-table mutex held only for the
/// pending/generation-list swap).
class ColumnStore {
 public:
  ColumnStore(const Catalog* catalog, const TableStore* rows,
              ColumnStoreOptions options = {});

  /// Stops the merge worker without a final flush.
  ~ColumnStore();

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  const ColumnStoreOptions& options() const { return options_; }

  /// Marks `key` of `table` changed at `commit_ts`. Commit path only;
  /// thread-safe across concurrent group commits. Must happen before the
  /// corresponding watermark store (see class comment). The timestamp lets
  /// an asynchronous Publish at an older watermark take only the entries it
  /// actually covers — keys whose change committed later stay pending, so
  /// the residual top-up never loses them.
  void NoteDirty(TableId table, int64_t key, Timestamp commit_ts);

  /// Publishes one generation per table from the pending entries with
  /// commit_ts <= watermark, reading the merged rows from the row store at
  /// `watermark`; later entries stay pending (the residual path covers
  /// them). Single publisher at a time: either the merge worker below or a
  /// direct caller, never both. Every consumed key's versions up to
  /// `watermark` must be fully installed. With publish_min_dirty set, tables
  /// below the backlog threshold are skipped (their pending keys keep
  /// accumulating) unless `force` — used on heartbeats and at shutdown to
  /// drain the backlog.
  void Publish(Timestamp watermark, bool force = false);

  /// Posts `watermark` to the background merge worker (started by the first
  /// request) and returns at once, keeping rebuilds off the poster's
  /// critical path; queries stay exact meanwhile through the residual
  /// top-up. When posts outrun the worker the newest watermark wins (one
  /// rebuild covers them all), and a force stays set until consumed. One
  /// poster, posting only watermarks whose versions are installed and noted.
  void RequestPublish(Timestamp watermark, bool force);

  /// Drains and joins the merge worker, then runs a final forced
  /// Publish(flush_ts) so a stopped backup is fully chunked (skipped for
  /// kInvalidTimestamp). A later RequestPublish restarts the worker.
  void StopMerge(Timestamp flush_ts);

  /// Bootstrap seeding: builds generation 0 of every table from the rows
  /// visible at `snapshot_ts` (a checkpoint restore's snapshot timestamp).
  /// No-op for kInvalidTimestamp.
  void SeedFromRows(Timestamp snapshot_ts);

  /// The query-side entry point; see ColumnSnapshot. Returns an invalid
  /// snapshot (caller falls back to the row path) when no retained
  /// generation has chunk_ts <= qts.
  ColumnSnapshot SnapshotAt(TableId table, Timestamp qts) const;

  /// chunk_ts of `table`'s newest generation, or kInvalidTimestamp.
  Timestamp PublishedTs(TableId table) const;

 private:
  struct TableState {
    mutable std::mutex mu;
    /// Unsorted, may hold duplicates. Publish(w) consumes only entries with
    /// commit_ts <= w; later ones ride into the next generation.
    std::vector<std::pair<int64_t, Timestamp>> pending;
    std::deque<std::shared_ptr<const TableGeneration>> gens;  // ascending ts
    size_t live_rows = 0;  // newest generation's live count (threshold input)
  };

  std::shared_ptr<const TableGeneration> RebuildTable(
      TableId table, const TableGeneration* prev,
      std::vector<int64_t> dirty, Timestamp watermark);
  void MergeLoop();

  const Catalog* catalog_;
  const TableStore* rows_;
  ColumnStoreOptions options_;
  std::vector<std::unique_ptr<TableState>> tables_;

  /// Merge worker state: the coalesced request, guarded by merge_mu_.
  std::mutex merge_mu_;
  std::condition_variable merge_cv_;
  Timestamp merge_ts_ = kInvalidTimestamp;
  bool merge_force_ = false;
  bool merge_stop_ = false;
  std::thread merge_thread_;
};

}  // namespace storage
}  // namespace aets

#endif  // AETS_STORAGE_COLUMN_STORE_H_
