#include "aets/storage/column_store.h"

#include <algorithm>
#include <utility>

#include "aets/obs/metrics.h"
#include "aets/storage/row_hash.h"

namespace aets {
namespace storage {

namespace {

/// Builds the immutable columnar payload for `n` (key, row) pairs sorted by
/// key. Rows that deviate from the schema go whole into the irregular
/// overflow; everything else lands in the typed vectors.
std::shared_ptr<const ChunkData> BuildChunkData(
    const Schema& schema, const std::pair<int64_t, FlatRow>* rows, size_t n,
    const uint64_t* hashes = nullptr) {
  auto data = std::make_shared<ChunkData>();
  data->keys.reserve(n);
  data->row_hash.reserve(n);
  data->irregular.Reset(n);
  size_t nc = schema.num_columns();
  data->cols.resize(nc);
  for (size_t c = 0; c < nc; ++c) {
    ChunkColumn& col = data->cols[c];
    col.type = schema.column(static_cast<ColumnId>(c)).type;
    col.has.Reset(n);
    col.null.Reset(n);
    switch (col.type) {
      case ColumnType::kInt64:
        col.i64.assign(n, 0);
        break;
      case ColumnType::kDouble:
        col.f64.assign(n, 0.0);
        break;
      case ColumnType::kString:
        col.str.assign(n, std::string());
        break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& [key, row] = rows[i];
    data->keys.push_back(key);
    data->row_hash.push_back(hashes != nullptr ? hashes[i] : HashRow(key, row));
    bool irregular = false;
    for (const auto& [col, value] : row) {
      if (col >= nc ||
          (!value.is_null() &&
           value.type() != schema.column(col).type)) {
        irregular = true;
        break;
      }
    }
    if (irregular) {
      data->irregular.Set(i);
      data->irregular_rows.emplace_back(static_cast<uint32_t>(i), row);
      continue;
    }
    for (const auto& [col, value] : row) {
      ChunkColumn& cc = data->cols[col];
      cc.has.Set(i);
      if (value.is_null()) {
        cc.null.Set(i);
      } else if (cc.type == ColumnType::kInt64) {
        cc.i64[i] = value.as_int64();
      } else if (cc.type == ColumnType::kDouble) {
        cc.f64[i] = value.as_double();
      } else {
        cc.str[i] = value.as_string();
      }
    }
  }
  for (ChunkColumn& col : data->cols) {
    col.dense = col.has.CountSet() == n && !col.null.Any();
  }
  return data;
}

/// Appends chunks covering `rows` (sorted by key), splitting every
/// `target` rows so no chunk starts life oversized.
void AppendChunks(const Schema& schema,
                  const std::vector<std::pair<int64_t, FlatRow>>& rows,
                  size_t target, std::vector<ColumnChunk>* out,
                  obs::Counter* rebuilt_metric,
                  const uint64_t* hashes = nullptr) {
  for (size_t off = 0; off < rows.size(); off += target) {
    size_t n = std::min(target, rows.size() - off);
    ColumnChunk chunk;
    chunk.data = BuildChunkData(schema, rows.data() + off, n,
                                hashes != nullptr ? hashes + off : nullptr);
    chunk.tombstones.Reset(n);
    chunk.live = n;
    out->push_back(std::move(chunk));
    rebuilt_metric->Add(1);
  }
}

}  // namespace

void ColumnSnapshot::LoadResidual() {
  static obs::Counter* residual_metric =
      obs::GetCounter("column.residual_rows");
  AETS_CHECK_MSG(valid(), "LoadResidual on an invalid snapshot");
  residual_loaded_ = true;
  if (residual_.empty()) return;
  residual_metric->Add(static_cast<int64_t>(residual_.size()));
  for (int64_t key : residual_) {
    auto row = rows_->ReadRow(key, qts_);
    if (row) residual_rows_.emplace(key, std::move(*row));
  }
}

BitVec ColumnSnapshot::ScanSkipBits(const ColumnChunk& chunk) const {
  BitVec skip = chunk.tombstones;
  if (!residual_.empty() && chunk.data->num_rows() > 0) {
    const auto& keys = chunk.data->keys;
    auto lo = std::lower_bound(residual_.begin(), residual_.end(),
                               keys.front());
    auto hi = std::upper_bound(lo, residual_.end(), keys.back());
    for (auto it = lo; it != hi; ++it) {
      auto kit = std::lower_bound(keys.begin(), keys.end(), *it);
      if (kit != keys.end() && *kit == *it) {
        skip.Set(static_cast<size_t>(kit - keys.begin()));
      }
    }
  }
  return skip;
}

uint64_t ColumnSnapshot::Digest() const {
  static obs::Counter* scanned = obs::GetCounter("column.rows_scanned");
  AETS_CHECK_MSG(residual_loaded_, "Digest before LoadResidual");
  uint64_t digest = 0;
  size_t visited = 0;
  for (const ColumnChunk& chunk : gen_->chunks) {
    BitVec skip = ScanSkipBits(chunk);
    size_t n = chunk.data->num_rows();
    visited += n;
    const uint64_t* hashes = chunk.data->row_hash.data();
    for (size_t i = 0; i < n; ++i) {
      if (!skip.Get(i)) digest ^= hashes[i];
    }
  }
  for (const auto& [key, row] : residual_rows_) {
    digest ^= HashRow(key, row);
  }
  scanned->Add(static_cast<int64_t>(visited));
  return digest;
}

size_t ColumnSnapshot::RowCount() const {
  AETS_CHECK_MSG(residual_loaded_, "RowCount before LoadResidual");
  size_t count = residual_rows_.size();
  for (const ColumnChunk& chunk : gen_->chunks) {
    count += chunk.data->num_rows() - ScanSkipBits(chunk).CountSet();
  }
  return count;
}

ColumnStore::ColumnStore(const Catalog* catalog, const TableStore* rows,
                         ColumnStoreOptions options)
    : catalog_(catalog), rows_(rows), options_(options) {
  AETS_CHECK(options_.chunk_rows > 0);
  AETS_CHECK(options_.max_generations > 0);
  tables_.reserve(catalog_->num_tables());
  for (size_t i = 0; i < catalog_->num_tables(); ++i) {
    tables_.push_back(std::make_unique<TableState>());
  }
}

ColumnStore::~ColumnStore() { StopMerge(kInvalidTimestamp); }

void ColumnStore::RequestPublish(Timestamp watermark, bool force) {
  if (watermark == kInvalidTimestamp) return;
  {
    std::lock_guard<std::mutex> lk(merge_mu_);
    merge_ts_ = std::max(merge_ts_, watermark);
    merge_force_ |= force;
    if (!merge_thread_.joinable()) {
      merge_stop_ = false;
      merge_thread_ = std::thread([this] { MergeLoop(); });
    }
  }
  merge_cv_.notify_one();
}

void ColumnStore::StopMerge(Timestamp flush_ts) {
  {
    std::lock_guard<std::mutex> lk(merge_mu_);
    merge_stop_ = true;
  }
  merge_cv_.notify_one();
  if (merge_thread_.joinable()) merge_thread_.join();
  Publish(flush_ts, /*force=*/true);
}

void ColumnStore::MergeLoop() {
  for (;;) {
    Timestamp ts;
    bool force;
    {
      std::unique_lock<std::mutex> lk(merge_mu_);
      merge_cv_.wait(lk, [&] {
        return merge_stop_ || merge_ts_ != kInvalidTimestamp;
      });
      if (merge_ts_ == kInvalidTimestamp) return;  // stopped and drained
      ts = merge_ts_;
      force = merge_force_;
      merge_ts_ = kInvalidTimestamp;
      merge_force_ = false;
    }
    // Reading at `ts` is stable against concurrent commits (MVCC reads at a
    // fixed timestamp) and the poster's mutex hand-off ordered every version
    // <= ts before this call.
    Publish(ts, force);
  }
}

void ColumnStore::NoteDirty(TableId table, int64_t key, Timestamp commit_ts) {
  AETS_CHECK(table < tables_.size());
  TableState& st = *tables_[table];
  std::lock_guard<std::mutex> lk(st.mu);
  st.pending.emplace_back(key, commit_ts);
}

void ColumnStore::Publish(Timestamp watermark, bool force) {
  if (watermark == kInvalidTimestamp) return;
  for (size_t t = 0; t < tables_.size(); ++t) {
    TableState& st = *tables_[t];
    std::vector<int64_t> dirty;
    std::shared_ptr<const TableGeneration> prev;
    {
      std::lock_guard<std::mutex> lk(st.mu);
      if (st.pending.empty()) continue;
      // Amortization: rewriting a chunk costs O(chunk_rows) however few of
      // its rows changed, so below the backlog threshold let the pending
      // set keep growing — the residual path keeps queries exact. The first
      // generation always publishes (pending.size() over-counts duplicates,
      // which only delays a skip, never a publish of stale data).
      if (!force && options_.publish_min_dirty > 0 && !st.gens.empty() &&
          st.pending.size() <
              std::max(options_.publish_min_dirty, st.live_rows / 8)) {
        continue;
      }
      // Take only entries the watermark covers. A key noted for a commit
      // newer than `watermark` (the poster raced ahead of this rebuild)
      // must stay pending: the chunk built here won't show that change, so
      // only the pending set keeps the residual top-up complete for it.
      // COPY, don't remove: while the rebuild below runs outside the lock,
      // a query ahead of the still-current newest generation derives its
      // residual from this pending set — dropping the consumed entries now
      // would make those keys vanish (absent from old chunks AND from the
      // residual) until the new generation lands. They are erased in the
      // second lock scope, atomically with the swap that covers them.
      dirty.reserve(st.pending.size());
      for (const auto& [key, ts] : st.pending) {
        if (ts <= watermark) dirty.push_back(key);
      }
      if (dirty.empty()) continue;
      if (!st.gens.empty()) prev = st.gens.back();
    }
    // Rebuild outside the lock: queries keep snapshotting the old
    // generation list; the sources (previous chunks, version chains) are
    // immutable/latched respectively.
    auto gen = RebuildTable(static_cast<TableId>(t), prev.get(),
                            std::move(dirty), watermark);
    {
      size_t live = 0;
      for (const ColumnChunk& chunk : gen->chunks) live += chunk.live;
      std::lock_guard<std::mutex> lk(st.mu);
      // Erase the consumed entries now that the generation covering them is
      // about to be visible. No new entry with commit_ts <= watermark can
      // have arrived since the copy above (the publisher is only handed a
      // watermark after every version it covers is installed and noted), so
      // this removes exactly the copied set.
      size_t kept = 0;
      for (size_t i = 0; i < st.pending.size(); ++i) {
        if (st.pending[i].second > watermark) st.pending[kept++] = st.pending[i];
      }
      st.pending.resize(kept);
      st.live_rows = live;
      st.gens.push_back(std::move(gen));
      while (st.gens.size() > options_.max_generations) st.gens.pop_front();
    }
  }
}

void ColumnStore::SeedFromRows(Timestamp snapshot_ts) {
  if (snapshot_ts == kInvalidTimestamp) return;
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Memtable* mem = rows_->GetTable(static_cast<TableId>(t));
    TableState& st = *tables_[t];
    std::lock_guard<std::mutex> lk(st.mu);
    mem->ScanVisible(snapshot_ts, [&](int64_t key, const FlatRow&) {
      st.pending.emplace_back(key, snapshot_ts);
      return true;
    });
  }
  Publish(snapshot_ts, /*force=*/true);
}

ColumnSnapshot ColumnStore::SnapshotAt(TableId table, Timestamp qts) const {
  ColumnSnapshot snap;
  if (table >= tables_.size() || qts == kInvalidTimestamp) return snap;
  TableState& st = *tables_[table];
  std::lock_guard<std::mutex> lk(st.mu);
  size_t gi = st.gens.size();
  while (gi > 0 && st.gens[gi - 1]->chunk_ts > qts) --gi;
  if (gi == 0) return snap;  // qts predates every retained generation
  snap.gen_ = st.gens[gi - 1];
  snap.rows_ = rows_->GetTable(table);
  snap.qts_ = qts;
  if (qts == snap.gen_->chunk_ts) {
    // Exact generation: the residual range (chunk_ts, qts] is empty.
  } else if (gi < st.gens.size()) {
    // A newer generation exists: everything that changed in (chunk_ts, qts]
    // is a subset of its dirty set (commit timestamps are monotone across
    // epochs, so later generations' changes all exceed qts).
    snap.residual_ = st.gens[gi]->dirty;
  } else {
    // qts runs ahead of the newest generation: the live pending set covers
    // every key changed after chunk_ts. NoteDirty happens before the
    // watermark that made qts visible was stored, so the copy is complete;
    // keys committed after qts are a harmless superset (their row-store
    // read at qts returns the same state the chunk holds).
    snap.residual_.reserve(st.pending.size());
    for (const auto& [key, ts] : st.pending) snap.residual_.push_back(key);
    std::sort(snap.residual_.begin(), snap.residual_.end());
    snap.residual_.erase(
        std::unique(snap.residual_.begin(), snap.residual_.end()),
        snap.residual_.end());
  }
  return snap;
}

Timestamp ColumnStore::PublishedTs(TableId table) const {
  AETS_CHECK(table < tables_.size());
  TableState& st = *tables_[table];
  std::lock_guard<std::mutex> lk(st.mu);
  return st.gens.empty() ? kInvalidTimestamp : st.gens.back()->chunk_ts;
}

std::shared_ptr<const TableGeneration> ColumnStore::RebuildTable(
    TableId table, const TableGeneration* prev, std::vector<int64_t> dirty,
    Timestamp watermark) {
  static obs::Counter* rebuilt = obs::GetCounter("column.chunks_rebuilt");
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  const Memtable* mem = rows_->GetTable(table);
  std::vector<std::optional<FlatRow>> dirty_rows(dirty.size());
  for (size_t i = 0; i < dirty.size(); ++i) {
    dirty_rows[i] = mem->ReadRow(dirty[i], watermark);
  }

  auto info = catalog_->GetTable(table);
  AETS_CHECK(info.ok());
  const Schema& schema = (*info)->schema;

  auto gen = std::make_shared<TableGeneration>();
  gen->chunk_ts = watermark;
  gen->dirty = dirty;

  if (prev == nullptr || prev->chunks.empty()) {
    // First generation (or the table emptied out entirely): chunk the
    // present rows directly — dirty is sorted, so they arrive in key order.
    std::vector<std::pair<int64_t, FlatRow>> rows;
    rows.reserve(dirty.size());
    for (size_t i = 0; i < dirty.size(); ++i) {
      if (dirty_rows[i]) rows.emplace_back(dirty[i], std::move(*dirty_rows[i]));
    }
    AppendChunks(schema, rows, options_.chunk_rows, &gen->chunks, rebuilt);
    return gen;
  }

  // Route each dirty key to the previous generation's chunk owning its key
  // range (out-of-range keys attach to the nearest edge chunk).
  size_t nchunks = prev->chunks.size();
  std::vector<std::vector<size_t>> assigned(nchunks);
  {
    size_t ci = 0;
    for (size_t i = 0; i < dirty.size(); ++i) {
      while (ci + 1 < nchunks && dirty[i] > prev->chunks[ci].max_key()) ++ci;
      assigned[ci].push_back(i);
    }
  }

  for (size_t ci = 0; ci < nchunks; ++ci) {
    const ColumnChunk& old = prev->chunks[ci];
    if (assigned[ci].empty()) {
      gen->chunks.push_back(old);  // shares the column vectors
      continue;
    }
    size_t n = old.data->num_rows();
    bool all_deletes = true;
    for (size_t i : assigned[ci]) {
      if (dirty_rows[i]) {
        all_deletes = false;
        break;
      }
    }
    if (all_deletes) {
      // Pure deletes: copy only the tombstone overlay; the column vectors
      // stay shared with the previous generation.
      ColumnChunk next = old;
      const auto& keys = old.data->keys;
      for (size_t i : assigned[ci]) {
        auto it = std::lower_bound(keys.begin(), keys.end(), dirty[i]);
        if (it != keys.end() && *it == dirty[i]) {
          size_t idx = static_cast<size_t>(it - keys.begin());
          if (!next.tombstones.Get(idx)) {
            next.tombstones.Set(idx);
            --next.live;
          }
        }
      }
      if (next.live == 0) continue;  // chunk fully dead: drop it
      if ((n - next.live) * 2 <= n) {
        gen->chunks.push_back(std::move(next));
        continue;
      }
      // Majority tombstoned: fall through and compact via a full rewrite.
    }
    // Rewrite: merge the surviving old rows with the dirty keys' images at
    // the new watermark (both streams sorted by key). Carried rows reuse
    // the previous chunk's cached hashes — only dirty images rehash.
    std::vector<std::pair<int64_t, FlatRow>> merged;
    std::vector<uint64_t> merged_hash;
    merged.reserve(old.live + assigned[ci].size());
    merged_hash.reserve(old.live + assigned[ci].size());
    const auto& a = assigned[ci];
    size_t di = 0;
    auto emit_dirty = [&](size_t i) {
      if (dirty_rows[i]) {
        merged_hash.push_back(HashRow(dirty[i], *dirty_rows[i]));
        merged.emplace_back(dirty[i], *dirty_rows[i]);
      }
    };
    for (size_t r = 0; r < n; ++r) {
      int64_t k = old.data->keys[r];
      while (di < a.size() && dirty[a[di]] < k) emit_dirty(a[di++]);
      if (di < a.size() && dirty[a[di]] == k) {
        emit_dirty(a[di++]);  // new image supersedes the old row
        continue;
      }
      if (old.tombstones.Get(r)) continue;
      merged_hash.push_back(old.data->row_hash[r]);
      merged.emplace_back(k, old.data->MaterializeRow(r));
    }
    while (di < a.size()) emit_dirty(a[di++]);
    if (merged.empty()) continue;
    if (merged.size() <= 2 * options_.chunk_rows) {
      ColumnChunk chunk;
      chunk.data = BuildChunkData(schema, merged.data(), merged.size(),
                                  merged_hash.data());
      chunk.tombstones.Reset(merged.size());
      chunk.live = merged.size();
      gen->chunks.push_back(std::move(chunk));
      rebuilt->Add(1);
    } else {
      AppendChunks(schema, merged, options_.chunk_rows, &gen->chunks, rebuilt,
                   merged_hash.data());
    }
  }
  return gen;
}

}  // namespace storage
}  // namespace aets
