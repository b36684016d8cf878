// Durable replay driver: the crash-restart gauntlet's workhorse
// (DESIGN.md §10, scripts/crash_restart_gauntlet.sh,
// scripts/endurance_check.sh).
//
// Three modes over one seeded, fully deterministic workload (no wall-clock
// heartbeats — epoch ids and commit timestamps depend only on --seed). The
// backup is always --shard_count AETS lanes behind a ShardedBackup (one by
// default), each lane with its own sub-epoch stream, segment directory and
// NACK source:
//
//   run      Streams the workload through primary -> LogShipper (durable
//            segment tier attached, small RAM retention) -> backup, pacing
//            itself so a kill -9 lands mid-stream, and writing live
//            checkpoints of every lane between epochs. The gauntlet kills
//            this process at a seeded random point.
//
//   digest   The uninterrupted reference: same pipeline run to completion,
//            then one line per data epoch
//                EPOCH <id> <max_commit_ts> <digest>
//            and a FINAL line. Digests are ReplicaDigestAt (each table read
//            from its owning lane) at each epoch's max commit timestamp
//            (valid historically: no GC here).
//
//   recover  Reopens every lane's segment directory after a crash:
//            SegmentStore::Open truncates any torn tail, the newest
//            restorable checkpoint bootstraps the lane, and the lane's tail
//            replays through the normal main loop via DurableEpochSource.
//            Verifies each lane against the sim oracle's ReferenceModel
//            (exact rows, not just a digest) and prints
//                RECOVERED next_epoch=<n> ts=<ts> digest=<d> fetches=<f>
//                          tail=<n> torn=<n> floor=<f>
//            for the gauntlet to match against the reference EPOCH table.
//
// A lane's directory is --dir itself with one lane, <dir>/shard<k> with
// more.
//
// With --disk_budget B > 0 the shipper's CheckpointTrigger fires whenever a
// lane's durable log exceeds B bytes; the driver then seals the open epoch,
// quiesces the backup, writes a live checkpoint image of that lane,
// truncates the lane's durable log below it (SegmentStore::TruncateBelow),
// and rotates old images. Budget checkpoints replace the --ckpt_every
// cadence. Budget triggers land at deterministic txn indices (bytes appended
// are a pure function of the seed), so run and digest modes checkpoint and
// truncate at identical epochs and the reference EPOCH table — harvested
// incrementally before each truncation — still covers the whole history.
// Recovery then has to bridge the deleted prefix through the checkpoint
// image, which is the case the endurance gauntlet exists to prove.
//
//   $ ./durable_replay run --dir /tmp/aets-seg --seed 11
//   $ ./durable_replay recover --dir /tmp/aets-seg --seed 11

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aets/bench/harness.h"
#include "aets/catalog/shard_map.h"
#include "aets/obs/metrics.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/sharded_backup.h"
#include "aets/replication/durable_source.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"
#include "aets/storage/checkpoint.h"
#include "aets/storage/segment_store.h"

using namespace aets;

namespace {

struct Config {
  std::string mode;
  std::string dir;
  uint64_t seed = 1;
  int num_tables = 4;
  int num_txns = 20000;
  int epoch_size = 32;
  int batch = 50;          // txns per pacing step (run mode)
  int pause_us = 2000;     // sleep per pacing step (run mode)
  int ckpt_every = 3000;   // txns between epoch flushes and, in run mode
                           // without a budget, live checkpoints
  size_t retention = 16;   // RAM retention epochs: small, to force spills
  size_t segment_max_bytes = 256u << 10;  // small, to force rollovers
  // Backup lanes (DESIGN.md §11): N in-process AETS shards behind a
  // ShardedBackup, each with its own sub-epoch lane, segment directory, NACK
  // source and checkpoint images. One lane is the single backup.
  int shard_count = 1;
  // Per-lane durable-log budget in bytes (SegmentStoreOptions::
  // disk_budget_bytes). 0 disables truncation entirely — the pre-budget
  // behavior, which the classic gauntlet cases still exercise.
  uint64_t disk_budget = 0;
  // Checkpoint images kept per directory by PruneCheckpoints rotation (the
  // truncation-floor image is protected beyond this count).
  size_t keep_ckpts = 3;
};

// A lane's segment and checkpoint directory: --dir itself with one lane (the
// gauntlet's damage cases address <dir>/seg-*.log and <dir>/MANIFEST),
// <dir>/shard<k> with more.
std::string LaneDir(const Config& cfg, int shard) {
  if (cfg.shard_count == 1) return cfg.dir;
  return cfg.dir + "/shard" + std::to_string(shard);
}

// Deterministic splitmix64 — the driver must replay identically on every
// invocation with the same seed, across processes.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

void FillCatalog(Catalog* catalog, int num_tables) {
  for (int t = 0; t < num_tables; ++t) {
    TableId id = catalog
                     ->RegisterTable("t" + std::to_string(t),
                                     Schema::Of({{"count", ColumnType::kInt64},
                                                 {"payload", ColumnType::kString}}))
                     .value();
    (void)id;
  }
}

// One deterministic transaction: 1-3 ops over 150 keys per table, with the
// insert/update/delete choice keyed to what is currently live.
void ApplyOneTxn(PrimaryDb* db, Rng* rng, int num_tables,
                 std::vector<std::set<int64_t>>* live, int64_t i) {
  PrimaryTxn txn = db->Begin();
  int ops = 1 + static_cast<int>(rng->Below(3));
  for (int o = 0; o < ops; ++o) {
    TableId t = static_cast<TableId>(rng->Below(num_tables));
    int64_t key = static_cast<int64_t>(rng->Below(150));
    uint64_t roll = rng->Below(100);
    auto& alive = (*live)[t];
    if (alive.count(key) == 0) {
      txn.Insert(t, key,
                 {{0, Value(i)}, {1, Value("ins-" + std::to_string(i))}});
      alive.insert(key);
    } else if (roll < 75) {
      txn.Update(t, key,
                 {{0, Value(i)}, {1, Value("upd-" + std::to_string(i))}});
    } else {
      txn.Delete(t, key);
      alive.erase(key);
    }
  }
  if (!db->Commit(std::move(txn)).ok()) {
    std::fprintf(stderr, "commit %lld failed\n", static_cast<long long>(i));
    std::exit(2);
  }
}

// The backup's total thread budget, split across lanes by
// MakeShardedAetsBackup: two replay and two commit threads, and at least one
// of each per lane.
AetsOptions ReplayOptions(const Config& cfg) {
  AetsOptions options;
  options.replay_threads = std::max(2, cfg.shard_count);
  options.commit_threads = std::max(2, cfg.shard_count);
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates = std::vector<double>(cfg.num_tables, 1.0);
  return options;
}

AetsReplayer* LaneReplayer(ShardedBackup* backup, int shard) {
  return static_cast<AetsReplayer*>(backup->shard(shard));
}

uint64_t CounterValue(const char* name) {
  auto snap = obs::MetricsRegistry::Instance().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Resident set size in KiB, for the endurance gauntlet's flat-memory check.
long ReadRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atol(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

SegmentStoreOptions StoreOptions(const Config& cfg, const std::string& dir) {
  SegmentStoreOptions options;
  options.dir = dir;
  options.segment_max_bytes = cfg.segment_max_bytes;
  options.fsync_policy = FsyncPolicy::kSegment;
  options.disk_budget_bytes = cfg.disk_budget;
  return options;
}

// Opens (after a crash: reopens, truncating any torn tail) every lane's
// segment store.
bool OpenStores(const Config& cfg,
                std::vector<std::unique_ptr<SegmentStore>>* stores) {
  for (int s = 0; s < cfg.shard_count; ++s) {
    auto store_or = SegmentStore::Open(StoreOptions(cfg, LaneDir(cfg, s)));
    if (!store_or.ok()) {
      std::fprintf(stderr, "segment store shard %d: %s\n", s,
                   store_or.status().ToString().c_str());
      return false;
    }
    stores->push_back(std::move(*store_or));
  }
  return true;
}

int RunMode(const Config& cfg, bool paced) {
  Catalog catalog;
  FillCatalog(&catalog, cfg.num_tables);
  LogicalClock clock;
  PrimaryDb primary(&catalog, &clock);

  const int n = cfg.shard_count;
  ShardMap map = ShardMap::Hash(static_cast<size_t>(cfg.num_tables), n);
  LogShipper shipper(cfg.epoch_size, cfg.retention);
  shipper.SetShardMap(&map);
  std::vector<std::unique_ptr<SegmentStore>> stores;
  if (!OpenStores(cfg, &stores)) return 2;
  std::vector<std::unique_ptr<EpochChannel>> channels;
  std::vector<EpochChannel*> raw;
  for (int s = 0; s < n; ++s) {
    shipper.AttachShardSegmentStore(s, stores[s].get());
    channels.push_back(std::make_unique<EpochChannel>());
    raw.push_back(channels.back().get());
    shipper.AttachShardChannel(s, raw.back());
  }
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  std::unique_ptr<ShardedBackup> backup =
      MakeShardedAetsBackup(&catalog, &map, raw, ReplayOptions(cfg));
  for (int s = 0; s < n; ++s) {
    backup->SetShardEpochSource(s, shipper.shard_source(s));
  }
  if (!backup->Start().ok()) return 2;
  auto replay_error = [&]() -> Status {
    for (int s = 0; s < n; ++s) {
      Status st = LaneReplayer(backup.get(), s)->error();
      if (!st.ok()) return st;
    }
    return Status::OK();
  };

  // Disk budget: the shipper's trigger (fired on this thread, inside
  // OnCommit/FlushEpoch) flags the over-budget lane; the driver consumes the
  // flag at one deterministic point per txn (below), so paced and unpaced
  // runs checkpoint and truncate at identical epochs.
  std::vector<bool> over_budget(static_cast<size_t>(n), false);
  shipper.SetCheckpointTrigger(
      [&](int shard, EpochId, uint64_t) { over_budget[shard] = true; });

  // The epoch table, harvested incrementally: truncation deletes the oldest
  // durable epochs, so the (id, ts) rows digest mode prints are collected
  // BEFORE each truncation and completed after Finish. The digests
  // themselves still come from the fully caught-up backup at the very end
  // (valid at historical timestamps: the replay store runs no GC).
  std::vector<std::pair<EpochId, Timestamp>> epoch_table;
  EpochId harvested = 0;
  auto harvest = [&]() {
    EpochId limit = stores[0]->next_epoch();
    for (int s = 1; s < n; ++s) {
      limit = std::min(limit, stores[s]->next_epoch());
    }
    for (EpochId id = harvested; id < limit; ++id) {
      bool has_data = false;
      Timestamp ts = kInvalidTimestamp;
      for (int s = 0; s < n; ++s) {
        auto epoch = stores[s]->Read(id);
        if (!epoch || epoch->is_heartbeat()) continue;
        has_data = true;
        ts = std::max(ts, epoch->max_commit_ts);
      }
      if (has_data) epoch_table.emplace_back(id, ts);
    }
    harvested = std::max(harvested, limit);
  };

  // One checkpoint routine per lane, for the --ckpt_every cadence and the
  // budget trigger alike: seal the open epoch, wait for the backup to catch
  // up, image the quiesced lane, and rotate old images. A budget checkpoint
  // (`truncate`) also deletes the lane's durable log below the image
  // (PruneCheckpoints keeps the floor image regardless of count). The
  // single-threaded driver guarantees no epoch ships between the watermark
  // check and the checkpoint write.
  auto checkpoint_lane = [&](int s, bool truncate, int txns) -> Status {
    shipper.FlushEpoch();
    while (replay_error().ok() &&
           backup->GlobalVisibleTs() < primary.last_commit_ts()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Status st = replay_error();
    if (!st.ok()) return st;
    AetsReplayer* lane = LaneReplayer(backup.get(), s);
    const std::string dir = LaneDir(cfg, s);
    EpochId floor = lane->next_expected_epoch();
    st = lane->WriteLiveCheckpoint(CheckpointPathFor(dir, floor));
    if (!st.ok()) return st;
    if (truncate) {
      harvest();  // the epochs below the new floor leave the disk now
      st = stores[s]->TruncateBelow(floor);
      if (!st.ok()) return st;
    }
    PruneCheckpoints(dir, cfg.keep_ckpts, stores[s]->first_epoch());
    if (truncate) {
      std::printf("TRUNC shard=%d floor=%" PRIu64 " first=%" PRIu64
                  " deleted=%" PRIu64 " reclaimed=%" PRIu64 " disk=%" PRIu64
                  " rss_kb=%ld txns=%d\n",
                  s, static_cast<uint64_t>(floor),
                  static_cast<uint64_t>(stores[s]->first_epoch()),
                  stores[s]->segments_deleted(), stores[s]->bytes_reclaimed(),
                  stores[s]->disk_bytes(), ReadRssKb(), txns);
    } else {
      std::printf("CKPT shard=%d floor=%" PRIu64 " txns=%d\n", s,
                  static_cast<uint64_t>(floor), txns);
    }
    std::fflush(stdout);
    return Status::OK();
  };

  uint64_t max_disk = 0;
  Rng rng{cfg.seed};
  std::vector<std::set<int64_t>> live(cfg.num_tables);
  Status failed;
  for (int i = 1; i <= cfg.num_txns && failed.ok(); ++i) {
    ApplyOneTxn(&primary, &rng, cfg.num_tables, &live, i);
    if (cfg.disk_budget > 0) {
      for (const auto& store : stores) {
        max_disk = std::max(max_disk, store->disk_bytes());
      }
    }
    if (paced && i % cfg.batch == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(cfg.pause_us));
    }
    if (i % cfg.ckpt_every == 0) {
      // Flush in BOTH modes: epoch boundaries are part of the deterministic
      // stream, and the reference digest table must place them exactly where
      // the killed run did.
      shipper.FlushEpoch();
    }
    // Budget checkpoints run in BOTH paced and digest modes — the trigger
    // fires at a deterministic txn index, so the reference stream must incur
    // the same extra flush. Cadence checkpoints (run mode, no budget) follow
    // the flush above and leave the stream untouched.
    const bool cadence =
        paced && cfg.disk_budget == 0 && i % cfg.ckpt_every == 0;
    for (int s = 0; s < n && failed.ok(); ++s) {
      const bool truncate = over_budget[s];
      if (!truncate && !cadence) continue;
      over_budget[s] = false;
      failed = checkpoint_lane(s, truncate, i);
    }
  }
  shipper.Finish();
  backup->Stop();
  if (failed.ok()) failed = replay_error();
  if (!failed.ok()) {
    std::fprintf(stderr, "run failed: %s\n", failed.ToString().c_str());
    return 2;
  }

  // The epoch table (digest mode prints it; run mode prints FINAL only,
  // used when the gauntlet's kill misses and the run completes). An epoch
  // counts as data if any lane carries transactions; the snapshot timestamp
  // is the full-epoch max every lane header carries, and the digest combines
  // each table's state from its owning lane.
  harvest();
  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  for (const auto& [id, ts] : epoch_table) {
    if (cfg.mode == "digest") {
      std::printf("EPOCH %" PRIu64 " %" PRIu64 " %016" PRIx64 "\n",
                  static_cast<uint64_t>(id), static_cast<uint64_t>(ts),
                  ReplicaDigestAt(backup.get(), &catalog, ts));
    }
    last_data = id;
    last_ts = ts;
  }
  uint64_t truncations = 0;
  uint64_t reclaimed = 0;
  for (const auto& store : stores) {
    truncations += store->truncations();
    reclaimed += store->bytes_reclaimed();
  }
  std::printf("FINAL %" PRIu64 " %" PRIu64 " %016" PRIx64 " spills=%" PRIu64
              " produced=%" PRIu64 " covered=%" PRIu64 " truncations=%" PRIu64
              " reclaimed=%" PRIu64 " max_disk=%" PRIu64 " budget=%" PRIu64
              "\n",
              static_cast<uint64_t>(last_data),
              static_cast<uint64_t>(last_ts),
              ReplicaDigestAt(backup.get(), &catalog, last_ts),
              shipper.epochs_spilled(), shipper.epochs_produced(),
              shipper.spills_below_floor(), truncations, reclaimed, max_disk,
              cfg.disk_budget);
  std::fflush(stdout);
  return 0;
}

// Picks lane `s`'s bootstrap image: the newest checkpoint that restores
// cleanly and bridges the lane's durable log. An image ahead of the log (a
// chaos-truncated segment tail) would fake epochs the log cannot replay; an
// image below the truncation floor cannot reach the surviving tail (the
// epochs in between were deleted under a NEWER image's coverage). Returns ""
// when no image qualifies.
std::string PickImage(const Catalog& catalog, const std::string& dir,
                      const SegmentStore& store, int s) {
  for (const std::string& ckpt : ListCheckpointFiles(dir)) {
    TableStore scratch(catalog);
    auto info = Checkpointer::Restore(ckpt, &scratch);
    if (!info.ok()) {
      std::fprintf(stderr, "shard %d checkpoint %s rejected: %s\n", s,
                   ckpt.c_str(), info.status().ToString().c_str());
    } else if (info->next_epoch_id > store.next_epoch()) {
      std::fprintf(stderr,
                   "shard %d checkpoint %s ahead of durable log, skipping\n",
                   s, ckpt.c_str());
    } else if (info->next_epoch_id < store.first_epoch()) {
      std::fprintf(
          stderr,
          "shard %d checkpoint %s below truncation floor %llu, skipping\n", s,
          ckpt.c_str(), static_cast<unsigned long long>(store.first_epoch()));
    } else {
      return ckpt;
    }
  }
  return "";
}

// What the ORACLE and RECOVERED lines collect over the lanes.
struct RecoveryTotals {
  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  uint64_t tail = 0;
  uint64_t torn = 0;
  size_t rows = 0;
};

// Recovers lane `s` in place and checks it. The lane bootstraps from the
// newest image that bridges its durable log (no image means a cold replay
// from epoch 0 — only legal while the log still starts there). Its channel
// is closed, so Start() + Stop() drives the normal closed-channel gap pass:
// every epoch in [boot, next_epoch) is fetched from disk through the lane's
// DurableEpochSource and replayed through the regular two-stage loop. Then a ReferenceModel is rebuilt from
// the same durable log (a second implementation of the storage semantics;
// the lane's log plus its image is a complete history of its own tables)
// and the lane must match it row for row. Data epochs below `complete` (the
// first id some lane lacks) feed the last-data bookkeeping.
bool RecoverLane(const Config& cfg, const Catalog& catalog, int s,
                 EpochId complete, SegmentStore* store, AetsReplayer* lane,
                 RecoveryTotals* totals) {
  std::string image = PickImage(catalog, LaneDir(cfg, s), *store, s);
  if (!image.empty()) {
    Status st = lane->Bootstrap(image);
    if (!st.ok()) {
      std::fprintf(stderr, "shard %d bootstrap %s: %s\n", s, image.c_str(),
                   st.ToString().c_str());
      return false;
    }
    std::printf("BOOTSTRAP shard=%d %s epoch=%" PRIu64 "\n", s, image.c_str(),
                static_cast<uint64_t>(lane->next_expected_epoch()));
  } else if (store->first_epoch() > 0) {
    std::fprintf(stderr,
                 "shard %d unrecoverable: durable log starts at epoch %llu "
                 "(truncated) and no checkpoint image bridges it\n",
                 s, static_cast<unsigned long long>(store->first_epoch()));
    return false;
  }
  const EpochId boot = lane->next_expected_epoch();
  const Timestamp snapshot = lane->GlobalVisibleTs();

  if (!lane->Start().ok()) return false;
  lane->Stop();
  if (!lane->error().ok()) {
    std::fprintf(stderr, "shard %d recovery replay error: %s\n", s,
                 lane->error().ToString().c_str());
    return false;
  }

  // When the image covers epochs the log no longer holds, the model is
  // seeded from the bootstrapped store at the snapshot timestamp (still
  // valid after the tail replayed: the MVCC store keeps history and runs no
  // GC here) and replays only the tail — epochs still on disk below the
  // image's coverage are skipped by the model, exactly as recovery itself
  // skipped them.
  sim::ReferenceModel model(cfg.num_tables);
  if (boot > 0) {
    Status st = model.SeedFromStore(*lane->store(), snapshot, boot);
    if (!st.ok()) {
      std::fprintf(stderr, "shard %d model seed: %s\n", s,
                   st.ToString().c_str());
      return false;
    }
  }
  // The header-level history point: every data sub-epoch carries its FULL
  // epoch's max_commit_ts and a lane an epoch left untouched gets a
  // synthetic heartbeat at it, so the lane's watermark lands exactly here.
  Timestamp history = snapshot;
  for (EpochId id = store->first_epoch(); id < store->next_epoch(); ++id) {
    auto epoch = store->Read(id);
    if (!epoch) {
      std::fprintf(stderr, "shard %d durable epoch %llu unreadable\n", s,
                   static_cast<unsigned long long>(id));
      return false;
    }
    if (id >= boot) {
      Status st = model.Apply(*epoch);
      if (!st.ok()) {
        std::fprintf(stderr, "shard %d model apply: %s\n", s,
                     st.ToString().c_str());
        return false;
      }
    }
    if (epoch->is_heartbeat()) {
      history = std::max(history, epoch->heartbeat_ts);
      continue;
    }
    history = std::max(history, epoch->max_commit_ts);
    if (id < complete) {
      totals->last_data = std::max(totals->last_data, id);
      totals->last_ts = std::max(totals->last_ts, epoch->max_commit_ts);
    }
  }
  if (lane->GlobalVisibleTs() != history) {
    std::fprintf(stderr, "shard %d watermark %llu != durable history %llu\n",
                 s, static_cast<unsigned long long>(lane->GlobalVisibleTs()),
                 static_cast<unsigned long long>(history));
    return false;
  }
  // The lane model only sees the lane's own commits, so exactness is probed
  // at the lane's own history point: between it and the watermark the
  // lane's tables have no writes by construction.
  Status st = model.ExpectStoreExact(*lane->store(), model.MaxVisibleTs());
  if (!st.ok()) {
    std::fprintf(stderr, "shard %d: %s\n", s, st.ToString().c_str());
    return false;
  }
  totals->rows += lane->store()->VisibleRowCount(model.MaxVisibleTs());
  totals->tail += store->next_epoch() - boot;
  totals->torn += store->torn_frames_truncated();
  return true;
}

int RecoverMode(const Config& cfg) {
  Catalog catalog;
  FillCatalog(&catalog, cfg.num_tables);
  const int n = cfg.shard_count;
  ShardMap map = ShardMap::Hash(static_cast<size_t>(cfg.num_tables), n);
  std::vector<std::unique_ptr<SegmentStore>> stores;
  if (!OpenStores(cfg, &stores)) return 2;

  EpochChannel closed_channel;
  closed_channel.Close();
  std::vector<std::unique_ptr<DurableEpochSource>> sources;
  std::unique_ptr<ShardedBackup> backup = MakeShardedAetsBackup(
      &catalog, &map, std::vector<EpochChannel*>(n, &closed_channel),
      ReplayOptions(cfg));
  for (int s = 0; s < n; ++s) {
    sources.push_back(std::make_unique<DurableEpochSource>(stores[s].get()));
    backup->SetShardEpochSource(s, sources.back().get());
  }
  // A kill can land between two lanes' appends of one epoch: only ids every
  // lane holds form a consistent cross-lane cut.
  EpochId complete = stores[0]->next_epoch();
  EpochId floor = stores[0]->first_epoch();
  for (const auto& store : stores) {
    complete = std::min(complete, store->next_epoch());
    floor = std::min(floor, store->first_epoch());
  }
  RecoveryTotals totals;
  for (int s = 0; s < n; ++s) {
    if (!RecoverLane(cfg, catalog, s, complete, stores[s].get(),
                     LaneReplayer(backup.get(), s), &totals)) {
      return 2;
    }
  }
  std::printf("ORACLE exact rows=%zu shards=%d\n", totals.rows, n);
  std::printf("RECOVERED next_epoch=%" PRIu64 " last_data=%" PRIu64
              " ts=%" PRIu64 " digest=%016" PRIx64 " fetches=%" PRIu64
              " tail=%" PRIu64 " torn=%" PRIu64 " floor=%" PRIu64 "\n",
              static_cast<uint64_t>(complete),
              static_cast<uint64_t>(totals.last_data),
              static_cast<uint64_t>(totals.last_ts),
              ReplicaDigestAt(backup.get(), &catalog, totals.last_ts),
              CounterValue("segment.fetches_from_disk"), totals.tail,
              totals.torn, static_cast<uint64_t>(floor));
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s run|digest|recover --dir D [--seed N] [--txns N] "
                 "[--tables N] [--epoch_size N] [--batch N] [--pause_us N] "
                 "[--ckpt_every N] [--retention N] [--shard_count N] "
                 "[--disk_budget BYTES] [--keep_ckpts N]\n",
                 argv[0]);
    return 2;
  }
  cfg.mode = argv[1];
  // Flags win over the env knob (same precedence as the sim harness).
  if (const char* env = std::getenv("AETS_SHARD_COUNT")) {
    cfg.shard_count = std::atoi(env);
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--dir") cfg.dir = val;
    else if (flag == "--seed") cfg.seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--txns") cfg.num_txns = std::atoi(val);
    else if (flag == "--tables") cfg.num_tables = std::atoi(val);
    else if (flag == "--epoch_size") cfg.epoch_size = std::atoi(val);
    else if (flag == "--batch") cfg.batch = std::atoi(val);
    else if (flag == "--pause_us") cfg.pause_us = std::atoi(val);
    else if (flag == "--ckpt_every") cfg.ckpt_every = std::atoi(val);
    else if (flag == "--retention") cfg.retention = std::strtoull(val, nullptr, 10);
    else if (flag == "--shard_count") cfg.shard_count = std::atoi(val);
    else if (flag == "--disk_budget") cfg.disk_budget = std::strtoull(val, nullptr, 10);
    else if (flag == "--keep_ckpts") cfg.keep_ckpts = std::strtoull(val, nullptr, 10);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (cfg.dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 2;
  }
  cfg.shard_count = std::max(cfg.shard_count, 1);
  if (cfg.mode == "run") return RunMode(cfg, /*paced=*/true);
  if (cfg.mode == "digest") return RunMode(cfg, /*paced=*/false);
  if (cfg.mode == "recover") return RecoverMode(cfg);
  std::fprintf(stderr, "unknown mode %s\n", cfg.mode.c_str());
  return 2;
}
