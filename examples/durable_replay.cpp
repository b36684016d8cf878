// Durable replay driver: the crash-restart gauntlet's workhorse
// (DESIGN.md §10, scripts/crash_restart_gauntlet.sh,
// scripts/endurance_check.sh).
//
// Three modes over one seeded, fully deterministic workload (no wall-clock
// heartbeats — epoch ids and commit timestamps depend only on --seed):
//
//   run      Streams the workload through primary -> LogShipper (durable
//            segment tier attached, small RAM retention) -> AetsReplayer,
//            pacing itself so a kill -9 lands mid-stream, and writing live
//            checkpoints into the segment directory between epochs. The
//            gauntlet kills this process at a seeded random point.
//
//   digest   The uninterrupted reference: same pipeline run to completion,
//            then one line per data epoch
//                EPOCH <id> <max_commit_ts> <digest>
//            and a FINAL line. Digests are TableStore::DigestAt at each
//            epoch's max commit timestamp (valid historically: no GC here).
//
//   recover  Reopens the segment directory after a crash: SegmentStore::Open
//            truncates any torn tail, the newest restorable checkpoint
//            bootstraps a fresh replayer, and the segment tail replays
//            through the normal main loop via DurableEpochSource. Verifies
//            the recovered store against the sim oracle's ReferenceModel
//            (exact rows, not just a digest) and prints
//                RECOVERED next_epoch=<n> ts=<ts> digest=<d> fetches=<f>
//                          tail=<n> torn=<n> floor=<f>
//            for the gauntlet to match against the reference EPOCH table.
//
// With --disk_budget B > 0 the shipper's CheckpointTrigger fires whenever a
// lane's durable log exceeds B bytes; the driver then seals the open epoch,
// quiesces the backup, writes a live checkpoint image, truncates the durable
// log below it (SegmentStore::TruncateBelow), and rotates old images. Budget
// triggers land at deterministic txn indices (bytes appended are a pure
// function of the seed), so run and digest modes checkpoint and truncate at
// identical epochs and the reference EPOCH table — harvested incrementally
// before each truncation — still covers the whole history. Recovery then has
// to bridge the deleted prefix through the checkpoint image, which is the
// case the endurance gauntlet exists to prove.
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
#include "aets/replay/replayer_base.h"
#include "aets/replay/sharded_backup.h"
#include "aets/replication/durable_source.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"
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
  int ckpt_every = 3000;   // txns between live checkpoints (run mode)
  size_t retention = 16;   // RAM retention epochs: small, to force spills
  size_t segment_max_bytes = 256u << 10;  // small, to force rollovers
  // Backup shard count (DESIGN.md §11). 1 is the classic single-replayer
  // pipeline the crash gauntlet drives; N > 1 runs N in-process shards, each
  // with its own sub-epoch lane, segment directory (<dir>/shard<k>), and
  // NACK source, behind a ShardedBackup. Without a disk budget, sharded runs
  // skip live checkpoints (recovery is a cold per-shard replay of each
  // lane's durable log); with one, each shard checkpoints into its own
  // directory whenever its lane's log exceeds the budget.
  int shard_count = 1;
  // Per-lane durable-log budget in bytes (SegmentStoreOptions::
  // disk_budget_bytes). 0 disables truncation entirely — the pre-budget
  // behavior, which the classic gauntlet cases still exercise.
  uint64_t disk_budget = 0;
  // Checkpoint images kept per directory by PruneCheckpoints rotation (the
  // truncation-floor image is protected beyond this count).
  size_t keep_ckpts = 3;
};

std::string ShardDir(const std::string& dir, int shard) {
  return dir + "/shard" + std::to_string(shard);
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

AetsOptions ReplayOptions(int num_tables) {
  AetsOptions options;
  options.replay_threads = 2;
  options.commit_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates = std::vector<double>(num_tables, 1.0);
  return options;
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

int RunMode(const Config& cfg, bool paced) {
  Catalog catalog;
  FillCatalog(&catalog, cfg.num_tables);
  LogicalClock clock;
  PrimaryDb primary(&catalog, &clock);

  const int n = cfg.shard_count > 1 ? cfg.shard_count : 1;
  ShardMap map = ShardMap::Hash(static_cast<size_t>(cfg.num_tables), n);
  LogShipper shipper(cfg.epoch_size, cfg.retention);
  if (n > 1) shipper.SetShardMap(&map);

  std::vector<std::unique_ptr<SegmentStore>> stores;
  for (int s = 0; s < n; ++s) {
    auto store_or = SegmentStore::Open(
        StoreOptions(cfg, n == 1 ? cfg.dir : ShardDir(cfg.dir, s)));
    if (!store_or.ok()) {
      std::fprintf(stderr, "segment store: %s\n",
                   store_or.status().ToString().c_str());
      return 2;
    }
    stores.push_back(std::move(*store_or));
    if (n == 1) {
      shipper.AttachSegmentStore(stores.back().get());
    } else {
      shipper.AttachShardSegmentStore(s, stores.back().get());
    }
  }

  std::vector<std::unique_ptr<EpochChannel>> channels;
  std::vector<EpochChannel*> raw;
  for (int s = 0; s < n; ++s) {
    channels.push_back(std::make_unique<EpochChannel>());
    raw.push_back(channels.back().get());
    if (n == 1) {
      shipper.AttachChannel(raw.back());
    } else {
      shipper.AttachShardChannel(s, raw.back());
    }
  }
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  std::unique_ptr<AetsReplayer> single;
  std::unique_ptr<ShardedBackup> sharded;
  if (n == 1) {
    single = std::make_unique<AetsReplayer>(&catalog, raw[0],
                                            ReplayOptions(cfg.num_tables));
    single->SetEpochSource(&shipper);
    if (!single->Start().ok()) return 2;
  } else {
    AetsOptions base = ReplayOptions(cfg.num_tables);
    base.replay_threads = std::max(base.replay_threads, n);
    base.commit_threads = std::max(base.commit_threads, n);
    sharded = MakeShardedAetsBackup(&catalog, &map, raw, base);
    for (int s = 0; s < n; ++s) {
      sharded->SetShardEpochSource(s, shipper.shard_source(s));
    }
    if (!sharded->Start().ok()) return 2;
  }
  Replayer* backup =
      n == 1 ? static_cast<Replayer*>(single.get()) : sharded.get();
  auto replay_error = [&]() -> Status {
    if (n == 1) return single->error();
    for (int s = 0; s < n; ++s) {
      Status st = dynamic_cast<ReplayerBase*>(sharded->shard(s))->error();
      if (!st.ok()) return st;
    }
    return Status::OK();
  };
  auto replayer_for = [&](int s) -> AetsReplayer* {
    return n == 1 ? single.get()
                  : dynamic_cast<AetsReplayer*>(sharded->shard(s));
  };

  // Disk budget: the shipper's trigger marks the over-budget lane's backup;
  // the driver consumes the mark at one deterministic point per txn (below),
  // so paced and unpaced runs checkpoint and truncate at identical epochs.
  if (cfg.disk_budget > 0) {
    shipper.SetCheckpointTrigger([&](int shard, EpochId, uint64_t) {
      replayer_for(shard)->RequestCheckpoint();
    });
  }

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

  uint64_t max_disk = 0;
  Rng rng{cfg.seed};
  std::vector<std::set<int64_t>> live(cfg.num_tables);
  for (int i = 1; i <= cfg.num_txns; ++i) {
    ApplyOneTxn(&primary, &rng, cfg.num_tables, &live, i);
    if (cfg.disk_budget > 0) {
      for (int s = 0; s < n; ++s) {
        max_disk = std::max(max_disk, stores[s]->disk_bytes());
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
    if (cfg.disk_budget > 0) {
      for (int s = 0; s < n; ++s) {
        if (!replayer_for(s)->TakeCheckpointRequest()) continue;
        // Budget checkpoint: seal the open epoch, wait for the backup to
        // catch up, image the quiesced shard, truncate its durable log
        // below the image, and rotate old images (PruneCheckpoints keeps
        // the floor image regardless of count). Runs in BOTH paced and
        // digest modes — the trigger fires at a deterministic txn index,
        // so the reference stream must incur the same extra flush.
        shipper.FlushEpoch();
        while (replay_error().ok() &&
               backup->GlobalVisibleTs() < primary.last_commit_ts()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (!replay_error().ok()) break;
        harvest();  // the epochs below the new floor leave the disk now
        AetsReplayer* ar = replayer_for(s);
        const std::string cdir = n == 1 ? cfg.dir : ShardDir(cfg.dir, s);
        EpochId floor = ar->next_expected_epoch();
        Status cs = ar->WriteLiveCheckpoint(CheckpointPathFor(cdir, floor));
        if (!cs.ok()) {
          std::fprintf(stderr, "budget checkpoint: %s\n",
                       cs.ToString().c_str());
          return 2;
        }
        Status trunc = stores[s]->TruncateBelow(floor);
        if (!trunc.ok()) {
          std::fprintf(stderr, "truncate: %s\n", trunc.ToString().c_str());
          return 2;
        }
        PruneCheckpoints(cdir, cfg.keep_ckpts, stores[s]->first_epoch());
        std::printf("TRUNC shard=%d floor=%" PRIu64 " first=%" PRIu64
                    " deleted=%" PRIu64 " reclaimed=%" PRIu64 " disk=%" PRIu64
                    " rss_kb=%ld txns=%d\n",
                    s, static_cast<uint64_t>(floor),
                    static_cast<uint64_t>(stores[s]->first_epoch()),
                    stores[s]->segments_deleted(),
                    stores[s]->bytes_reclaimed(), stores[s]->disk_bytes(),
                    ReadRssKb(), i);
        std::fflush(stdout);
      }
    }
    if (paced && i % cfg.ckpt_every == 0 && n == 1 && cfg.disk_budget == 0) {
      // Quiesce: the epoch is sealed, wait for the backup to catch up, then
      // snapshot the live backup. The single-threaded driver guarantees no
      // epoch ships between the watermark check and the checkpoint write.
      // (With a disk budget the trigger path above owns the checkpoint
      // cadence instead; without one, sharded runs skip live checkpoints:
      // recovery cold-replays each lane.)
      while (replay_error().ok() &&
             backup->GlobalVisibleTs() < primary.last_commit_ts()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!replay_error().ok()) break;
      std::string path =
          CheckpointPathFor(cfg.dir, single->next_expected_epoch());
      Status s = single->WriteLiveCheckpoint(path);
      if (!s.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
        return 2;
      }
      PruneCheckpoints(cfg.dir, cfg.keep_ckpts);
      std::printf("CKPT %" PRIu64 " txns=%d\n",
                  static_cast<uint64_t>(single->next_expected_epoch()), i);
      std::fflush(stdout);
    }
  }
  shipper.Finish();
  backup->Stop();
  if (!replay_error().ok()) {
    std::fprintf(stderr, "replay error: %s\n",
                 replay_error().ToString().c_str());
    return 2;
  }

  // The epoch table (digest mode prints it; run mode prints FINAL only,
  // used when the gauntlet's kill misses and the run completes). An epoch
  // counts as data if any lane carries transactions; the snapshot timestamp
  // is the full-epoch max every lane header carries, and the digest combines
  // each table's state from its owning shard (identical to the single-store
  // digest when n == 1).
  harvest();
  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  for (const auto& [id, ts] : epoch_table) {
    if (cfg.mode == "digest") {
      std::printf("EPOCH %" PRIu64 " %" PRIu64 " %016" PRIx64 "\n",
                  static_cast<uint64_t>(id), static_cast<uint64_t>(ts),
                  ReplicaDigestAt(backup, &catalog, ts));
    }
    last_data = id;
    last_ts = ts;
  }
  uint64_t truncations = 0;
  uint64_t reclaimed = 0;
  for (int s = 0; s < n; ++s) {
    truncations += stores[s]->truncations();
    reclaimed += stores[s]->bytes_reclaimed();
  }
  std::printf("FINAL %" PRIu64 " %" PRIu64 " %016" PRIx64 " spills=%" PRIu64
              " produced=%" PRIu64 " covered=%" PRIu64 " truncations=%" PRIu64
              " reclaimed=%" PRIu64 " max_disk=%" PRIu64 " budget=%" PRIu64
              "\n",
              static_cast<uint64_t>(last_data),
              static_cast<uint64_t>(last_ts),
              ReplicaDigestAt(backup, &catalog, last_ts),
              shipper.epochs_spilled(), shipper.epochs_produced(),
              shipper.spills_below_floor(), truncations, reclaimed, max_disk,
              cfg.disk_budget);
  std::fflush(stdout);
  return 0;
}

// Sharded restart: reopen each shard's segment directory, bootstrap each
// lane from the newest checkpoint image that bridges its (possibly
// truncated) durable log, replay every lane's tail through its own
// DurableEpochSource behind a ShardedBackup, and verify each shard
// row-for-row against a per-lane ReferenceModel (a lane's durable log plus
// its image is a complete history of its own tables, so the lane model and
// the shard store must agree exactly).
int RecoverShardedMode(const Config& cfg) {
  Catalog catalog;
  FillCatalog(&catalog, cfg.num_tables);
  const int n = cfg.shard_count;
  ShardMap map = ShardMap::Hash(static_cast<size_t>(cfg.num_tables), n);

  std::vector<std::unique_ptr<SegmentStore>> stores;
  for (int s = 0; s < n; ++s) {
    auto store_or = SegmentStore::Open(StoreOptions(cfg, ShardDir(cfg.dir, s)));
    if (!store_or.ok()) {
      std::fprintf(stderr, "segment store shard %d: %s\n", s,
                   store_or.status().ToString().c_str());
      return 2;
    }
    stores.push_back(std::move(*store_or));
  }

  EpochChannel closed_channel;
  closed_channel.Close();
  std::vector<std::unique_ptr<Replayer>> shards;
  std::vector<EpochId> boot(static_cast<size_t>(n), 0);
  std::vector<Timestamp> snapshot(static_cast<size_t>(n), kInvalidTimestamp);
  for (int s = 0; s < n; ++s) {
    std::unique_ptr<AetsReplayer> shard;
    for (const std::string& ckpt : ListCheckpointFiles(ShardDir(cfg.dir, s))) {
      auto candidate = std::make_unique<AetsReplayer>(
          &catalog, &closed_channel, ReplayOptions(cfg.num_tables));
      Status st = candidate->Bootstrap(ckpt);
      if (!st.ok()) {
        std::fprintf(stderr, "shard %d checkpoint %s rejected: %s\n", s,
                     ckpt.c_str(), st.ToString().c_str());
        continue;
      }
      if (candidate->next_expected_epoch() > stores[s]->next_epoch()) {
        std::fprintf(stderr,
                     "shard %d checkpoint %s ahead of durable log, skipping\n",
                     s, ckpt.c_str());
        continue;
      }
      if (candidate->next_expected_epoch() < stores[s]->first_epoch()) {
        std::fprintf(
            stderr,
            "shard %d checkpoint %s below truncation floor %llu, skipping\n",
            s, ckpt.c_str(),
            static_cast<unsigned long long>(stores[s]->first_epoch()));
        continue;
      }
      shard = std::move(candidate);
      boot[s] = shard->next_expected_epoch();
      snapshot[s] = shard->GlobalVisibleTs();
      std::printf("BOOTSTRAP shard=%d %s epoch=%" PRIu64 "\n", s,
                  ckpt.c_str(), static_cast<uint64_t>(boot[s]));
      break;
    }
    if (!shard) {
      if (stores[s]->first_epoch() > 0) {
        std::fprintf(stderr,
                     "shard %d unrecoverable: durable log starts at epoch "
                     "%llu (truncated) and no checkpoint image bridges it\n",
                     s,
                     static_cast<unsigned long long>(stores[s]->first_epoch()));
        return 2;
      }
      shard = std::make_unique<AetsReplayer>(&catalog, &closed_channel,
                                             ReplayOptions(cfg.num_tables));
    }
    shards.push_back(std::move(shard));
  }
  ShardedBackup backup(&map, std::move(shards));
  std::vector<std::unique_ptr<DurableEpochSource>> sources;
  for (int s = 0; s < n; ++s) {
    sources.push_back(std::make_unique<DurableEpochSource>(stores[s].get()));
    backup.SetShardEpochSource(s, sources.back().get());
  }
  if (!backup.Start().ok()) return 2;
  backup.Stop();

  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  EpochId floor = 0;
  uint64_t tail = 0;
  uint64_t torn = 0;
  size_t rows = 0;
  for (int s = 0; s < n; ++s) {
    auto* shard = dynamic_cast<ReplayerBase*>(backup.shard(s));
    if (!shard->error().ok()) {
      std::fprintf(stderr, "shard %d recovery replay error: %s\n", s,
                   shard->error().ToString().c_str());
      return 2;
    }
    sim::ReferenceModel model(cfg.num_tables);
    if (boot[s] > 0) {
      // The oracle cannot replay epochs truncation deleted: seed it from
      // the bootstrapped image (its own second opinion of
      // Checkpointer::Restore) and replay only the tail the image misses.
      Status st = model.SeedFromStore(*shard->store(), snapshot[s], boot[s]);
      if (!st.ok()) {
        std::fprintf(stderr, "shard %d model seed: %s\n", s,
                     st.ToString().c_str());
        return 2;
      }
    }
    for (EpochId id = stores[s]->first_epoch(); id < stores[s]->next_epoch();
         ++id) {
      auto epoch = stores[s]->Read(id);
      if (!epoch) {
        std::fprintf(stderr, "durable epoch %llu unreadable (shard %d)\n",
                     static_cast<unsigned long long>(id), s);
        return 2;
      }
      if (id >= boot[s]) {
        Status st = model.Apply(*epoch);
        if (!st.ok()) {
          std::fprintf(stderr, "shard %d model apply: %s\n", s,
                       st.ToString().c_str());
          return 2;
        }
      }
      if (!epoch->is_heartbeat()) {
        last_data = std::max(last_data, id);
        last_ts = std::max(last_ts, epoch->max_commit_ts);
      }
    }
    // The lane model only sees the lane's own commits; the sub-epoch header
    // carries the FULL epoch's max_commit_ts, so the shard watermark may
    // legitimately sit past the lane's last commit (never short of it). The
    // exactness probe reads at the lane's own history point — between it and
    // the watermark the lane's tables have no writes by construction.
    Timestamp watermark = shard->GlobalVisibleTs();
    if (model.MaxVisibleTs() != kInvalidTimestamp) {
      if (watermark < model.MaxVisibleTs()) {
        std::fprintf(stderr,
                     "shard %d watermark %llu short of durable history %llu\n",
                     s, static_cast<unsigned long long>(watermark),
                     static_cast<unsigned long long>(model.MaxVisibleTs()));
        return 2;
      }
      Status st = model.ExpectStoreExact(*shard->store(), model.MaxVisibleTs());
      if (!st.ok()) {
        std::fprintf(stderr, "shard %d: %s\n", s, st.ToString().c_str());
        return 2;
      }
      rows += shard->store()->VisibleRowCount(model.MaxVisibleTs());
    }
    floor = s == 0 ? stores[s]->first_epoch()
                   : std::min(floor, stores[s]->first_epoch());
    tail += stores[s]->next_epoch() - boot[s];
    torn += stores[s]->torn_frames_truncated();
  }
  std::printf("ORACLE exact rows=%zu shards=%d\n", rows, n);
  std::printf("RECOVERED next_epoch=%" PRIu64 " last_data=%" PRIu64
              " ts=%" PRIu64 " digest=%016" PRIx64 " fetches=%" PRIu64
              " tail=%" PRIu64 " torn=%" PRIu64 " floor=%" PRIu64 "\n",
              static_cast<uint64_t>(stores[0]->next_epoch()),
              static_cast<uint64_t>(last_data),
              static_cast<uint64_t>(last_ts),
              ReplicaDigestAt(&backup, &catalog, last_ts),
              CounterValue("segment.fetches_from_disk"), tail, torn,
              static_cast<uint64_t>(floor));
  std::fflush(stdout);
  return 0;
}

int RecoverMode(const Config& cfg) {
  if (cfg.shard_count > 1) return RecoverShardedMode(cfg);
  Catalog catalog;
  FillCatalog(&catalog, cfg.num_tables);

  auto store_or = SegmentStore::Open(StoreOptions(cfg, cfg.dir));
  if (!store_or.ok()) {
    std::fprintf(stderr, "segment store: %s\n",
                 store_or.status().ToString().c_str());
    return 2;
  }
  SegmentStore& store = **store_or;

  // Newest restorable checkpoint wins; a corrupt image falls back to the
  // next older one. No image at all means a cold replay from epoch 0 — only
  // legal while the log still starts there; once truncation has raised the
  // floor, an image bridging [floor's coverage] is the only way back.
  DurableEpochSource source(&store);
  std::unique_ptr<AetsReplayer> backup;
  EpochChannel closed_channel;
  closed_channel.Close();
  EpochId bootstrapped_at = 0;
  Timestamp snapshot_ts = kInvalidTimestamp;
  for (const std::string& ckpt : ListCheckpointFiles(cfg.dir)) {
    auto candidate = std::make_unique<AetsReplayer>(
        &catalog, &closed_channel, ReplayOptions(cfg.num_tables));
    Status s = candidate->Bootstrap(ckpt);
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint %s rejected: %s\n", ckpt.c_str(),
                   s.ToString().c_str());
      continue;
    }
    if (candidate->next_expected_epoch() > store.next_epoch()) {
      // The image is ahead of the durable log (a chaos-truncated segment
      // tail): restoring it would fake epochs the log cannot replay. Fall
      // back to an older image that the log covers.
      std::fprintf(stderr, "checkpoint %s ahead of durable log, skipping\n",
                   ckpt.c_str());
      continue;
    }
    if (candidate->next_expected_epoch() < store.first_epoch()) {
      // The image predates the truncation floor: the epochs between its
      // coverage and the log's first surviving segment were deleted under a
      // NEWER image's coverage, so this one cannot bridge to the tail.
      std::fprintf(stderr,
                   "checkpoint %s below truncation floor %llu, skipping\n",
                   ckpt.c_str(),
                   static_cast<unsigned long long>(store.first_epoch()));
      continue;
    }
    backup = std::move(candidate);
    bootstrapped_at = backup->next_expected_epoch();
    snapshot_ts = backup->GlobalVisibleTs();
    std::printf("BOOTSTRAP %s epoch=%" PRIu64 "\n", ckpt.c_str(),
                static_cast<uint64_t>(bootstrapped_at));
    break;
  }
  if (!backup) {
    if (store.first_epoch() > 0) {
      std::fprintf(stderr,
                   "unrecoverable: durable log starts at epoch %llu "
                   "(truncated) and no checkpoint image bridges it\n",
                   static_cast<unsigned long long>(store.first_epoch()));
      return 2;
    }
    backup = std::make_unique<AetsReplayer>(&catalog, &closed_channel,
                                            ReplayOptions(cfg.num_tables));
  }

  // The channel is already closed, so Start() + Stop() drives the normal
  // closed-channel gap pass: every epoch in [bootstrapped_at,
  // store.next_epoch()) is fetched from disk and replayed through the
  // regular two-stage loop.
  backup->SetEpochSource(&source);
  if (!backup->Start().ok()) return 2;
  backup->Stop();
  if (!backup->error().ok()) {
    std::fprintf(stderr, "recovery replay error: %s\n",
                 backup->error().ToString().c_str());
    return 2;
  }

  // Exactness probe: rebuild the reference history from the durable log
  // (the model is a second implementation of the storage semantics) and
  // demand the recovered store match it row for row at the watermark. When
  // the image covers epochs the log no longer holds, the model is seeded
  // from the bootstrapped store at the snapshot timestamp (still valid
  // after the tail replayed: the MVCC store keeps history and runs no GC
  // here) and replays only the tail — epochs still on disk below the
  // image's coverage are scanned for the last-data bookkeeping but skipped
  // by the model, exactly as recovery itself skipped them.
  sim::ReferenceModel model(cfg.num_tables);
  if (bootstrapped_at > 0) {
    Status s = model.SeedFromStore(*backup->store(), snapshot_ts,
                                   bootstrapped_at);
    if (!s.ok()) {
      std::fprintf(stderr, "model seed: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  Timestamp last_ts = kInvalidTimestamp;
  EpochId last_data = 0;
  for (EpochId id = store.first_epoch(); id < store.next_epoch(); ++id) {
    auto epoch = store.Read(id);
    if (!epoch) {
      std::fprintf(stderr, "durable epoch %llu unreadable\n",
                   static_cast<unsigned long long>(id));
      return 2;
    }
    if (id >= bootstrapped_at) {
      Status s = model.Apply(*epoch);
      if (!s.ok()) {
        std::fprintf(stderr, "model apply: %s\n", s.ToString().c_str());
        return 2;
      }
    }
    if (!epoch->is_heartbeat()) {
      last_data = id;
      last_ts = epoch->max_commit_ts;
    }
  }
  Timestamp watermark = backup->GlobalVisibleTs();
  if (last_ts != kInvalidTimestamp || bootstrapped_at > 0) {
    if (watermark != model.MaxVisibleTs()) {
      std::fprintf(stderr,
                   "watermark %llu short of durable history %llu\n",
                   static_cast<unsigned long long>(watermark),
                   static_cast<unsigned long long>(model.MaxVisibleTs()));
      return 2;
    }
    Status s = model.ExpectStoreExact(*backup->store(), watermark);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("ORACLE exact rows=%zu\n",
                backup->store()->VisibleRowCount(watermark));
  }

  std::printf("RECOVERED next_epoch=%" PRIu64 " last_data=%" PRIu64
              " ts=%" PRIu64 " digest=%016" PRIx64 " fetches=%" PRIu64
              " tail=%" PRIu64 " torn=%" PRIu64 " floor=%" PRIu64 "\n",
              static_cast<uint64_t>(store.next_epoch()),
              static_cast<uint64_t>(last_data),
              static_cast<uint64_t>(last_ts),
              backup->store()->DigestAt(last_ts),
              CounterValue("segment.fetches_from_disk"),
              static_cast<uint64_t>(store.next_epoch() - bootstrapped_at),
              store.torn_frames_truncated(),
              static_cast<uint64_t>(store.first_epoch()));
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
  if (cfg.mode == "run") return RunMode(cfg, /*paced=*/true);
  if (cfg.mode == "digest") return RunMode(cfg, /*paced=*/false);
  if (cfg.mode == "recover") return RecoverMode(cfg);
  std::fprintf(stderr, "unknown mode %s\n", cfg.mode.c_str());
  return 2;
}
