#ifndef AETS_REPLICATION_LOG_SHIPPER_H_
#define AETS_REPLICATION_LOG_SHIPPER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "aets/catalog/shard_map.h"
#include "aets/common/clock.h"
#include "aets/log/epoch.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"
#include "aets/replication/channel.h"
#include "aets/replication/epoch_source.h"
#include "aets/storage/segment_store.h"

namespace aets {

/// Batches the primary's committed transactions into epochs, encodes each
/// sealed epoch, and fans it out to every attached backup channel (paper
/// Section III-B: epochs are sealed on transaction boundaries and shipped in
/// commit order).
///
/// Sealing rule: an epoch is sealed once it holds `epoch_size` transactions
/// or, while heartbeats run, once it has been open for the heartbeat
/// interval — whichever comes first. So an epoch never waits longer than one
/// interval to fill (SiloR-style time-bounded epochs). When nothing is open
/// and no commit or heartbeat happened for an interval, the heartbeat
/// thread ships a heartbeat epoch so the backups' global_cmt_ts keeps
/// advancing (paper Section V-B). Without StartHeartbeats sealing is
/// size-only plus explicit FlushEpoch/ShipHeartbeat calls.
///
/// The default interval, kDefaultHeartbeatIntervalUs = 10 ms, deliberately
/// departs from the paper's 50 ms heartbeat. A live sweep of the bound
/// (EXPERIMENTS.md, "Freshness bound") shows steady-state visibility delay
/// falling with the bound, about 5× from 50 ms to 10 ms, because epoch fill
/// time was most of it; burst epochs still fill to `epoch_size` by size. At
/// 5 ms and below per-epoch replay overhead shows instead: burst replay
/// throughput drops and steady-state CPU rises. Costs of the shorter
/// interval: an idle primary ships 100 heartbeats/s (one durable frame each
/// on every segment lane), and the 128-epoch NACK retention covers ~1.3 s
/// of a steady stream instead of ~6.4 s (burst memory is unchanged: burst
/// epochs still hold `epoch_size` transactions).
///
/// Sharded replication (DESIGN.md §11): with a ShardMap installed the
/// shipper routes every sealed epoch through N per-shard lanes. Each lane
/// carries a *sub-epoch* — the same epoch id, holding exactly the
/// transactions (trimmed to this shard's DML records) that touch the
/// shard's tables. A shard untouched by an epoch receives a synthetic
/// heartbeat at the epoch's max commit timestamp instead, so every lane
/// observes the full, gapless epoch id sequence and every shard's
/// watermarks keep pace with the primary. Data sub-epochs carry the FULL
/// epoch's max_commit_ts so quiet tables and the per-shard global
/// watermark advance as far as the unsharded stream would. Without a
/// ShardMap there is exactly one lane and the wire stream is byte-identical
/// to the pre-sharding shipper.
///
/// Fault tolerance: every delivered epoch (heartbeats included) is kept in a
/// bounded retention buffer — one buffer whose entries hold all N per-shard
/// sub-epochs, serving N independent NACK streams through shard_source(i).
/// Epochs rejected by every channel of a lane (closed link) are counted as
/// dropped on that lane, not shipped; the conservation invariant is
/// `epochs_produced() == epochs_shipped() + epochs_dropped()`, where each
/// accessor sums its per-lane counter over all shards.
class LogShipper : public EpochSource {
 public:
  /// The one freshness bound: the age at which the heartbeat thread seals
  /// an open epoch, and the idle gap after which it ships a heartbeat.
  static constexpr int64_t kDefaultHeartbeatIntervalUs = 10'000;

  /// Invoked (outside the shipper lock) when a lane's segment store first
  /// exceeds its disk_budget_bytes: `shard` is the over-budget lane,
  /// `next_epoch_id` the id the next epoch will carry, `disk_bytes` the
  /// lane's footprint at the moment it tripped. The receiver is expected to
  /// checkpoint that shard's backup and call SegmentStore::TruncateBelow;
  /// the trigger re-arms only once the store drops back under budget, so a
  /// slow checkpointer sees one request per over-budget episode, not one
  /// per epoch.
  using CheckpointTrigger =
      std::function<void(int shard, EpochId next_epoch_id,
                         uint64_t disk_bytes)>;

  /// `retention_capacity` bounds the NACK window: a backup that falls more
  /// than this many epochs behind can no longer recover a loss and must
  /// re-bootstrap from a checkpoint.
  explicit LogShipper(size_t epoch_size, size_t retention_capacity = 128);
  ~LogShipper() override;

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// Installs the table→shard partition and sizes the per-shard lanes. Must
  /// be called before any channel/segment-store attach and before the first
  /// epoch ships; `map` must outlive the shipper. Without this call the
  /// shipper runs unsharded (one lane, legacy wire format).
  void SetShardMap(const ShardMap* map);

  /// Number of shard lanes (1 without a ShardMap).
  int shard_count() const;

  /// Attaches a backup channel to shard 0 (the whole stream when unsharded).
  void AttachChannel(EpochChannel* channel);

  /// Attaches a backup channel to one shard's lane. Every channel of a lane
  /// receives every sub-epoch routed to that shard.
  void AttachShardChannel(int shard, EpochChannel* channel);

  /// Removes `channel` from every lane it is attached to (no-op when absent).
  /// After this returns no further Send touches the channel, so a transport
  /// endpoint (e.g. the network tier's per-subscriber staging channel) may
  /// safely destroy channels whose subscriber is gone instead of leaking
  /// them for the shipper's lifetime.
  void DetachChannel(EpochChannel* channel);

  /// True once Finish() sealed the stream — transports use this to tell a
  /// final end-of-stream apart from their own shutdown.
  bool finished() const;

  /// Attaches the durable tier (DESIGN.md §10) to shard 0. Every delivered
  /// epoch — heartbeats included — is appended to `store` at deliver time,
  /// so the sequential segment log always holds the full epoch sequence.
  /// The RAM retention buffer then *spills* on overflow instead of losing:
  /// evicting a durable entry is a RAM→disk-only transition, and when
  /// `retention_spill` is true FetchEpoch falls through to the store for
  /// evicted ids, turning the old terminal eviction error into a disk fetch.
  /// (`retention_spill = false` keeps the legacy eviction semantics while
  /// still recording the durable log for restart recovery.)
  ///
  /// An append failure (full disk) marks that epoch non-durable and counts
  /// `spill_failures`; evicting a non-durable entry is the legacy terminal
  /// loss — graceful degradation, not an abort.
  ///
  /// Call before the first epoch ships; `store` must be empty or positioned
  /// at this shipper's next epoch id, and must outlive the shipper.
  void AttachSegmentStore(SegmentStore* store, bool retention_spill = true);

  /// Per-shard durable tier: each lane can have its own segment store (its
  /// own directory), holding that shard's sub-epoch sequence. Same contract
  /// as AttachSegmentStore.
  void AttachShardSegmentStore(int shard, SegmentStore* store,
                               bool retention_spill = true);

  /// Installs the disk-budget callback (see CheckpointTrigger). Lanes whose
  /// stores carry disk_budget_bytes == 0 never fire it.
  void SetCheckpointTrigger(CheckpointTrigger trigger);

  /// Commit-sink entry point: call in primary commit order.
  void OnCommit(TxnLog txn);

  /// Starts the heartbeat thread, the shipper's one epoch timer: it seals the
  /// open epoch once it is `interval_us` old, and ships a heartbeat once
  /// nothing is open and no commit or heartbeat happened for `interval_us`.
  /// `ts_source` must return a timestamp below every future commit and above
  /// every already-sunk commit (PrimaryDb::AcquireHeartbeatTs). Called
  /// without the shipper lock held.
  /// Idempotent: only the first call starts a thread (a second call used to
  /// overwrite `heartbeat_thread_` without joining, i.e. std::terminate);
  /// calls after Finish() are ignored.
  void StartHeartbeats(std::function<Timestamp()> ts_source,
                       int64_t interval_us = kDefaultHeartbeatIntervalUs);

  /// Seals and ships the currently open partial epoch, if any. The
  /// deterministic simulation harness uses this to place epoch boundaries
  /// exactly where a scenario script says, instead of on the size trigger.
  void FlushEpoch();

  /// Flushes the open epoch, then ships one heartbeat epoch carrying `ts`
  /// (to every shard lane, same epoch id). `ts` must satisfy the
  /// StartHeartbeats contract (above every sunk commit, below every future
  /// one); kInvalidTimestamp is ignored. The simulation harness calls this
  /// in place of the wall-clock heartbeat thread.
  void ShipHeartbeat(Timestamp ts);

  /// Seals and ships the final partial epoch, stops heartbeats, and closes
  /// all channels on all lanes. Idempotent.
  void Finish();

  /// EpochSource: the replayers' NACK path, served from the retention
  /// buffer. Equivalent to shard_source(0) — the whole stream when
  /// unsharded. Successful fetches count as retransmits.
  std::optional<ShippedEpoch> FetchEpoch(EpochId id) override;
  EpochId NextEpochId() const override;
  /// Shard 0's truncation floor (see ShardFloorEpochId).
  EpochId FloorEpochId() const override;

  /// The durable truncation floor of one lane: its segment store's
  /// first_epoch() when a spilling store is attached, 0 otherwise. A NACK
  /// for an id below this that misses RAM is "already checkpointed", not
  /// loss — the replayer reports BelowCheckpoint instead of Corruption.
  EpochId ShardFloorEpochId(int shard) const;

  /// Per-shard NACK back-channel: serves shard `shard`'s sub-epoch stream
  /// out of the shared retention buffer (falling through to that lane's
  /// segment store for evicted ids). The returned source is owned by the
  /// shipper and valid for its lifetime.
  EpochSource* shard_source(int shard);

  /// Fetches shard `shard`'s sub-epoch with id `id` (what shard_source
  /// serves). Counts as a retransmit on that lane when found.
  std::optional<ShippedEpoch> FetchShardEpoch(int shard, EpochId id);

  /// Sub-epochs delivered across all lanes (data and heartbeat frames; one
  /// per epoch id per shard). Unsharded this is the classic "epochs shipped
  /// plus heartbeats" count.
  EpochId epochs_shipped() const;
  /// Heartbeat epoch *ids* shipped (idle heartbeats; synthetic per-shard
  /// fillers inside data epochs are counted in epochs_shipped per lane, not
  /// here).
  uint64_t heartbeats_shipped() const;
  /// Channel-level Send() rejections (closed channel), across all lanes.
  uint64_t send_failures() const;
  /// Sub-epochs that reached zero attached channels on their lane — lost at
  /// the send side.
  uint64_t epochs_dropped() const;
  /// Sub-epochs re-served through the NACK path (RAM or disk), all lanes.
  uint64_t retransmits() const;
  /// Every sub-epoch that entered delivery, heartbeats included (one per
  /// epoch id per lane). The conservation invariant
  /// `produced == shipped + dropped` always holds, globally and per shard;
  /// spills are a disjoint dimension (where a produced epoch lives), never
  /// double-counted against shipped.
  uint64_t epochs_produced() const;
  /// Durable sub-epochs evicted from the RAM retention buffer (now
  /// disk-only), all lanes.
  uint64_t epochs_spilled() const;
  /// Segment-store appends that failed (disk full); those sub-epochs are
  /// RAM-only and evicting them is the legacy terminal loss.
  uint64_t spill_failures() const;
  /// Durable sub-epochs evicted from RAM after truncation had already
  /// dropped them from disk: checkpoint-covered, so NOT counted as spilled
  /// (a spill promises a disk fetch; these promise a checkpoint image). The
  /// conserved `produced == shipped + dropped` invariant is untouched
  /// either way.
  uint64_t spills_below_floor() const;
  /// CheckpointTrigger firings across all lanes (one per over-budget
  /// episode per lane).
  uint64_t budget_triggers() const;

  /// Per-shard views of the conserved accounting (`produced == shipped +
  /// dropped` holds for each shard independently).
  uint64_t shard_produced(int shard) const;
  uint64_t shard_shipped(int shard) const;
  uint64_t shard_dropped(int shard) const;
  uint64_t shard_spilled(int shard) const;

 private:
  /// One shard's delivery lane: its channels, optional durable tier, and
  /// the per-shard half of every conserved counter.
  struct Lane {
    std::vector<EpochChannel*> channels;
    SegmentStore* segment_store = nullptr;
    bool retention_spill = true;
    uint64_t produced = 0;
    uint64_t shipped = 0;
    uint64_t dropped = 0;
    uint64_t send_failures = 0;
    uint64_t spilled = 0;
    uint64_t spill_failures = 0;
    uint64_t spills_below_floor = 0;
    uint64_t retransmits = 0;
    uint64_t budget_triggers = 0;
    /// One CheckpointTrigger per over-budget episode: disarmed on fire,
    /// re-armed when the store drops back under budget.
    bool budget_trigger_armed = true;
  };

  /// EpochSource view of one lane.
  class ShardSource : public EpochSource {
   public:
    ShardSource(LogShipper* owner, int shard) : owner_(owner), shard_(shard) {}
    std::optional<ShippedEpoch> FetchEpoch(EpochId id) override {
      return owner_->FetchShardEpoch(shard_, id);
    }
    EpochId NextEpochId() const override { return owner_->NextEpochId(); }
    EpochId FloorEpochId() const override {
      return owner_->ShardFloorEpochId(shard_);
    }

   private:
    LogShipper* owner_;
    int shard_;
  };

  /// Invokes every trigger queued under the lock by DeliverLocked. Must be
  /// called WITHOUT mu_ held — the receiver typically checkpoints and
  /// truncates, which re-enters the store.
  void FirePendingTriggers();
  void ShipLocked(Epoch epoch);
  /// Splits a sealed epoch into per-lane sub-epochs (identity when
  /// unsharded; synthetic heartbeats for untouched shards otherwise).
  std::vector<ShippedEpoch> SplitLocked(const Epoch& epoch) const;
  /// Retains all `subs` under `id` and fans each out on its lane; returns
  /// the number of lanes that accepted (a lane with no channels counts as
  /// accepted, matching the unsharded contract).
  size_t DeliverLocked(EpochId id, std::vector<ShippedEpoch> subs);
  void HeartbeatLoop();

  mutable std::mutex mu_;
  EpochBuilder builder_;
  const ShardMap* shard_map_ = nullptr;  // null = unsharded (one lane)
  std::vector<Lane> lanes_;
  std::vector<std::unique_ptr<ShardSource>> sources_;
  uint64_t heartbeats_ = 0;
  bool finished_ = false;

  /// Recently delivered epochs, contiguous ids, newest at the back. Sized
  /// by `retention_capacity_`; payloads are shared so retention costs one
  /// ShippedEpoch header per entry per lane, not a payload copy. `durable`
  /// records, per lane, whether the segment-store append succeeded at
  /// deliver time. One buffer serves all N NACK streams.
  struct Retained {
    EpochId id = 0;
    std::vector<ShippedEpoch> sub;   // one per lane
    std::vector<uint8_t> durable;    // one per lane
  };
  std::deque<Retained> retained_;
  size_t retention_capacity_;

  /// Disk-budget checkpoint requests. Queued under mu_ at deliver time,
  /// drained by FirePendingTriggers() after every public entry point
  /// releases the lock.
  struct PendingTrigger {
    int shard;
    EpochId next_epoch;
    uint64_t disk_bytes;
  };
  CheckpointTrigger checkpoint_trigger_;
  std::vector<PendingTrigger> pending_triggers_;

  /// Observability (resolved once; see obs::MetricsRegistry). Batch latency
  /// is first-commit-in-epoch to ship.
  obs::Counter* epochs_shipped_metric_;
  obs::Counter* heartbeats_shipped_metric_;
  obs::Counter* bytes_shipped_metric_;
  obs::Counter* txns_shipped_metric_;
  obs::Counter* send_failures_metric_;
  obs::Counter* epochs_dropped_metric_;
  obs::Counter* retransmits_metric_;
  obs::Counter* epochs_produced_metric_;
  obs::Counter* spills_metric_;
  obs::Counter* spill_failures_metric_;
  obs::Counter* spills_below_floor_metric_;
  obs::Counter* budget_triggers_metric_;
  Histogram* batch_latency_us_metric_;
  int64_t epoch_open_us_ = 0;  // first OnCommit of the open epoch; 0 = none

  /// Heartbeat timer state, guarded by mu_. The timer sleeps on
  /// `heartbeat_cv_` until the open epoch's age deadline or the idle
  /// deadline; only Finish() notifies it, because OnCommit can only move
  /// the deadline later.
  int64_t last_activity_us_ = 0;  // last commit or heartbeat
  bool stop_heartbeats_ = false;
  bool heartbeats_started_ = false;
  int64_t heartbeat_interval_us_ = kDefaultHeartbeatIntervalUs;
  std::function<Timestamp()> heartbeat_ts_source_;
  std::condition_variable heartbeat_cv_;
  std::thread heartbeat_thread_;
};

}  // namespace aets

#endif  // AETS_REPLICATION_LOG_SHIPPER_H_
