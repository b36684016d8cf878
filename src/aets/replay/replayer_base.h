#ifndef AETS_REPLAY_REPLAYER_BASE_H_
#define AETS_REPLAY_REPLAYER_BASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "aets/catalog/catalog.h"
#include "aets/common/queue.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"
#include "aets/replay/epoch_sequencer.h"
#include "aets/replay/replayer.h"
#include "aets/replication/channel.h"
#include "aets/replication/epoch_source.h"
#include "aets/storage/table_store.h"

namespace aets {

/// The scaffolding every replayer shares: the epoch loop and nothing else.
///
///  - Main loop: receive, let the EpochSequencer (the loss-recovery
///    protocol) release epochs in order, apply them, and keep the wall-clock
///    stats and per-epoch volume counters and metrics.
///  - Cross-epoch pipeline (DESIGN.md §9): each in-order epoch is split into
///    a prepare phase (PrepareEpoch — dispatch/decode/translate launch, on
///    the main loop thread) and a commit phase (CommitEpoch — version
///    install + watermark publication). With pipeline_depth > 1 a commit
///    thread pops a BlockingQueue of prepared epochs, so epoch N+1's
///    receive/CRC/dispatch/translation overlaps epoch N's commit. The queue
///    holds depth - 1 epochs and the commit thread one more; when both are
///    full the main loop blocks in ApplyNext (ReplayStats::pipeline_stalls).
///    Heartbeats ride the same FIFO queue, so every watermark publication
///    stays epoch-ordered.
///  - Global watermark (global_cmt_ts): raised on every heartbeat and after
///    every clean data epoch to the epoch header's max_commit_ts, then
///    announced to OnPublished. ATR, C5 and Serial publish transaction by
///    transaction through AdvanceGlobalTs.
///  - Sticky error latch, with a lock-free HasError() for the hot loops.
///    Once it trips the main loop stops applying but keeps draining the
///    channel (it is bounded, so refusing receives could deadlock the
///    producer); epochs already in the pipeline drain without committing or
///    publishing, and their prepared state unwinds in its destructor.
///  - Race-safe Start()/Stop(): serialized by a mutex, Stop() idempotent, a
///    failed StartWorkers() leaves the replayer cleanly un-started.
///
/// Checkpoint cadence belongs to the driver that owns the durable tier; the
/// columnar merge belongs to AETS's column store, fed through OnPublished.
///
/// Subclasses implement PrepareEpoch/CommitEpoch, and optionally
/// StartWorkers/StopWorkers for their thread pools. Their destructors must
/// call Stop() (so the virtual StopWorkers still dispatches).
class ReplayerBase : public Replayer {
 public:
  ReplayerBase(const Catalog* catalog, EpochChannel* channel, std::string name);
  ~ReplayerBase() override;

  void SetEpochSource(EpochSource* source) override;
  /// Shrinks/extends the recovery windows (tests). Before Start() only.
  void SetRecoveryOptions(const ReplayRecoveryOptions& options);

  /// Bounds the number of epochs in flight between prepare and commit
  /// (1 = fully serial, i.e. the pre-pipeline behavior). Before Start()
  /// only; Start() rejects values < 1.
  void SetPipelineDepth(int depth);
  int pipeline_depth() const { return pipeline_depth_; }

  /// Test-only: invoked on the commit context right before each pipeline
  /// item (data epoch or heartbeat) commits. A blocking hook models a slow
  /// committer, letting tests freeze the commit stage while the prepare
  /// stage runs ahead. Before Start() only.
  void SetCommitHookForTest(std::function<void(const ShippedEpoch&)> hook);

  Status Start() final;
  void Stop() final;

  /// Every transaction with commit_ts <= this is installed on every table.
  Timestamp GlobalVisibleTs() const final {
    return global_ts_.load(std::memory_order_acquire);
  }
  /// One watermark for the whole backup unless a subclass publishes per
  /// table ahead of it (AETS).
  Timestamp TableVisibleTs(TableId /*table*/) const override {
    return GlobalVisibleTs();
  }

  TableStore* store() override { return &store_; }
  const ReplayStats& stats() const override { return stats_; }
  std::string name() const override { return name_; }

  /// Sticky error (unrecoverable loss, corrupted record, pending-buffer
  /// overflow). OK while healthy or fully recovered.
  Status error() const;

  /// The next epoch id the main loop expects — i.e. every id below it has
  /// been admitted into the replay pipeline (prepared, though with
  /// pipeline_depth > 1 not necessarily committed yet; poll stats().epochs
  /// for commit progress). Safe to poll from other threads.
  EpochId next_expected_epoch() const { return sequencer_.expected(); }

 protected:
  /// Opaque per-epoch state carried from PrepareEpoch to CommitEpoch.
  /// Destroying it must quiesce anything the prepare phase left in flight
  /// (e.g. translation tasks still claiming fragments) — a dropped pipeline
  /// item after an error latch is destroyed without CommitEpoch running.
  struct PreparedEpoch {
    virtual ~PreparedEpoch() = default;
  };

  /// Validates options and spawns worker pools; a failure aborts Start()
  /// without marking the replayer started. Called under the lifecycle lock.
  virtual Status StartWorkers() { return Status::OK(); }

  /// Tears down worker pools after the main loop joined.
  virtual void StopWorkers() {}

  /// Phase A of one data epoch: metadata dispatch, decode, and launching
  /// any phase-1 translation. Runs on the main loop thread, possibly while
  /// an earlier epoch is still committing — it must not install versions or
  /// publish watermarks. On failure, latch with SetError(); the returned
  /// state is then discarded without CommitEpoch.
  virtual std::unique_ptr<PreparedEpoch> PrepareEpoch(
      const ShippedEpoch& epoch) = 0;

  /// Phase B of one data epoch: version install and watermark publication.
  /// Runs on the commit context (the commit thread when pipeline_depth > 1,
  /// inline otherwise), strictly in epoch order, one epoch at a time.
  /// Returns true iff every transaction of *this* epoch was installed; the
  /// base publishes and counts the epoch on that report alone, because a
  /// later epoch's prepare may latch the error while this one commits. On
  /// failure, latch with SetError() and return false — the base then skips
  /// the per-epoch stats/metrics and stops applying.
  virtual bool CommitEpoch(const ShippedEpoch& epoch,
                           std::unique_ptr<PreparedEpoch> prepared) = 0;

  /// Post-commit observer, called on the commit context after each
  /// watermark publication with what was published (the heartbeat ts or the
  /// data epoch's max_commit_ts): every version at or below `ts` is
  /// installed. Never called for a failed epoch, nor for an epoch that
  /// reached the commit context after the latch tripped.
  virtual void OnPublished(Timestamp /*ts*/, bool /*heartbeat*/) {}

  /// Raises the global watermark to `ts` (max-guarded, so a sharded
  /// sub-epoch's header max that already ran ahead is never undone).
  void AdvanceGlobalTs(Timestamp ts) { StoreMaxTimestamp(global_ts_, ts); }

  void SetError(Status status);

  /// Lock-free check for the hot loops (translate claims, commit spins).
  bool HasError() const {
    return error_flag_.load(std::memory_order_acquire);
  }

  bool started() const { return started_.load(std::memory_order_acquire); }

  const Catalog* catalog_;
  EpochChannel* channel_;
  TableStore store_;
  ReplayStats stats_;
  /// Driven only by the main loop while running; Bootstrap arms its cursor
  /// before Start().
  EpochSequencer sequencer_;

 private:
  /// One in-order unit of the prepare→commit hand-off. Heartbeats flow
  /// through the same queue (prepared == nullptr) so their publication
  /// cannot overtake a data epoch still committing.
  struct PipelineItem {
    ShippedEpoch epoch;
    std::unique_ptr<PreparedEpoch> prepared;
  };

  void MainLoop();
  /// Prepares one in-order epoch (the sequencer already advanced its
  /// cursor) and hands it to the commit context — inline at depth 1,
  /// otherwise via the bounded pipeline queue (blocking when depth epochs
  /// are already in flight).
  void ApplyNext(ShippedEpoch epoch);
  /// Commits (or, post-latch, drains) one pipeline item and maintains the
  /// per-epoch stats/metrics. Runs on the commit context.
  void CommitItem(PipelineItem item);

  std::string name_;

  /// global_cmt_ts, raised only through AdvanceGlobalTs.
  std::atomic<Timestamp> global_ts_{kInvalidTimestamp};

  EpochSource* source_ = nullptr;
  int pipeline_depth_ = 1;
  std::function<void(const ShippedEpoch&)> commit_hook_;

  /// Observability (resolved once per instrument; aggregated process-wide).
  obs::Counter* epochs_applied_metric_;
  obs::Counter* txns_applied_metric_;
  obs::Counter* records_applied_metric_;
  obs::Counter* bytes_applied_metric_;
  obs::Counter* heartbeats_applied_metric_;
  obs::Counter* pipeline_stalls_metric_;
  obs::Gauge* pipeline_depth_metric_;
  obs::Gauge* pipeline_occupancy_metric_;
  obs::Gauge* global_ts_metric_;

  /// Prepare→commit hand-off (pipeline_depth > 1 only), capacity depth - 1:
  /// with the item the commit thread holds, at most depth epochs are in
  /// flight.
  std::unique_ptr<BlockingQueue<PipelineItem>> pipe_;

  std::thread main_thread_;
  std::thread commit_thread_;
  std::mutex lifecycle_mu_;
  std::atomic<bool> started_{false};

  mutable std::mutex error_mu_;
  Status error_;
  std::atomic<bool> error_flag_{false};
};

}  // namespace aets

#endif  // AETS_REPLAY_REPLAYER_BASE_H_
