#include "aets/replay/replayer_base.h"

#include <optional>
#include <string>
#include <utility>

#include "aets/common/clock.h"

namespace aets {

ReplayerBase::ReplayerBase(const Catalog* catalog, EpochChannel* channel,
                           std::string name)
    : catalog_(catalog),
      channel_(channel),
      store_(*catalog),
      sequencer_(&stats_),
      name_(std::move(name)),
      epochs_applied_metric_(obs::GetCounter("replay.epochs_applied")),
      txns_applied_metric_(obs::GetCounter("replay.txns_applied")),
      records_applied_metric_(obs::GetCounter("replay.records_applied")),
      bytes_applied_metric_(obs::GetCounter("replay.bytes_applied")),
      heartbeats_applied_metric_(
          obs::GetCounter("replay.heartbeats_applied")),
      pipeline_stalls_metric_(obs::GetCounter("pipeline.stalls")),
      pipeline_depth_metric_(obs::GetGauge("pipeline.depth")),
      pipeline_occupancy_metric_(obs::GetGauge("pipeline.occupancy")),
      global_ts_metric_(obs::GetGauge("replay.global_visible_ts")) {}

ReplayerBase::~ReplayerBase() {
  // Backstop only: by now the derived part is gone, so StopWorkers() would
  // not dispatch — derived destructors must call Stop() themselves.
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (main_thread_.joinable()) main_thread_.join();
  if (commit_thread_.joinable()) commit_thread_.join();
}

void ReplayerBase::SetEpochSource(EpochSource* source) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  source_ = source;
}

void ReplayerBase::SetRecoveryOptions(const ReplayRecoveryOptions& options) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  sequencer_.set_options(options);
}

void ReplayerBase::SetPipelineDepth(int depth) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  pipeline_depth_ = depth;
}

void ReplayerBase::SetCommitHookForTest(
    std::function<void(const ShippedEpoch&)> hook) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  commit_hook_ = std::move(hook);
}

Status ReplayerBase::Start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("already started");
  }
  if (pipeline_depth_ < 1) {
    return Status::InvalidArgument("pipeline_depth must be >= 1, got " +
                                   std::to_string(pipeline_depth_));
  }
  Status s = StartWorkers();
  if (!s.ok()) return s;
  pipeline_depth_metric_->Set(pipeline_depth_);
  started_.store(true, std::memory_order_release);
  pipe_.reset();
  if (pipeline_depth_ > 1) {
    pipe_ = std::make_unique<BlockingQueue<PipelineItem>>(
        static_cast<size_t>(pipeline_depth_ - 1));
    commit_thread_ = std::thread([this] {
      // Occupancy counts queued plus committing epochs; it is set at every
      // pop and every commit end.
      while (std::optional<PipelineItem> item = pipe_->Pop()) {
        pipeline_occupancy_metric_->Set(static_cast<int64_t>(pipe_->Size()) +
                                        1);
        CommitItem(std::move(*item));
        pipeline_occupancy_metric_->Set(static_cast<int64_t>(pipe_->Size()));
      }
    });
  }
  main_thread_ = std::thread([this] { MainLoop(); });
  return Status::OK();
}

void ReplayerBase::Stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (!started_.load(std::memory_order_relaxed)) return;
  // The main loop closes the pipeline after closing the last gap, so joining
  // in this order leaves the commit queue fully consumed.
  if (main_thread_.joinable()) main_thread_.join();
  if (commit_thread_.joinable()) commit_thread_.join();
  StopWorkers();
  started_.store(false, std::memory_order_release);
}

Status ReplayerBase::error() const {
  std::lock_guard<std::mutex> lk(error_mu_);
  return error_;
}

void ReplayerBase::SetError(Status status) {
  std::lock_guard<std::mutex> lk(error_mu_);
  if (error_.ok()) error_ = std::move(status);
  error_flag_.store(true, std::memory_order_release);
}

void ReplayerBase::ApplyNext(ShippedEpoch epoch) {
  if (stats_.wall_start_us.load() == 0) {
    stats_.wall_start_us.store(MonotonicMicros());
  }
  PipelineItem item;
  // The latch can trip from the commit context mid-ingest; a post-latch
  // epoch skips prepare and drains through the queue as a no-op.
  if (!epoch.is_heartbeat() && !HasError()) {
    item.prepared = PrepareEpoch(epoch);
  }
  item.epoch = std::move(epoch);
  if (pipe_ == nullptr) {
    CommitItem(std::move(item));
    return;
  }
  if (!pipe_->TryPush(std::move(item))) {
    // Backpressure: the commit stage is the bottleneck — block instead of
    // letting prepared epochs (and their pinned payloads) pile up. A failed
    // TryPush leaves `item` intact.
    stats_.pipeline_stalls.fetch_add(1, std::memory_order_relaxed);
    pipeline_stalls_metric_->Add(1);
    pipe_->Push(std::move(item));
  }
}

void ReplayerBase::CommitItem(PipelineItem item) {
  if (!HasError()) {
    if (commit_hook_) commit_hook_(item.epoch);
    const ShippedEpoch& epoch = item.epoch;
    const bool heartbeat = epoch.is_heartbeat();
    // A failed epoch publishes nothing and announces nothing. The epoch's
    // own report decides, not the latch: a later epoch's prepare may trip
    // it after this one fully installed.
    if (heartbeat || CommitEpoch(epoch, std::move(item.prepared))) {
      // A heartbeat rides the queue behind every data epoch shipped before
      // it, so all data older than its timestamp is installed. A clean data
      // epoch is installed up to its header max_commit_ts — for a sharded
      // sub-epoch the FULL epoch's max, which keeps this shard in step with
      // the primary even when its own last transaction commits earlier.
      const Timestamp ts =
          heartbeat ? epoch.heartbeat_ts : epoch.max_commit_ts;
      AdvanceGlobalTs(ts);
      global_ts_metric_->Set(static_cast<int64_t>(GlobalVisibleTs()));
      OnPublished(ts, heartbeat);
      if (heartbeat) {
        stats_.heartbeats.fetch_add(1, std::memory_order_relaxed);
        heartbeats_applied_metric_->Add(1);
      } else {
        stats_.epochs.fetch_add(1, std::memory_order_relaxed);
        stats_.records.fetch_add(epoch.num_records, std::memory_order_relaxed);
        stats_.bytes.fetch_add(epoch.ByteSize(), std::memory_order_relaxed);
        epochs_applied_metric_->Add(1);
        txns_applied_metric_->Add(epoch.num_txns);
        records_applied_metric_->Add(epoch.num_records);
        bytes_applied_metric_->Add(epoch.ByteSize());
      }
    }
  }
  // A dropped (post-latch) item unwinds here: destroying `prepared` quiesces
  // any translation the prepare phase left in flight, and nothing publishes.
  stats_.wall_end_us.store(MonotonicMicros());
}

void ReplayerBase::MainLoop() {
  const EpochSequencer::ApplyFn apply = [this](ShippedEpoch epoch, bool) {
    ApplyNext(std::move(epoch));
    return !HasError();
  };
  const EpochSequencer::PollFn poll = [this] { return channel_->TryReceive(); };
  auto latch = [this](Status s) {
    if (!s.ok()) SetError(std::move(s));
  };
  while (auto epoch = channel_->Receive()) {
    // Once the error latch trips, stop applying but keep draining: the
    // channel is bounded, so refusing to receive could block the shipper
    // forever. Nothing received after the failure point is installed and no
    // watermark moves.
    if (HasError()) continue;
    latch(sequencer_.Admit(std::move(*epoch), source_, apply));
    if (!HasError()) latch(sequencer_.CloseGaps(source_, poll, apply));
  }
  if (!HasError()) latch(sequencer_.CloseGaps(source_, nullptr, apply));
  if (pipe_ != nullptr) pipe_->Close();
}

}  // namespace aets
