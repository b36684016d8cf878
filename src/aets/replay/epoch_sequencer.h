#ifndef AETS_REPLAY_EPOCH_SEQUENCER_H_
#define AETS_REPLAY_EPOCH_SEQUENCER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>

#include "aets/common/status.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"
#include "aets/replay/replayer.h"
#include "aets/replication/epoch_source.h"

namespace aets {

/// Tuning knobs of the epoch-loss recovery protocol (see EpochSequencer and
/// DESIGN.md "Failure model & recovery").
struct ReplayRecoveryOptions {
  /// SpinBackoff pauses spent polling the channel before concluding a gap is
  /// a loss rather than a reordering still in flight.
  int reorder_window_pauses = 2000;
  /// Recovery rounds (reorder wait + NACK) per gap without progress before
  /// the sticky error latch trips. Also bounds consecutive NACK fetch
  /// misses: a nullopt from the source can be a transient I/O timeout on a
  /// socket-backed NACK RPC, not proof of eviction, so a gap only latches
  /// after this many missed attempts with backoff in between.
  int max_retries = 8;
  /// Bound on buffered out-of-order epochs; exceeding it means the stream is
  /// unrecoverable (or the peer is misbehaving) and latches an error.
  size_t max_pending = 1024;
};

/// The loss-recovery protocol of a replayer's receive side. The channel may
/// drop, duplicate, reorder, or corrupt epochs; the sequencer turns that
/// stream into the gap-free, in-order sequence the replay pipeline applies.
/// Without an EpochSource any anomaly is terminal; with one, a finished
/// replayer is either byte-equal to the primary or has a latched error —
/// never silently short.
///
/// Single-threaded and starts no threads: one caller (the replayer's main
/// loop, or a test) drives it, and all I/O comes in as arguments — the
/// source, a non-blocking poll of the live channel, and the apply sink. A
/// non-OK return is terminal and the caller latches it. After one, or once
/// the sink refuses an epoch, the sequencer is halted and every further
/// call is a no-op. Only the cursor may be read from other threads.
class EpochSequencer {
 public:
  /// Hands the epoch at the cursor to the replay pipeline. Returns false
  /// once the replayer has latched an error, which halts the sequencer.
  using ApplyFn = std::function<bool(ShippedEpoch epoch, bool retransmitted)>;
  /// Non-blocking receive from the live channel; empty once it is closed.
  using PollFn = std::function<std::optional<ShippedEpoch>()>;

  /// `stats` receives the retried / duplicate / corrupt counts.
  explicit EpochSequencer(ReplayStats* stats);

  void set_options(const ReplayRecoveryOptions& options) {
    options_ = options;
  }
  /// Arms the cursor at `next` (a checkpoint bootstrap). Before any Admit.
  void Arm(EpochId next) { expected_.store(next, std::memory_order_release); }
  /// The next epoch id to apply: every id below it went to the sink.
  EpochId expected() const { return expected_.load(std::memory_order_acquire); }
  /// Early arrivals parked while a gap is open.
  size_t parked() const { return pending_.size(); }
  bool halted() const { return halted_; }

  /// Classifies one received epoch: corrupt payloads are dropped (a loss the
  /// NACK path repairs), stale ids are counted as duplicates, early ids are
  /// parked, and the expected id is applied — followed by every
  /// now-contiguous parked successor.
  Status Admit(ShippedEpoch epoch, EpochSource* source, const ApplyFn& apply,
               bool retransmitted = false);

  /// Closes the gap at the cursor through `source`. While the channel is
  /// live (`poll` set) a gap is open while early epochs are parked: each
  /// round polls for a bounded reorder window, then NACKs the missing id
  /// from the source (the shipper's retention buffer). Once the channel is
  /// closed (`poll` empty), every id below the source's NextEpochId() was
  /// handed to the link, so the gap runs to there — pulling any tail the
  /// link swallowed — and each round just NACKs, with the window as backoff
  /// between misses. Fails after max_retries rounds without progress, or at
  /// once below the source's truncation floor.
  Status CloseGaps(EpochSource* source, const PollFn& poll,
                   const ApplyFn& apply);

 private:
  Status Halt(Status status);

  ReplayStats* stats_;
  ReplayRecoveryOptions options_;
  /// Written only by the driving thread; atomic so observers can poll it.
  std::atomic<EpochId> expected_{0};
  std::map<EpochId, ShippedEpoch> pending_;
  bool halted_ = false;

  obs::Counter* retried_metric_;
  obs::Counter* duplicates_metric_;
  obs::Counter* corrupt_metric_;
};

}  // namespace aets

#endif  // AETS_REPLAY_EPOCH_SEQUENCER_H_
