#include "aets/replay/epoch_sequencer.h"

#include <string>
#include <utility>

#include "aets/common/backoff.h"

namespace aets {

EpochSequencer::EpochSequencer(ReplayStats* stats)
    : stats_(stats),
      retried_metric_(obs::GetCounter("replay.epochs_retried")),
      duplicates_metric_(obs::GetCounter("replay.epochs_duplicate_dropped")),
      corrupt_metric_(obs::GetCounter("replay.epochs_corrupt_dropped")) {}

Status EpochSequencer::Halt(Status status) {
  halted_ = true;
  return status;
}

Status EpochSequencer::Admit(ShippedEpoch epoch, EpochSource* source,
                             const ApplyFn& apply, bool retransmitted) {
  if (halted_) return Status::OK();
  if (!epoch.PayloadIntact()) {
    // Damaged in flight. The epoch is a loss, not an error: the clean copy
    // lives in the shipper's retention buffer and the gap machinery will
    // NACK it back. Without a source there is no way to recover — latch.
    stats_->corrupt_dropped.fetch_add(1, std::memory_order_relaxed);
    corrupt_metric_->Add(1);
    if (source == nullptr) {
      return Halt(Status::Corruption(
          "epoch " + std::to_string(epoch.epoch_id) +
          " payload checksum mismatch (no retransmission source)"));
    }
    return Status::OK();
  }
  if (epoch.epoch_id < expected()) {
    // Already applied — a link-level duplicate or a redundant retransmit.
    stats_->duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
    duplicates_metric_->Add(1);
    return Status::OK();
  }
  if (epoch.epoch_id > expected()) {
    if (source == nullptr) {
      return Halt(Status::Corruption(
          "epoch out of order: expected " + std::to_string(expected()) +
          ", got " + std::to_string(epoch.epoch_id) +
          " (no retransmission source)"));
    }
    auto [it, inserted] = pending_.emplace(epoch.epoch_id, std::move(epoch));
    if (!inserted) {
      stats_->duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
      duplicates_metric_->Add(1);
    } else if (pending_.size() > options_.max_pending) {
      return Halt(Status::Corruption(
          "reorder buffer overflow: " + std::to_string(pending_.size()) +
          " epochs parked waiting for epoch " + std::to_string(expected())));
    }
    return Status::OK();
  }
  // Apply the expected id; it may have been the gap head, so then drain
  // every parked successor that is now contiguous.
  for (;;) {
    expected_.store(expected() + 1, std::memory_order_release);
    if (retransmitted) {
      stats_->epochs_retried.fetch_add(1, std::memory_order_relaxed);
      retried_metric_->Add(1);
    }
    if (!apply(std::move(epoch), retransmitted)) return Halt(Status::OK());
    auto it = pending_.find(expected());
    if (it == pending_.end()) return Status::OK();
    epoch = std::move(it->second);
    pending_.erase(it);
    retransmitted = false;
  }
}

Status EpochSequencer::CloseGaps(EpochSource* source, const PollFn& poll,
                                 const ApplyFn& apply) {
  // Without a source Admit latches instead of parking, and a swallowed tail
  // cannot be seen, let alone fetched.
  if (source == nullptr || halted_) return Status::OK();
  const bool channel_closed = !poll;
  const EpochId end = channel_closed ? source->NextEpochId() : 0;
  int rounds_without_progress = 0;
  while (!halted_ && (channel_closed ? expected() < end : !pending_.empty())) {
    const EpochId gap = expected();
    if (!channel_closed || rounds_without_progress > 0) {
      // Reorder window: the missing epoch may be queued right behind what
      // we already pulled (or held back by the link), so poll before
      // NACKing. After close it is only the backoff between NACKs.
      SpinBackoff backoff;
      for (int i = 0;
           i < options_.reorder_window_pauses && expected() == gap; ++i) {
        std::optional<ShippedEpoch> epoch;
        if (!channel_closed) epoch = poll();
        if (epoch) {
          Status s = Admit(std::move(*epoch), source, apply);
          if (!s.ok()) return s;
        } else {
          backoff.Pause();
        }
      }
      if (expected() > gap) {
        rounds_without_progress = 0;
        continue;
      }
    }
    // NACK: re-fetch the gap head from the shipper's retention buffer.
    std::optional<ShippedEpoch> fetched = source->FetchEpoch(gap);
    const bool fetch_missed = !fetched.has_value();
    if (fetched) {
      Status s = Admit(std::move(*fetched), source, apply,
                       /*retransmitted=*/true);
      if (!s.ok()) return s;
      if (expected() > gap) {
        rounds_without_progress = 0;
        continue;
      }
    } else if (gap < source->FloorEpochId()) {
      // Not a loss: truncation dropped this id because a checkpoint image
      // covers it. The distinct code lets the operator bootstrap from the
      // image instead of treating the backup as corrupt.
      return Halt(Status::BelowCheckpoint(
          "epoch " + std::to_string(gap) +
          " is below the durable log's truncation floor " +
          std::to_string(source->FloorEpochId()) +
          "; a checkpoint image covers it — bootstrap from that image"));
    }
    // A miss is not proof of loss: over a socket source the same nullopt
    // also covers a timed-out NACK RPC, and latching on the first one would
    // poison the replayer on a transient stall. Only a spent retry budget
    // concludes eviction.
    if (++rounds_without_progress >= options_.max_retries) {
      return Halt(Status::Corruption(
          fetch_missed
              ? "epoch " + std::to_string(gap) +
                    " lost in transit and evicted from the shipper's "
                    "retention buffer (" +
                    std::to_string(options_.max_retries) +
                    " NACK attempts); re-bootstrap from a checkpoint"
              : "epoch gap at " + std::to_string(gap) + " persisted after " +
                    std::to_string(options_.max_retries) +
                    " recovery rounds"));
    }
  }
  return Status::OK();
}

}  // namespace aets
