#ifndef AETS_COMMON_CLOCK_H_
#define AETS_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>

namespace aets {

/// Logical timestamps used for commit ordering and snapshot reads. The
/// primary's commit sequence and OLAP query snapshots are both drawn from one
/// `LogicalClock`, playing the role of the timestamp oracle the paper assumes
/// ("gets the latest snapshot timestamp value from the primary", Section V-B).
using Timestamp = uint64_t;

constexpr Timestamp kInvalidTimestamp = 0;

/// Monotonically increasing logical clock. Thread-safe.
class LogicalClock {
 public:
  LogicalClock() : next_(1) {}
  explicit LogicalClock(Timestamp start) : next_(start) {}

  LogicalClock(const LogicalClock&) = delete;
  LogicalClock& operator=(const LogicalClock&) = delete;

  /// Returns a fresh, unique timestamp (strictly increasing across calls).
  Timestamp Tick() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// The most recently issued timestamp, or 0 if none was issued yet.
  Timestamp Now() const { return next_.load(std::memory_order_relaxed) - 1; }

  /// Advances the clock so the next Tick() returns at least `ts + 1`.
  void AdvanceTo(Timestamp ts) {
    Timestamp cur = next_.load(std::memory_order_relaxed);
    while (cur <= ts &&
           !next_.compare_exchange_weak(cur, ts + 1, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<Timestamp> next_;
};

/// Monotone atomic-max publication of a watermark: advances `slot` to `ts`
/// unless it is already past it. The canonical way every replayer publishes
/// tg_cmt_ts / global_cmt_ts — a plain store could move a watermark backwards
/// when an epoch's own commits race a heartbeat or a sub-epoch's
/// max-commit-ts advance (see LogShipper's sharded split).
inline void StoreMaxTimestamp(std::atomic<Timestamp>& slot, Timestamp ts) {
  Timestamp cur = slot.load(std::memory_order_relaxed);
  while (cur < ts &&
         !slot.compare_exchange_weak(cur, ts, std::memory_order_release)) {
  }
}

/// Seam for the monotonic wall clock. Production code never sees this: the
/// default source reads std::chrono::steady_clock. The deterministic
/// simulation harness (aets/sim) installs a virtual source so every
/// MonotonicMicros/MonotonicNanos reading — stats wall times, channel wait
/// histograms, GC pauses — is a pure function of the simulated schedule
/// instead of host timing.
class ClockSource {
 public:
  virtual ~ClockSource() = default;
  virtual int64_t NowNanos() const = 0;
};

namespace internal {
/// The installed override, or nullptr for the real clock. One relaxed load
/// on the hot path; only tests ever store to it.
inline std::atomic<const ClockSource*> g_clock_source{nullptr};
}  // namespace internal

/// Installs `source` as the process-wide monotonic clock (nullptr restores
/// the real clock). Returns the previous source. Not for concurrent use
/// against itself — install before spawning the threads under test.
inline const ClockSource* InstallClockSource(const ClockSource* source) {
  return internal::g_clock_source.exchange(source, std::memory_order_acq_rel);
}

inline const ClockSource* InstalledClockSource() {
  return internal::g_clock_source.load(std::memory_order_acquire);
}

/// Wall-clock helpers (steady clock, unless a ClockSource override is
/// installed) used for measuring visibility delay and phase breakdowns.
inline int64_t MonotonicNanos() {
  if (const ClockSource* src =
          internal::g_clock_source.load(std::memory_order_acquire)) {
    return src->NowNanos();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t MonotonicMicros() { return MonotonicNanos() / 1000; }

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID), in
/// nanoseconds: time the thread spent preempted, parked or sleeping does not
/// count, so a phase timed with it measures its work, not the host's load.
/// Unlike the steady clock this is a syscall, not a vDSO read; time whole
/// phases with it, not per-record windows. An installed ClockSource
/// overrides it too, so simulated runs stay a function of the schedule.
inline int64_t ThreadCpuNanos() {
  if (const ClockSource* src =
          internal::g_clock_source.load(std::memory_order_acquire)) {
    return src->NowNanos();
  }
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Scoped stopwatch accumulating elapsed nanoseconds of clock `Now` into a
/// counter.
template <int64_t (*Now)()>
class BasicScopedTimerNs {
 public:
  explicit BasicScopedTimerNs(std::atomic<int64_t>* sink)
      : sink_(sink), start_(Now()) {}
  ~BasicScopedTimerNs() {
    sink_->fetch_add(Now() - start_, std::memory_order_relaxed);
  }

  BasicScopedTimerNs(const BasicScopedTimerNs&) = delete;
  BasicScopedTimerNs& operator=(const BasicScopedTimerNs&) = delete;

 private:
  std::atomic<int64_t>* sink_;
  int64_t start_;
};

/// Wall time (monotonic clock) of a scope.
using ScopedTimerNs = BasicScopedTimerNs<MonotonicNanos>;
/// CPU time of the calling thread over a scope (see ThreadCpuNanos).
using ScopedCpuTimerNs = BasicScopedTimerNs<ThreadCpuNanos>;

}  // namespace aets

#endif  // AETS_COMMON_CLOCK_H_
