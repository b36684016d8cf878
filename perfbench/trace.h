// Measurement helpers of the freshness benchmark: exact-sample percentiles,
// benchmark-side spans around the calls into each pipeline layer, and
// process accounting (getrusage deltas, /proc/self/task).
//
// Spans live only in this directory's code: they wrap the calls the
// benchmark makes into the program (commit sink -> LogShipper::OnCommit,
// the bench channel's Send, the Algorithm 3 visibility wait, the query
// call, the GcDaemon hooks), never code inside the library.
#ifndef AETS_PERFBENCH_TRACE_H_
#define AETS_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

/// Exact sample store; percentiles interpolate between order statistics, so
/// a reported value keeps all its digits (no histogram bucketing).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Layers a span can be recorded for. Names match the per-layer report.
enum class Layer : int {
  kPrimaryTxn = 0,  // Workload::RunOltpTransaction (primary execute+commit)
  kCommitSink,      // LogShipper::OnCommit, called from the commit sink
  kArrival,         // bench channel Send: the epoch reaches the backup
  kWaitVisible,     // Algorithm 3 wait: query due -> tables visible at qts
  kQuery,           // point read or QueryClient::Scan
  kGcPass,          // GcDaemon pre-pass hook -> post-pass hook
  kNumLayers,
};
const char* LayerName(Layer layer);

struct Span {
  Layer layer;
  uint64_t id;      // unique per span
  uint64_t parent;  // enclosing span on the same thread, 0 = none
  uint64_t key;     // request identifier: txn seq, epoch id, query index
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span log. Disabled (every call a no-op) unless Enable()d; the
/// untraced run never records. Each thread appends to its own buffer; the
/// buffers are merged when the run ends and written out by WriteJsonl.
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread, nested in its innermost open one.
  void Begin(Layer layer, uint64_t key);
  /// Closes the innermost open span of the calling thread.
  void End();
  /// Records an already-closed span with no parent (cross-thread intervals
  /// such as the GC pass, timed between two hooks).
  void Record(Layer layer, uint64_t key, int64_t start_ns, int64_t end_ns);

  /// Moves every recorded span out (all threads). Call only after every
  /// recording thread stopped.
  std::vector<Span> Drain();

 private:
  struct ThreadBuf {
    std::vector<Span> spans;
    std::vector<size_t> open;  // indices into spans of the open stack
  };
  ThreadBuf* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<ThreadBuf*> bufs_;  // owned; threads register once
};

class ScopedSpan {
 public:
  ScopedSpan(Layer layer, uint64_t key) : on_(SpanLog::Get().enabled()) {
    if (on_) SpanLog::Get().Begin(layer, key);
  }
  ~ScopedSpan() {
    if (on_) SpanLog::Get().End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

/// Per-layer self time derived from spans: the time inside the layer's
/// spans minus the part covered by their child spans.
struct LayerTimes {
  double self_ms[static_cast<int>(Layer::kNumLayers)] = {};
};
LayerTimes SummarizeSpans(const std::vector<Span>& spans);

/// Writes one JSON object per span. Returns false on I/O failure.
bool WriteJsonl(const std::vector<Span>& spans, const std::string& path);

/// getrusage(RUSAGE_SELF) plus wall time; differences give per-phase
/// process accounting.
struct ProcSample {
  int64_t wall_ns = 0;
  double user_s = 0;
  double sys_s = 0;
  int64_t vol_ctx = 0;
  int64_t invol_ctx = 0;
  int64_t maxrss_kb = 0;
  static ProcSample Now();
};

struct ProcDelta {
  double cores_busy = 0;  // (user + sys) / wall
  double sys_frac = 0;    // sys / (user + sys)
  double ctx_switches = 0;
  double wall_s = 0;
};
ProcDelta Diff(const ProcSample& a, const ProcSample& b);

/// Entries in /proc/self/task: the process's live thread count.
int CountThreads();

}  // namespace perfbench

#endif  // AETS_PERFBENCH_TRACE_H_
