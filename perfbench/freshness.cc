// Live-pipeline freshness benchmark binary (see README.md). run.py builds
// and drives it; the flags are listed in Main's usage message.
//
// A run is setups (load + catch-up; setup_s is their median), a steady
// phase (open-loop commits and real-time queries at the workload's fixed
// rates) and bursts (B commits held at the backup's channel, then released
// at once; replay_txn_per_s is burst transactions over summed drain time).
// run.py splits an untraced run into slices (one process each: a steady
// slice, or one burst) and pools them; --trace 1 runs in one process. The
// last stdout line is JSON.
// Exit codes: 0 ok, 1 an output check failed, 2 usage or setup error,
// 3 the run is invalid (an operation failed, the generator fell behind
// schedule or the steady backlog kept growing).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "aets/bench/harness.h"
#include "aets/common/queue.h"
#include "aets/obs/metrics.h"
#include "aets/workload/tpcc.h"
#include "pipeline.h"
#include "trace.h"

namespace perfbench {
namespace {

using aets::Status;
using aets::TableId;
using aets::Timestamp;

// Timed setups of a steady slice (all but the last torn down again), and
// bursts of a traced run. An untraced burst slice runs one burst.
constexpr int kSetupsPerSteadySlice = 2;
constexpr int kTracedBursts = 8;
// Untimed warm-up at the start of every steady phase.
constexpr double kWarmupS = 0.5;
// Poll periods: the traced poller resolves per-epoch visibility, the
// untraced one only samples the backlog.
constexpr int64_t kTracedPollNs = 50'000;
constexpr int64_t kSlowPollNs = 10'000'000;
// Visibility poll period of the query issuer.
constexpr int64_t kVisibilityPollNs = 50'000;
// Validity limits (README.md, "Validity").
constexpr double kMaxLateMedianUs = 10'000;
constexpr double kMinBacklogLimit = 16;
// One scan in this many is compared with the primary's table.
constexpr uint64_t kScanCheckEvery = 8;

/// A failure the self-test plants on every measured scan, to show that it
/// stops the run and leaves no latency sample behind.
enum class Fault { kNone, kClampScan, kRefuseScan };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  bool build_info = false;
  std::string slice;  // "steady" or "burst" (untraced, one slice per process)
  std::string tmp_dir;
  std::string out_dir;
  Fault plant = Fault::kNone;  // set by the self-test only
};

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

/// Counters the program exposes, sampled at phase boundaries; phases are
/// reported as differences (and the run as the sum of its phases).
struct StatsSnap {
  uint64_t pipeline_stalls = 0, epochs_retried = 0;
  int64_t dispatch_ns = 0, replay_ns = 0, commit_ns = 0, stage1_ns = 0,
          stage2_ns = 0;
  uint64_t shipped = 0, hb_shipped = 0, retransmits = 0;
  uint64_t seg_bytes = 0, seg_fsyncs = 0;
  uint64_t reconnects = 0, rpc_failures = 0, admission_rejects = 0;
  uint64_t residual_rows = 0;

  template <typename Op>
  StatsSnap Combine(const StatsSnap& o, Op op) const {
    StatsSnap r;
    r.pipeline_stalls = op(pipeline_stalls, o.pipeline_stalls);
    r.epochs_retried = op(epochs_retried, o.epochs_retried);
    r.dispatch_ns = op(dispatch_ns, o.dispatch_ns);
    r.replay_ns = op(replay_ns, o.replay_ns);
    r.commit_ns = op(commit_ns, o.commit_ns);
    r.stage1_ns = op(stage1_ns, o.stage1_ns);
    r.stage2_ns = op(stage2_ns, o.stage2_ns);
    r.shipped = op(shipped, o.shipped);
    r.hb_shipped = op(hb_shipped, o.hb_shipped);
    r.retransmits = op(retransmits, o.retransmits);
    r.seg_bytes = op(seg_bytes, o.seg_bytes);
    r.seg_fsyncs = op(seg_fsyncs, o.seg_fsyncs);
    r.reconnects = op(reconnects, o.reconnects);
    r.rpc_failures = op(rpc_failures, o.rpc_failures);
    r.admission_rejects = op(admission_rejects, o.admission_rejects);
    r.residual_rows = op(residual_rows, o.residual_rows);
    return r;
  }
  StatsSnap operator-(const StatsSnap& o) const {
    return Combine(o, [](auto a, auto b) { return a - b; });
  }
  StatsSnap operator+(const StatsSnap& o) const {
    return Combine(o, [](auto a, auto b) { return a + b; });
  }

  static StatsSnap Take(Pipeline* p) {
    StatsSnap s;
    const aets::ReplayStats& r = p->replayer()->stats();
    s.pipeline_stalls = r.pipeline_stalls.load();
    s.epochs_retried = r.epochs_retried.load();
    s.dispatch_ns = r.dispatch_ns.load();
    s.replay_ns = r.replay_ns.load();
    s.commit_ns = r.commit_ns.load();
    s.stage1_ns = r.stage1_wall_ns.load();
    s.stage2_ns = r.stage2_wall_ns.load();
    s.shipped = p->shipper()->epochs_shipped();
    s.hb_shipped = p->shipper()->heartbeats_shipped();
    s.retransmits = p->shipper()->retransmits();
    if (auto* seg = p->segment_store()) {
      s.seg_bytes = seg->bytes_written();
      s.seg_fsyncs = seg->fsyncs();
    }
    if (auto* c = p->stream_client()) s.reconnects = c->reconnects();
    if (auto* src = p->tcp_source()) s.rpc_failures = src->rpc_failures();
    if (auto* q = p->query_server()) {
      s.admission_rejects = q->admission_rejects();
    }
    s.residual_rows = aets::obs::GetCounter("column.residual_rows")->value();
    return s;
  }
};

// ------------------------------------------------------------------ poller

/// Samples the backup while the steady phase runs: the replay backlog and
/// thread count always; with tracing, per-epoch arrival -> watermark times
/// (global, hot tables, cold tables) and the column-store publish lag.
class Poller {
 public:
  Poller(Pipeline* p, bool traced) : p_(p), traced_(traced) {}
  ~Poller() { Stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Start() {
    history_.push_back({NowNs(), p_->replayer()->GlobalVisibleTs()});
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  Samples apply_us, hot_us, cold_us, publish_lag_us;
  std::vector<std::pair<int64_t, double>> backlog;  // (t_ns, epochs)
  std::vector<Arrival> arrivals;
  int max_threads = 0;

 private:
  struct Pending {
    Arrival a;
    bool hot = false, cold = false;
  };
  struct Mark {
    int64_t t_ns;
    Timestamp global;
  };

  bool AllVisible(const std::vector<TableId>& tables, Timestamp ts) const {
    for (TableId t : tables) {
      if (p_->replayer()->TableVisibleTs(t) < ts) return false;
    }
    return true;
  }

  void Trace(int64_t now, Timestamp global) {
    if (global > history_.back().global) history_.push_back({now, global});
    size_t before = arrivals.size();
    p_->channel()->PopArrivals(&arrivals);
    for (size_t i = before; i < arrivals.size(); ++i) {
      if (!arrivals[i].heartbeat) pending_.push_back(Pending{arrivals[i]});
    }
    for (auto it = pending_.begin(); it != pending_.end();) {
      double waited_us = static_cast<double>(now - it->a.t_ns) / 1e3;
      bool done = global >= it->a.max_ts;
      if (!it->hot && (done || AllVisible(p_->hot_tables(), it->a.max_ts))) {
        hot_us.Add(waited_us);
        it->hot = true;
      }
      if (!it->cold && (done || AllVisible(p_->cold_tables(), it->a.max_ts))) {
        cold_us.Add(waited_us);
        it->cold = true;
      }
      if (done) {
        apply_us.Add(waited_us);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void SamplePublishLag(int64_t now) {
    for (TableId t : p_->hot_tables()) {
      const aets::storage::ColumnStore* cs =
          p_->replayer()->ColumnStoreForTable(t);
      if (cs == nullptr) return;
      Timestamp published = cs->PublishedTs(t);
      if (published == aets::kInvalidTimestamp) continue;
      // When did the global watermark first reach what the column store
      // now serves? Staleness of the columnar view is now minus that.
      auto it = std::lower_bound(
          history_.begin(), history_.end(), published,
          [](const Mark& m, Timestamp ts) { return m.global < ts; });
      int64_t since = it == history_.end() ? now : it->t_ns;
      if (it == history_.begin()) since = history_.front().t_ns;
      publish_lag_us.Add(static_cast<double>(now - since) / 1e3);
    }
  }

  void Loop() {
    int64_t next_slow = NowNs();
    int slow_ticks = 0;
    while (!stop_.load()) {
      int64_t now = NowNs();
      Timestamp global = p_->replayer()->GlobalVisibleTs();
      if (traced_) Trace(now, global);
      if (now >= next_slow) {
        const aets::ReplayStats& r = p_->replayer()->stats();
        double applied =
            static_cast<double>(r.epochs.load() + r.heartbeats.load());
        double delivered = static_cast<double>(p_->channel()->delivered());
        backlog.push_back({now, std::max(0.0, delivered - applied)});
        if (traced_) SamplePublishLag(now);
        if (slow_ticks++ % 10 == 0) {
          max_threads = std::max(max_threads, CountThreads());
        }
        next_slow += kSlowPollNs;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          traced_ ? kTracedPollNs : kSlowPollNs));
    }
  }

  Pipeline* p_;
  bool traced_;
  std::atomic<bool> stop_{false};
  std::vector<Mark> history_;
  std::vector<Pending> pending_;
  std::thread thread_;
};

// --------------------------------------------------------------- generators

/// The steady phase's timeline: load is offered from `start_ns` to
/// `end_ns`; samples are kept only for operations due at or after
/// `measure_ns`, so the warm-up after setup (first page faults, first
/// column publishes) is not timed.
struct Schedule {
  int64_t start_ns;
  int64_t measure_ns;
  int64_t end_ns;
};

struct GenStats {
  Samples late_us;
  Samples txn_us;  // primary execute + commit (incl. the commit sink)
  uint64_t issued = 0;
  uint64_t failed = 0;
};

/// Open-loop OLTP generator: transaction i is due at start + i / rate and
/// is timed from its due instant, however late the generator gets there.
void RunCommitSchedule(Pipeline* p, aets::Rng* rng, Schedule sched,
                       double rate, GenStats* out) {
  const double period_ns = 1e9 / rate;
  for (uint64_t i = 0;; ++i) {
    int64_t due = sched.start_ns +
                  static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (due >= sched.end_ns) break;
    SleepUntilNs(due);
    int64_t start = NowNs();
    Status s;
    {
      ScopedSpan span(Layer::kPrimaryTxn, i);
      s = p->workload()->RunOltpTransaction(p->db(), rng);
    }
    int64_t end = NowNs();
    if (due >= sched.measure_ns) {
      out->late_us.Add(static_cast<double>(start - due) / 1e3);
      out->txn_us.Add(static_cast<double>(end - start) / 1e3);
    }
    out->issued++;
    if (!s.ok()) out->failed++;
  }
}

/// A query answer kept for comparison with the primary. The comparison
/// runs after the steady phase: a primary-side read during it would take
/// the primary's B+tree latches and stall its commits (a full-table digest
/// blocks inserts for milliseconds). The primary keeps every version, so
/// reading it at qts later gives the same answer.
struct AnswerToCheck {
  TableId table = 0;
  Timestamp qts = aets::kInvalidTimestamp;
  int64_t row_key = 0;            // point read
  std::optional<aets::Row> row;   // point read
  uint64_t digest = 0, rows = 0;  // scan
};

/// When a measured query's qts became visible, for the seal -> visible
/// delay (computed after the phase, once the epochs' seal instants are in).
struct VisibleAt {
  Timestamp qts = aets::kInvalidTimestamp;
  int64_t due_ns = 0;
  int64_t visible_ns = 0;
};

struct QueryStats {
  Samples late_us, visibility_us, query_us, exec_us;
  uint64_t issued = 0, failed = 0, rows = 0;
  std::vector<AnswerToCheck> point_reads, scans;
  std::vector<VisibleAt> visible;
  Status error;  // first scan served at another ts than requested
};

/// One real-time query from its due instant to its result.
struct QueryReq {
  uint64_t key = 0;
  int64_t due_ns = 0;
  int64_t visible_ns = 0;
  Timestamp qts = aets::kInvalidTimestamp;
  const std::vector<TableId>* tables = nullptr;
  TableId table = 0;    // the table read
  int64_t row_key = 0;  // point-read target (in-process workloads)
  bool measured = false;  // due after the warm-up
};

using ReadyQueue = aets::BlockingQueue<QueryReq>;

/// The query generator, an open loop: at each due instant it takes the
/// newest primary commit as qts and pins it, then polls Algorithm 3's
/// visibility test (aets::IsVisible, the non-blocking form of WaitVisible)
/// for every outstanding query and hands each visible one to an executor.
/// Queries wait concurrently, so a slow one never delays the next issue —
/// one blocking WaitVisible per thread would turn the stream closed-loop.
void RunQueryIssuer(Pipeline* p, uint64_t seed, Schedule sched,
                    ReadyQueue* ready, QueryStats* out) {
  const WorkloadSpec& spec = p->spec();
  aets::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED);
  const double period_ns = 1e9 / spec.queries_per_s;
  const double phase = std::string(spec.name) == "bustracker_skew" ? 0.25 : 0.0;
  const aets::Replayer& backup = *p->replayer();
  const auto& queries = p->workload()->analytic_queries();
  std::vector<QueryReq> waiting;
  const int64_t t_end = sched.end_ns;
  int64_t next_due = sched.start_ns;
  for (uint64_t i = 0;;) {
    int64_t now = NowNs();
    while (next_due <= now && next_due < t_end) {
      QueryReq q;
      q.key = i;
      q.due_ns = next_due;
      q.measured = next_due >= sched.measure_ns;
      q.tables = &queries[p->workload()->SampleQuery(&rng, phase)].tables;
      q.table = (*q.tables)[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(q.tables->size()) - 1))];
      q.row_key = p->PickKey(q.table, &rng);
      q.qts = p->db()->last_commit_ts();
      p->pins()->Pin(q.qts);
      if (q.measured) {
        out->late_us.Add(static_cast<double>(now - next_due) / 1e3);
      }
      out->issued++;
      waiting.push_back(q);
      next_due = sched.start_ns +
                 static_cast<int64_t>(static_cast<double>(++i) * period_ns);
    }
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (aets::IsVisible(backup, *it->tables, it->qts)) {
        it->visible_ns = NowNs();
        if (SpanLog::Get().enabled()) {
          SpanLog::Get().Record(Layer::kWaitVisible, it->key, it->due_ns,
                                it->visible_ns);
        }
        ready->Push(*it);
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
    if (next_due >= t_end && waiting.empty()) break;
    int64_t wake = NowNs() + kVisibilityPollNs;
    if (next_due < t_end) wake = std::min(wake, next_due);
    SleepUntilNs(wake);
  }
}

/// Runs visible queries at their qts: a point read on the backup store, or
/// a QueryServer scan over this executor's own connection (TCP workload).
/// Answers are kept for the comparison with the primary after the phase
/// (every point read, one scan in kScanCheckEvery). A failed query (refused,
/// unconnected or clamped) is counted and leaves no latency sample.
void RunQueryExecutor(Pipeline* p, ReadyQueue* ready, Fault plant,
                      QueryStats* out) {
  aets::Replayer* backup = p->replayer();
  const bool tcp = p->spec().tcp_durable;
  std::optional<aets::net::QueryClient> client;
  while (std::optional<QueryReq> q = ready->Pop()) {
    bool failed = false;
    int64_t exec_start = NowNs();
    int64_t done = 0;
    if (!tcp) {
      std::optional<aets::Row> row;
      {
        ScopedSpan span(Layer::kQuery, q->key);
        row = backup->StoreForTable(q->table)->GetTable(q->table)->ReadRow(
            q->row_key, q->qts);
      }
      done = NowNs();
      out->rows += row ? 1 : 0;
      out->point_reads.push_back(
          AnswerToCheck{q->table, q->qts, q->row_key, std::move(row), 0, 0});
    } else {
      // The QueryServer serves at most the backup's global watermark (its
      // cross-shard-safe frontier) and clamps a request above it. The
      // executor waits for that frontier first, so a clamp that still
      // happens is a failed query.
      while (backup->GlobalVisibleTs() < q->qts) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      if (!client) {
        auto c = aets::net::QueryClient::Connect("127.0.0.1", p->query_port());
        if (c.ok()) client.emplace(std::move(*c));
      }
      exec_start = NowNs();
      aets::Result<aets::net::QueryClient::ScanResult> res =
          Status::Internal("not connected");
      if (client) {
        ScopedSpan span(Layer::kQuery, q->key);
        res = client->Scan(q->table, q->qts);
      }
      done = NowNs();
      const Fault fault = q->measured ? plant : Fault::kNone;
      if (!res.ok() || res->busy || fault == Fault::kRefuseScan) {
        failed = true;
        client.reset();  // reconnect for the next query
      } else if (Status served = CheckScanServedAt(
                     q->qts, fault == Fault::kClampScan ? q->qts - 1
                                                        : res->pinned_ts);
                 !served.ok()) {
        failed = true;
        if (out->error.ok()) out->error = served;
      } else {
        out->rows += res->row_count;
        if (q->key % kScanCheckEvery == 0) {
          out->scans.push_back(AnswerToCheck{q->table, q->qts, 0, std::nullopt,
                                             res->digest, res->row_count});
        }
      }
    }
    p->pins()->Unpin(q->qts);
    if (failed) {
      out->failed++;
      continue;
    }
    if (!q->measured) continue;
    out->visible.push_back(VisibleAt{q->qts, q->due_ns, q->visible_ns});
    out->visibility_us.Add(
        static_cast<double>(q->visible_ns - q->due_ns) / 1e3);
    out->query_us.Add(static_cast<double>(done - q->due_ns) / 1e3);
    out->exec_us.Add(static_cast<double>(done - exec_start) / 1e3);
  }
}

// ------------------------------------------------------------------ checks

/// Failed operations: a failed transaction, or a query that was refused or
/// could not connect, leaves a run whose load and answers differ from a
/// clean run's, so its numbers are not comparable. (A clamped scan is a
/// wrong answer and fails the run as an output check instead.)
std::string CheckFailures(uint64_t failed, uint64_t attempted) {
  if (failed == 0) return "";
  return std::to_string(failed) + " of " + std::to_string(attempted) +
         " operations failed";
}

/// Generator validity: a generator whose median lateness over the second
/// half of the phase exceeds kMaxLateMedianUs was behind its schedule most
/// of that time, so it no longer offered the stated load. A transient
/// stall (e.g. a commit blocked on a segment fsync) delays a small share of
/// the operations; it shows in gen.late_us_p99 and the latency metrics,
/// not here.
std::string CheckGenerator(const char* which, const Samples& late_us) {
  const std::vector<double>& v = late_us.values();
  if (v.size() < 10) return "";
  Samples second_half;
  for (size_t i = v.size() / 2; i < v.size(); ++i) second_half.Add(v[i]);
  double median = second_half.Percentile(50);
  if (median > kMaxLateMedianUs) {
    return std::string(which) + " generator fell behind its schedule: " +
           "median lateness " + std::to_string(median) +
           " us over the second half of the phase";
  }
  return "";
}

/// Backlog validity: the steady phase must be sustainable, i.e. the epochs
/// waiting at the backup in the last quarter of the phase must not have
/// outgrown the first quarter.
std::string CheckBacklog(const std::vector<std::pair<int64_t, double>>& s) {
  if (s.size() < 8) return "";
  size_t q = s.size() / 4;
  double first = 0, last = 0;
  for (size_t i = 0; i < q; ++i) first += s[i].second;
  for (size_t i = s.size() - q; i < s.size(); ++i) last += s[i].second;
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  if (last > std::max(kMinBacklogLimit, 2 * first + 4)) {
    return "steady backlog keeps growing: " + std::to_string(first) +
           " -> " + std::to_string(last) + " epochs";
  }
  return "";
}

// -------------------------------------------------------------------- pass

using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Put(Metrics* m, const std::string& name, double v, const char* unit) {
  m->push_back({name, {v, unit}});
}

/// Builds pipelines for one slice and times every setup.
struct SetupLog {
  SetupLog(const WorkloadSpec& s, const Args& a, std::string t)
      : spec(s), args(a), tag(std::move(t)) {}

  const WorkloadSpec& spec;
  const Args& args;
  std::string tag;
  Samples setup_s;
  int next = 0;

  /// Builds and sets up a fresh pipeline, timing it into setup_s.
  std::unique_ptr<Pipeline> Make(Status* error) {
    std::string dir = args.tmp_dir + "/" + tag + std::to_string(next++);
    int64_t t0 = NowNs();
    auto p = std::make_unique<Pipeline>(spec, args.seed, dir);
    Status s = p->Setup();
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    if (!s.ok()) {
      *error = Status::Internal("setup: " + s.ToString());
      return nullptr;
    }
    return p;
  }
};

/// Commits are recorded in txn-id order.
const CommitRec* FindCommit(const std::vector<CommitRec>& commits,
                            aets::TxnId id) {
  auto it = std::lower_bound(
      commits.begin(), commits.end(), id,
      [](const CommitRec& c, aets::TxnId v) { return c.txn_id < v; });
  return it != commits.end() && it->txn_id == id ? &*it : nullptr;
}

/// Seal -> visible delay of each measured query: from the seal of the epoch
/// that holds its qts, or from its due instant if that is later, until
/// Algorithm 3 reported qts visible. The seal instant of an epoch is the
/// entry of the OnCommit call that added its last transaction. Unlike the
/// delay from the due instant, this leaves out the wait for the epoch to
/// fill: it is ship (encode, CRC, segment append, transit) plus replay.
/// Commits and arrivals are recorded only while tracing.
Samples SealToVisible(const std::vector<VisibleAt>& visible,
                      const std::vector<Arrival>& arrivals,
                      const std::vector<CommitRec>& commits) {
  std::vector<std::pair<Timestamp, int64_t>> seals;  // (max commit ts, ns)
  for (const Arrival& a : arrivals) {
    if (a.heartbeat) continue;
    if (const CommitRec* c = FindCommit(commits, a.last_txn)) {
      seals.push_back({a.max_ts, c->start_ns});
    }
  }
  Samples out;
  for (const VisibleAt& v : visible) {
    auto it = std::lower_bound(
        seals.begin(), seals.end(), v.qts,
        [](const std::pair<Timestamp, int64_t>& e, Timestamp ts) {
          return e.first < ts;
        });
    if (it == seals.end()) continue;
    int64_t from = std::max(v.due_ns, it->second);
    out.Add(static_cast<double>(v.visible_ns - from) / 1e3);
  }
  return out;
}

struct SteadyResult {
  Status error;  // an output check or setup failed
  // An operation failed, the generator fell behind or the backlog grew.
  std::string invalid;
  Samples setup_s, visibility_us, query_us;
  uint64_t attempted = 0, failed = 0;
  Metrics layers;
};

/// `setups` timed setups (all but the last torn down again), then the
/// steady phase on the last pipeline: open-loop commits and queries for
/// `seconds`, recorded (traced) or not.
SteadyResult RunSteady(const WorkloadSpec& spec, const Args& args,
                       double seconds, bool traced, int setups,
                       const std::string& tag) {
  SteadyResult r;
  SetupLog log{spec, args, tag + "-steady"};
  ProcSample p_begin = ProcSample::Now();
  std::unique_ptr<Pipeline> p;
  for (int i = 0; i < setups; ++i) {
    p = log.Make(&r.error);
    if (!p) return r;
    if (i + 1 < setups) {
      r.error = p->Shutdown();
      if (!r.error.ok()) return r;
    }
  }
  r.setup_s = log.setup_s;
  ProcSample p_setup = ProcSample::Now();

  SpanLog::Get().Enable(traced);
  p->SetRecording(traced);
  const StatsSnap s0 = StatsSnap::Take(p.get());
  Poller poller(p.get(), traced);
  poller.Start();
  Schedule sched;
  sched.start_ns = NowNs() + 2'000'000;
  sched.measure_ns = sched.start_ns + static_cast<int64_t>(kWarmupS * 1e9);
  sched.end_ns = sched.measure_ns + static_cast<int64_t>(seconds * 1e9);
  // Generator threads: this one commits; one issues queries; the
  // executors run them (one QueryServer connection each on TCP).
  std::vector<QueryStats> qstats(static_cast<size_t>(spec.query_threads) + 1);
  ReadyQueue ready;
  std::vector<std::thread> qthreads;
  qthreads.emplace_back(RunQueryIssuer, p.get(), args.seed, sched, &ready,
                        &qstats[0]);
  for (int t = 1; t <= spec.query_threads; ++t) {
    qthreads.emplace_back(RunQueryExecutor, p.get(), &ready, args.plant,
                          &qstats[static_cast<size_t>(t)]);
  }
  GenStats gen;
  aets::Rng rng(args.seed ^ 0x4F4C5450ull);
  RunCommitSchedule(p.get(), &rng, sched, spec.txn_per_s, &gen);
  qthreads.front().join();
  ready.Close();
  for (size_t t = 1; t < qthreads.size(); ++t) qthreads[t].join();
  ProcSample p_steady = ProcSample::Now();
  poller.Stop();
  p->SetRecording(false);
  SpanLog::Get().Enable(false);
  const StatsSnap steady = StatsSnap::Take(p.get()) - s0;
  p->channel()->PopArrivals(&poller.arrivals);
  Status answers;
  for (const QueryStats& q : qstats) {
    if (answers.ok()) answers = q.error;
    for (const AnswerToCheck& a : q.point_reads) {
      if (!answers.ok()) break;
      answers = CheckPointRead(a.row, p->db()->Read(a.table, a.row_key, a.qts));
    }
    for (const AnswerToCheck& a : q.scans) {
      if (!answers.ok()) break;
      const aets::Memtable* primary = p->db()->store().GetTable(a.table);
      answers = CheckScanMatches(a.digest, a.rows, primary->DigestAt(a.qts),
                                 primary->VisibleRowCount(a.qts));
    }
  }
  std::vector<CommitRec> commits = p->TakeCommits();
  std::vector<GcRec> gc_passes = p->TakeGcPasses();
  r.error = p->Shutdown();
  if (r.error.ok()) r.error = answers;
  p.reset();

  QueryStats qs;
  for (const QueryStats& q : qstats) {
    qs.late_us.Append(q.late_us);
    qs.visibility_us.Append(q.visibility_us);
    qs.query_us.Append(q.query_us);
    qs.exec_us.Append(q.exec_us);
    qs.visible.insert(qs.visible.end(), q.visible.begin(), q.visible.end());
    qs.issued += q.issued;
    qs.failed += q.failed;
    qs.rows += q.rows;
  }
  r.visibility_us = qs.visibility_us;
  r.query_us = qs.query_us;
  r.attempted = gen.issued + qs.issued;
  r.failed = gen.failed + qs.failed;
  if (!r.error.ok()) return r;
  r.invalid = CheckFailures(r.failed, r.attempted);
  if (r.invalid.empty()) r.invalid = CheckGenerator("commit", gen.late_us);
  if (r.invalid.empty()) r.invalid = CheckGenerator("query", qs.late_us);
  if (r.invalid.empty()) r.invalid = CheckBacklog(poller.backlog);

  // ---- per layer (steady phase)
  Metrics& m = r.layers;
  // Seal instant of a size-sealed epoch = entry of the OnCommit call that
  // added its last transaction.
  auto find_commit = [&](aets::TxnId id) { return FindCommit(commits, id); };
  Samples assembly_us, seal_us, bytes, transit_us;
  for (const Arrival& a : poller.arrivals) {
    if (a.heartbeat) continue;
    bytes.Add(static_cast<double>(a.bytes));
    if (a.num_txns != kEpochSize) continue;
    const CommitRec* last = find_commit(a.last_txn);
    if (last == nullptr) continue;
    seal_us.Add(static_cast<double>(last->end_ns - last->start_ns) / 1e3);
    transit_us.Add(static_cast<double>(a.t_ns - last->start_ns) / 1e3);
    for (aets::TxnId id = a.last_txn - kEpochSize + 1; id <= a.last_txn; ++id) {
      if (const CommitRec* c = find_commit(id)) {
        assembly_us.Add(
            static_cast<double>(last->start_ns - c->start_ns) / 1e3);
      }
    }
  }
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  auto per = [](double v, uint64_t n) {
    return v / static_cast<double>(std::max<uint64_t>(1, n));
  };
  Put(&m, "replication.assembly_wait_us_p50", assembly_us.Percentile(50), "us");
  Put(&m, "replication.seal_us_p99", seal_us.Percentile(99), "us");
  Put(&m, "replication.epoch_bytes_p50", bytes.Percentile(50), "bytes");
  Put(&m, "replication.epochs_shipped", count(steady.shipped), "count");
  Put(&m, "replication.heartbeats_shipped", count(steady.hb_shipped), "count");
  Put(&m, "replication.retransmits", count(steady.retransmits), "count");
  Put(&m, "storage.segment.bytes_per_txn",
      per(count(steady.seg_bytes), gen.issued), "bytes");
  Put(&m, "storage.segment.fsyncs", count(steady.seg_fsyncs), "count");
  Put(&m, "net.transit_us_p50", transit_us.Percentile(50), "us");
  Put(&m, "net.transit_us_p99", transit_us.Percentile(99), "us");
  Put(&m, "net.reconnects", count(steady.reconnects), "count");
  Put(&m, "net.rpc_failures", count(steady.rpc_failures), "count");
  Put(&m, "net.busy_rejects", count(steady.admission_rejects), "count");
  Put(&m, "replay.apply_us_p50", poller.apply_us.Percentile(50), "us");
  Put(&m, "replay.apply_us_p99", poller.apply_us.Percentile(99), "us");
  Samples seal_to_visible = SealToVisible(qs.visible, poller.arrivals, commits);
  Put(&m, "replay.seal_to_visible_us_p50", seal_to_visible.Percentile(50), "us");
  Put(&m, "replay.seal_to_visible_us_p90", seal_to_visible.Percentile(90), "us");
  Put(&m, "replay.hot_visible_us_p50", poller.hot_us.Percentile(50), "us");
  Put(&m, "replay.cold_visible_us_p50", poller.cold_us.Percentile(50), "us");
  double backlog_max = 0;
  for (const auto& b : poller.backlog) {
    backlog_max = std::max(backlog_max, b.second);
  }
  Put(&m, "replay.backlog_epochs_max", backlog_max, "count");
  Put(&m, "replay.dispatch_ms", ms(steady.dispatch_ns), "ms");
  Put(&m, "replay.translate_ms", ms(steady.replay_ns), "ms");
  Put(&m, "replay.commit_ms", ms(steady.commit_ns), "ms");
  Put(&m, "replay.stage1_ms", ms(steady.stage1_ns), "ms");
  Put(&m, "replay.stage2_ms", ms(steady.stage2_ns), "ms");
  Put(&m, "replay.pipeline_stalls", count(steady.pipeline_stalls), "count");
  Put(&m, "replay.epochs_retried", count(steady.epochs_retried), "count");
  Samples gc_us;
  double reclaimed = 0;
  for (const GcRec& g : gc_passes) {
    gc_us.Add(static_cast<double>(g.end_ns - g.start_ns) / 1e3);
    reclaimed += static_cast<double>(g.reclaimed);
  }
  Put(&m, "storage.gc.pass_us_p99", gc_us.Percentile(99), "us");
  Put(&m, "storage.gc.versions_reclaimed", reclaimed, "count");
  Put(&m, "storage.column.publish_lag_us_p50",
      poller.publish_lag_us.Percentile(50), "us");
  // The residual counter is process-wide; only QueryServer scans feed it.
  Put(&m, "storage.column.residual_rows_per_query",
      spec.tcp_durable ? per(count(steady.residual_rows), qs.issued) : 0.0,
      "rows");
  Put(&m, "query.exec_us_p50", qs.exec_us.Percentile(50), "us");
  Put(&m, "query.exec_us_p99", qs.exec_us.Percentile(99), "us");
  Put(&m, "query.rows_per_query", per(count(qs.rows), qs.issued), "rows");
  Put(&m, "proc.threads", poller.max_threads, "count");
  ProcDelta steady_proc = Diff(p_setup, p_steady);
  Put(&m, "proc.steady.cores_busy", steady_proc.cores_busy, "cores");
  Put(&m, "proc.steady.sys_frac", steady_proc.sys_frac, "frac");
  Put(&m, "proc.steady.ctx_switches_per_ktxn",
      per(steady_proc.ctx_switches * 1000, gen.issued), "count");
  Put(&m, "proc.setup.cores_busy", Diff(p_begin, p_setup).cores_busy, "cores");
  Samples late = gen.late_us;
  late.Append(qs.late_us);
  Put(&m, "gen.late_us_p99", late.Percentile(99), "us");
  Put(&m, "gen.offered_txn_per_s", count(gen.issued) / (seconds + kWarmupS),
      "1/s");
  Put(&m, "gen.offered_qps", count(qs.issued) / (seconds + kWarmupS), "1/s");
  Put(&m, "primary.txn_us_p50", gen.txn_us.Percentile(50), "us");

  if (traced) {
    std::vector<Span> spans = SpanLog::Get().Drain();
    LayerTimes lt = SummarizeSpans(spans);
    auto self = [&](Layer l) { return lt.self_ms[static_cast<int>(l)]; };
    Put(&m, "self.primary_ms", self(Layer::kPrimaryTxn), "ms");
    Put(&m, "self.shipper_ms", self(Layer::kCommitSink), "ms");
    Put(&m, "self.arrival_ms", self(Layer::kArrival), "ms");
    Put(&m, "self.wait_visible_ms", self(Layer::kWaitVisible), "ms");
    Put(&m, "self.query_ms", self(Layer::kQuery), "ms");
    Put(&m, "self.gc_ms", self(Layer::kGcPass), "ms");
    if (!args.out_dir.empty()) {
      std::string path = args.out_dir + "/trace-" + spec.name + "-seed" +
                         std::to_string(args.seed) + ".jsonl";
      if (WriteJsonl(spans, path)) {
        std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(),
                     path.c_str());
      }
    }
  }
  return r;
}

struct BurstResult {
  Status error;
  Samples setup_s;
  Samples drain_s;  // per burst: release -> last burst commit visible
  uint64_t attempted = 0, failed = 0;
  Metrics layers;
};

/// `bursts` bursts, each on a freshly set-up pipeline of its own (so every
/// burst drains into the same freshly loaded backup): the channel holds the
/// epochs while the primary commits B transactions unthrottled, then
/// releases them at once; the drain time runs from the release until the
/// global watermark covers the last burst commit. The replay rate of a set
/// of bursts is their transactions over their summed drain time.
BurstResult RunBursts(const WorkloadSpec& spec, const Args& args, int bursts,
                      const std::string& tag) {
  BurstResult r;
  SetupLog log{spec, args, tag + "-burst"};
  StatsSnap total;
  double drain_cpu_s = 0, drain_sys_s = 0, drain_wall_s = 0, drain_ctx = 0;
  double generate_s = 0;
  for (int b = 0; b < bursts && r.error.ok(); ++b) {
    std::unique_ptr<Pipeline> p = log.Make(&r.error);
    if (!p) break;
    const StatsSnap s0 = StatsSnap::Take(p.get());
    aets::Rng rng(args.seed * 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(b));
    p->channel()->Hold();
    int64_t g0 = NowNs();
    for (uint64_t k = 0; k < spec.burst_txns; ++k) {
      if (!p->workload()->RunOltpTransaction(p->db(), &rng).ok()) r.failed++;
    }
    r.attempted += spec.burst_txns;
    generate_s += static_cast<double>(NowNs() - g0) / 1e9;
    Timestamp last = p->db()->last_commit_ts();
    p->shipper()->FlushEpoch();
    int64_t deadline = NowNs() + 30'000'000'000;
    while (p->channel()->held_max_ts() < last && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ProcSample a = ProcSample::Now();
    int64_t released = NowNs();
    p->channel()->Release();
    while (p->replayer()->GlobalVisibleTs() < last) {
      if (!p->replayer()->error().ok() || NowNs() > deadline) {
        r.error = Status::TimedOut("burst drain did not finish");
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    int64_t visible = NowNs();
    ProcDelta d = Diff(a, ProcSample::Now());
    r.drain_s.Add(static_cast<double>(visible - released) / 1e9);
    drain_wall_s += d.wall_s;
    drain_cpu_s += d.cores_busy * d.wall_s;
    drain_sys_s += d.sys_frac * d.cores_busy * d.wall_s;
    drain_ctx += d.ctx_switches;
    total = total + (StatsSnap::Take(p.get()) - s0);
    Status shut = p->Shutdown();
    if (r.error.ok()) r.error = shut;
  }
  r.setup_s = log.setup_s;
  Metrics& m = r.layers;
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  Put(&m, "replay.burst.dispatch_ms", ms(total.dispatch_ns), "ms");
  Put(&m, "replay.burst.translate_ms", ms(total.replay_ns), "ms");
  Put(&m, "replay.burst.commit_ms", ms(total.commit_ns), "ms");
  Put(&m, "replay.burst.stage1_ms", ms(total.stage1_ns), "ms");
  Put(&m, "replay.burst.stage2_ms", ms(total.stage2_ns), "ms");
  Put(&m, "replay.burst.pipeline_stalls",
      static_cast<double>(total.pipeline_stalls), "count");
  Put(&m, "proc.cores_busy", drain_wall_s > 0 ? drain_cpu_s / drain_wall_s : 0,
      "cores");
  Put(&m, "proc.sys_frac", drain_cpu_s > 0 ? drain_sys_s / drain_cpu_s : 0,
      "frac");
  Put(&m, "proc.ctx_switches_per_ktxn",
      drain_ctx * 1000 /
          static_cast<double>(std::max<uint64_t>(1, r.attempted)),
      "count");
  Put(&m, "primary.burst_txn_per_s",
      generate_s > 0 ? static_cast<double>(r.attempted) / generate_s : 0,
      "1/s");
  return r;
}

double ReplayRate(const BurstResult& r, const WorkloadSpec& spec) {
  double drain = 0;
  for (double d : r.drain_s.values()) drain += d;
  return drain > 0 ? static_cast<double>(r.drain_s.count() * spec.burst_txns) /
                         drain
                   : 0;
}

double PeakRssMb() {
  return static_cast<double>(ProcSample::Now().maxrss_kb) / 1024.0;
}

void PrintSamples(const char* key, const Samples& s) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < s.values().size(); ++i) {
    std::printf("%s%.10g", i == 0 ? "" : ", ", s.values()[i]);
  }
  std::printf("]");
}

void PrintResult(uint64_t attempted, uint64_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Reports a failed slice on stderr; returns the exit code, 0 if it passed.
int Verdict(const Status& error, const std::string& invalid, const char* what,
            const Metrics& layers) {
  if (!error.ok()) {
    std::fprintf(stderr, "%s: FAILED: %s\n", what, error.ToString().c_str());
    return error.code() == aets::StatusCode::kCorruption ? 1 : 2;
  }
  if (!invalid.empty()) {
    std::fprintf(stderr, "%s: INVALID: %s\n", what, invalid.c_str());
    for (const auto& [name, v] : layers) {
      std::fprintf(stderr, "  %s = %.6g %s\n", name.c_str(), v.first,
                   v.second.c_str());
    }
    return 3;
  }
  return 0;
}

// --------------------------------------------------------------- self-test

/// Shows that every output and validity check fires on a planted mismatch,
/// using rows and digests of a real (small) pipeline run.
int SelfTest(const Args& args) {
  int fired = 0, missed = 0;
  auto expect_fire = [&](const char* check, const Status& s) {
    if (s.ok()) {
      std::printf("self-test: %-28s DID NOT FIRE\n", check);
      missed++;
    } else {
      std::printf("self-test: %-28s fired: %s\n", check, s.ToString().c_str());
      fired++;
    }
  };
  auto expect_fire_str = [&](const char* check, const std::string& why) {
    expect_fire(check, why.empty() ? Status::OK() : Status::Aborted(why));
  };

  Pipeline p(*FindSpec("tpcc_steady"), args.seed, args.tmp_dir + "/selftest");
  Status s = p.Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "self-test setup: %s\n", s.ToString().c_str());
    return 2;
  }
  aets::Rng rng(args.seed);
  for (int i = 0; i < 2000; ++i) {
    (void)p.workload()->RunOltpTransaction(p.db(), &rng);
  }
  Timestamp ts = p.db()->last_commit_ts();
  s = p.WaitGlobal(ts, 30'000);
  if (!s.ok()) {
    std::fprintf(stderr, "self-test catch-up: %s\n", s.ToString().c_str());
    return 2;
  }
  // Point read: the backup's district row against a different district's
  // row on the primary, and against a key the primary does not have.
  auto* tpcc = static_cast<aets::TpccWorkload*>(p.workload());
  TableId dist = tpcc->district();
  const int64_t key = tpcc->DistrictKey(1, 1);
  std::optional<aets::Row> b1 =
      p.replayer()->store()->GetTable(dist)->ReadRow(key, ts);
  bool clean_ok = CheckPointRead(b1, p.db()->Read(dist, key, ts)).ok();
  expect_fire("point read (row differs)",
              CheckPointRead(b1, p.db()->Read(dist, key + 1, ts)));
  expect_fire("point read (row missing)",
              CheckPointRead(b1, p.db()->Read(dist, -1, ts)));
  // Scans: a clamped pinned ts, and the backup's order_line against the
  // primary's at an older snapshot.
  expect_fire("scan served at requested ts", CheckScanServedAt(ts, ts - 1));
  const aets::Memtable* bl = p.replayer()->store()->GetTable(tpcc->orderline());
  const aets::Memtable* pl = p.db()->store().GetTable(tpcc->orderline());
  clean_ok = clean_ok &&
             CheckScanMatches(bl->DigestAt(ts), bl->VisibleRowCount(ts),
                              pl->DigestAt(ts), pl->VisibleRowCount(ts))
                 .ok();
  Timestamp old_ts = ts - 1000;
  expect_fire("scan matches primary",
              CheckScanMatches(bl->DigestAt(ts), bl->VisibleRowCount(ts),
                               pl->DigestAt(old_ts),
                               pl->VisibleRowCount(old_ts)));
  s = p.Shutdown();
  clean_ok = clean_ok && s.ok();
  uint64_t backup =
      aets::ReplicaDigestAt(p.replayer(), &p.workload()->catalog(), ts);
  expect_fire("final digest",
              CheckFinalDigest(backup, p.db()->store().DigestAt(old_ts)));
  // Validity: a generator 50 ms late from the 40th operation on, a backlog
  // growing linearly.
  Samples late;
  for (int i = 0; i < 100; ++i) late.Add(i < 40 ? 50.0 : 50'000.0);
  expect_fire_str("generator behind schedule", CheckGenerator("planted", late));
  std::vector<std::pair<int64_t, double>> growing, flat;
  Samples on_time;
  for (int i = 0; i < 100; ++i) {
    growing.push_back({i, static_cast<double>(i)});
    flat.push_back({i, static_cast<double>(i % 3)});
    on_time.Add(50.0 + i % 7);
  }
  expect_fire_str("backlog growing", CheckBacklog(growing));
  clean_ok = clean_ok && CheckGenerator("clean", on_time).empty() &&
             CheckBacklog(flat).empty();

  // Run level, on short chbench steady phases: a clamped or a refused scan
  // on every measured query stops the run (exit 1 / exit 3) and leaves no
  // latency sample; the clean phase passes with samples.
  struct Planted {
    Fault fault;
    const char* check;
    int code;
  };
  for (const Planted& pl :
       {Planted{Fault::kNone, "clean steady phase", 0},
        Planted{Fault::kClampScan, "clamped scan stops the run", 1},
        Planted{Fault::kRefuseScan, "refused scan stops the run", 3}}) {
    Args a = args;
    a.plant = pl.fault;
    SteadyResult r = RunSteady(*FindSpec("chbench_tcp_durable"), a, 0.5,
                               /*traced=*/false, 1,
                               "selftest" + std::to_string(pl.code));
    int code = Verdict(r.error, r.invalid, pl.check, Metrics{});
    size_t sampled = r.visibility_us.count() + r.query_us.count();
    if (pl.fault == Fault::kNone) {
      clean_ok = clean_ok && code == 0 && sampled > 0;
      continue;
    }
    const bool ok = code == pl.code && r.failed > 0 && sampled == 0;
    std::printf("self-test: %-28s %s: exit %d, %llu failed, %zu samples\n",
                pl.check, ok ? "fired" : "DID NOT FIRE", code,
                static_cast<unsigned long long>(r.failed), sampled);
    if (ok) {
      fired++;
    } else {
      missed++;
    }
  }

  std::printf("self-test: clean data passes every check: %s\n",
              clean_ok ? "yes" : "NO");
  std::printf("self-test: %d fired, %d missed\n", fired, missed);
  return missed == 0 && clean_ok ? 0 : 1;
}

// -------------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (flag == "--build-info") {
      a->build_info = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atof(v.c_str());
    else if (flag == "--trace") a->trace = v == "1";
    else if (flag == "--slice") a->slice = v;
    else if (flag == "--tmp-dir") a->tmp_dir = v;
    else if (flag == "--out-dir") a->out_dir = v;
    else return false;
  }
  if (a->build_info) return true;
  if (a->self_test) return !a->tmp_dir.empty();
  if (a->workload.empty() || a->tmp_dir.empty() || a->seconds <= 0) {
    return false;
  }
  return a->trace || a->slice == "steady" || a->slice == "burst";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: %s --workload <name> --seed <n> --tmp-dir <dir>\n"
        "         --seconds <steady-phase seconds> and one of\n"
        "         --slice steady | --slice burst | --trace 1 [--out-dir <dir>]\n"
        "       %s --self-test --tmp-dir <dir>\n"
        "       %s --build-info\n",
        argv[0], argv[0], argv[0]);
    return 2;
  }
  if (args.build_info) {
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"ndebug\": %s}\n",
                AETS_PB_BUILD_TYPE, AETS_PB_COMPILER,
                ndebug ? "true" : "false");
    return 0;
  }
  if (args.self_test) return SelfTest(args);
  const WorkloadSpec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& n : SpecNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args.slice == "steady") {
    SteadyResult r = RunSteady(*spec, args, args.seconds, /*traced=*/false,
                               kSetupsPerSteadySlice, "e2e");
    if (int code = Verdict(r.error, r.invalid, spec->name, r.layers)) {
      return code;
    }
    std::printf("{\"slice\": \"steady\", \"attempted\": %llu, "
                "\"failed\": %llu, "
                "\"peak_rss_mb\": %.10g, ",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), PeakRssMb());
    PrintSamples("setup_s", r.setup_s);
    std::printf(", ");
    PrintSamples("visibility_us", r.visibility_us);
    std::printf(", ");
    PrintSamples("query_us", r.query_us);
    std::printf("}\n");
    return 0;
  }
  if (args.slice == "burst") {
    BurstResult r = RunBursts(*spec, args, 1, "e2e");
    if (int code = Verdict(r.error, CheckFailures(r.failed, r.attempted),
                           spec->name, r.layers)) {
      return code;
    }
    std::printf("{\"slice\": \"burst\", \"attempted\": %llu, \"failed\": %llu, "
                "\"peak_rss_mb\": %.10g, ",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), PeakRssMb());
    PrintSamples("setup_s", r.setup_s);
    std::printf(", ");
    PrintSamples("drain_s", r.drain_s);
    std::printf(", \"burst_txns\": %llu}\n",
                static_cast<unsigned long long>(spec->burst_txns));
    return 0;
  }
  // Traced mode (per-layer metrics): an untraced steady phase first, so the
  // tracing overhead is the traced one minus it on the same seed; then the
  // bursts, which record no spans.
  SteadyResult base = RunSteady(*spec, args, args.seconds, false, 1, "base");
  if (int code = Verdict(base.error, base.invalid, spec->name, base.layers)) {
    return code;
  }
  SteadyResult traced = RunSteady(*spec, args, args.seconds, true, 1, "traced");
  if (int code =
          Verdict(traced.error, traced.invalid, spec->name, traced.layers)) {
    return code;
  }
  BurstResult bursts = RunBursts(*spec, args, kTracedBursts, "traced");
  if (int code = Verdict(bursts.error,
                         CheckFailures(bursts.failed, bursts.attempted),
                         spec->name, bursts.layers)) {
    return code;
  }
  Metrics m = traced.layers;
  m.insert(m.end(), bursts.layers.begin(), bursts.layers.end());
  Put(&m, "replay.burst.txn_per_s", ReplayRate(bursts, *spec), "1/s");
  Put(&m, "trace.overhead.visibility_p50_us",
      traced.visibility_us.Percentile(50) - base.visibility_us.Percentile(50),
      "us");
  Put(&m, "trace.overhead.query_p50_us",
      traced.query_us.Percentile(50) - base.query_us.Percentile(50), "us");
  PrintResult(base.attempted + traced.attempted + bursts.attempted,
              base.failed + traced.failed + bursts.failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
