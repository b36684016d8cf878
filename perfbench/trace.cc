#include "trace.h"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPrimaryTxn:
      return "primary.txn";
    case Layer::kCommitSink:
      return "replication.on_commit";
    case Layer::kArrival:
      return "backup.arrival";
    case Layer::kWaitVisible:
      return "replay.wait_visible";
    case Layer::kQuery:
      return "query.exec";
    case Layer::kGcPass:
      return "storage.gc.pass";
    case Layer::kNumLayers:
      break;
  }
  return "?";
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();  // outlives every recording thread
  return *log;
}

SpanLog::ThreadBuf* SpanLog::Local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    buf = new ThreadBuf();
    std::lock_guard<std::mutex> lk(mu_);
    bufs_.push_back(buf);
  }
  return buf;
}

void SpanLog::Begin(Layer layer, uint64_t key) {
  ThreadBuf* buf = Local();
  uint64_t parent =
      buf->open.empty() ? 0 : buf->spans[buf->open.back()].id;
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  buf->open.push_back(buf->spans.size());
  buf->spans.push_back(Span{layer, id, parent, key, NowNs(), 0});
}

void SpanLog::End() {
  ThreadBuf* buf = Local();
  if (buf->open.empty()) return;
  buf->spans[buf->open.back()].end_ns = NowNs();
  buf->open.pop_back();
}

void SpanLog::Record(Layer layer, uint64_t key, int64_t start_ns,
                     int64_t end_ns) {
  ThreadBuf* buf = Local();
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  buf->spans.push_back(Span{layer, id, 0, key, start_ns, end_ns});
}

std::vector<Span> SpanLog::Drain() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> out;
  for (ThreadBuf* buf : bufs_) {
    for (const Span& s : buf->spans) {
      if (s.end_ns != 0) out.push_back(s);
    }
    buf->spans.clear();
    buf->open.clear();
  }
  return out;
}

LayerTimes SummarizeSpans(const std::vector<Span>& spans) {
  LayerTimes t;
  std::map<uint64_t, double> child_ns;  // parent id -> covered time
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (const Span& s : spans) {
    int i = static_cast<int>(s.layer);
    double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto it = child_ns.find(s.id);
    double self = dur - (it == child_ns.end() ? 0.0 : it->second);
    t.self_ms[i] += self / 1e6;
  }
  return t;
}

bool WriteJsonl(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"layer\":\"%s\",\"id\":%llu,\"parent\":%llu,\"key\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 LayerName(s.layer), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.key),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ProcSample ProcSample::Now() {
  ProcSample p;
  p.wall_ns = NowNs();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  p.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  p.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  p.vol_ctx = ru.ru_nvcsw;
  p.invol_ctx = ru.ru_nivcsw;
  p.maxrss_kb = ru.ru_maxrss;
  return p;
}

ProcDelta Diff(const ProcSample& a, const ProcSample& b) {
  ProcDelta d;
  d.wall_s = static_cast<double>(b.wall_ns - a.wall_ns) / 1e9;
  double cpu = (b.user_s - a.user_s) + (b.sys_s - a.sys_s);
  d.cores_busy = d.wall_s > 0 ? cpu / d.wall_s : 0;
  d.sys_frac = cpu > 0 ? (b.sys_s - a.sys_s) / cpu : 0;
  d.ctx_switches = static_cast<double>((b.vol_ctx - a.vol_ctx) +
                                       (b.invol_ctx - a.invol_ctx));
  return d;
}

int CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int n = 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

}  // namespace perfbench
