#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <thread>

#include "aets/bench/harness.h"
#include "aets/workload/bustracker.h"
#include "aets/workload/chbenchmark.h"
#include "aets/workload/tpcc.h"

namespace perfbench {

using aets::Status;
using aets::TableId;
using aets::Timestamp;

namespace {

// Steady rates sit well below what one primary thread and the backup
// sustain on a 4-core host (see README.md, "Rates"); B is sized so one
// held burst drains for a few hundred milliseconds.
const WorkloadSpec kSpecs[] = {
    {"tpcc_steady", /*txn_per_s=*/4000, /*queries_per_s=*/400,
     /*query_threads=*/2, /*burst_txns=*/8192, /*tcp_durable=*/false},
    {"bustracker_skew", 8000, 400, 2, 32768, false},
    {"chbench_tcp_durable", 2000, 100, 2, 8192, true},
};

// BusTracker access-rate slot the grouping and the query mix are taken at.
constexpr double kBusSlot = 60;

}  // namespace

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<std::string> SpecNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : kSpecs) out.push_back(s.name);
  return out;
}

// ---------------------------------------------------------------- channel

bool BenchChannel::Send(aets::ShippedEpoch epoch) {
  ScopedSpan span(Layer::kArrival, epoch.epoch_id);
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lk(mu_);
  if (recording_.load(std::memory_order_relaxed)) {
    Arrival a;
    a.t_ns = now;
    a.heartbeat = epoch.is_heartbeat();
    a.max_ts = a.heartbeat ? epoch.heartbeat_ts : epoch.max_commit_ts;
    a.bytes = epoch.ByteSize();
    a.num_txns = epoch.num_txns;
    a.last_txn = epoch.last_txn;
    arrivals_.push_back(a);
  }
  if (holding_) {
    Timestamp ts =
        epoch.is_heartbeat() ? epoch.heartbeat_ts : epoch.max_commit_ts;
    held_max_ts_ = std::max(held_max_ts_, ts);
    held_.push_back(std::move(epoch));
    return true;
  }
  // Enqueue under mu_ so a concurrent Release cannot reorder parked epochs
  // behind this one; the queue is unbounded, so the push never blocks.
  bool ok = Enqueue(std::move(epoch));
  if (ok) delivered_.fetch_add(1);
  return ok;
}

void BenchChannel::Hold() {
  std::lock_guard<std::mutex> lk(mu_);
  holding_ = true;
}

size_t BenchChannel::Release() {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = held_.size();
  for (aets::ShippedEpoch& e : held_) {
    if (Enqueue(std::move(e))) delivered_.fetch_add(1);
  }
  held_.clear();
  held_max_ts_ = aets::kInvalidTimestamp;
  holding_ = false;
  return n;
}

Timestamp BenchChannel::held_max_ts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return held_max_ts_;
}

void BenchChannel::PopArrivals(std::vector<Arrival>* out) {
  std::lock_guard<std::mutex> lk(mu_);
  out->insert(out->end(), arrivals_.begin(), arrivals_.end());
  arrivals_.clear();
}

// ------------------------------------------------------------------- pins

void PinSet::Pin(Timestamp ts) {
  std::lock_guard<std::mutex> lk(mu_);
  pins_.insert(ts);
}

void PinSet::Unpin(Timestamp ts) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pins_.find(ts);
  if (it != pins_.end()) pins_.erase(it);
}

Timestamp PinSet::Min() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pins_.empty() ? std::numeric_limits<Timestamp>::max()
                       : *pins_.begin();
}

// --------------------------------------------------------------- pipeline

Pipeline::Pipeline(const WorkloadSpec& spec, uint64_t seed,
                   std::string tmp_dir)
    : spec_(spec), seed_(seed), tmp_dir_(std::move(tmp_dir)) {
  std::string name = spec_.name;
  if (name == "tpcc_steady") {
    workload_ = std::make_unique<aets::TpccWorkload>();
  } else if (name == "bustracker_skew") {
    workload_ = std::make_unique<aets::BusTrackerWorkload>();
  } else {
    workload_ = std::make_unique<aets::ChBenchmarkWorkload>();
  }
  hot_ = workload_->HotTables();
  for (TableId t : workload_->WrittenTables()) {
    if (std::find(hot_.begin(), hot_.end(), t) == hot_.end()) {
      cold_.push_back(t);
    }
  }
}

Pipeline::~Pipeline() { Shutdown(); }

aets::AetsOptions Pipeline::Options() const {
  // AetsOptions defaults throughout; only the grouping configuration is
  // per workload, as in the paper's evaluation (Section VI-A).
  aets::AetsOptions options;
  const aets::Catalog& catalog = workload_->catalog();
  std::string name = spec_.name;
  if (name == "tpcc_steady") {
    auto* tpcc = static_cast<const aets::TpccWorkload*>(workload_.get());
    options.grouping = aets::GroupingMode::kStatic;
    options.static_hot_groups = tpcc->DefaultHotGroups();
    options.initial_rates.assign(catalog.num_tables(), 0.0);
    for (TableId t : {tpcc->district(), tpcc->stock(), tpcc->customer(),
                      tpcc->orders()}) {
      options.initial_rates[t] = 100;
    }
    options.initial_rates[tpcc->orderline()] = 200;
  } else if (name == "bustracker_skew") {
    auto* bus = static_cast<const aets::BusTrackerWorkload*>(workload_.get());
    options.grouping = aets::GroupingMode::kByAccessRate;
    options.initial_rates = bus->TrueRates(kBusSlot);
  } else {
    options.grouping = aets::GroupingMode::kPerTable;
    options.initial_rates.assign(catalog.num_tables(), 0.0);
    for (const aets::AnalyticQuery& q : workload_->analytic_queries()) {
      for (TableId t : q.tables) options.initial_rates[t] += 50.0;
    }
  }
  return options;
}

void Pipeline::Sink(aets::TxnLog txn) {
  if (!recording_.load(std::memory_order_relaxed)) {
    shipper_->OnCommit(std::move(txn));
    return;
  }
  CommitRec rec;
  rec.txn_id = txn.txn_id;
  ScopedSpan span(Layer::kCommitSink, txn.txn_id);
  rec.start_ns = NowNs();
  shipper_->OnCommit(std::move(txn));
  rec.end_ns = NowNs();
  commits_.push_back(rec);
}

Status Pipeline::Setup() {
  const aets::Catalog* catalog = &workload_->catalog();
  db_ = std::make_unique<aets::PrimaryDb>(catalog, &clock_);
  shipper_ = std::make_unique<aets::LogShipper>(kEpochSize);
  if (spec_.tcp_durable) {
    std::error_code ec;
    if (std::filesystem::exists(tmp_dir_, ec)) {
      return Status::AlreadyExists("segment dir not fresh: " + tmp_dir_);
    }
    aets::SegmentStoreOptions so;
    so.dir = tmp_dir_;
    so.fsync_policy = aets::FsyncPolicy::kSegment;
    auto store = aets::SegmentStore::Open(so);
    if (!store.ok()) return store.status();
    segment_store_ = std::move(*store);
    shipper_->AttachSegmentStore(segment_store_.get());

    server_ = std::make_unique<aets::net::EpochStreamServer>(shipper_.get());
    Status s = server_->Start(0);
    if (!s.ok()) return s;
    client_ = std::make_unique<aets::net::EpochStreamClient>(
        "127.0.0.1", server_->port(), /*shard=*/0, &channel_);
    s = client_->Start();
    if (!s.ok()) return s;
    tcp_source_ = std::make_unique<aets::net::TcpEpochSource>(
        "127.0.0.1", server_->port(), /*shard=*/0);
    s = tcp_source_->Connect();
    if (!s.ok()) return s;
    // Subscribe-race guard: EpochStreamClient::Start returns once Hello is
    // sent, and the server attaches the subscriber's channel on its session
    // thread a moment after counting it. Nothing ships until the count is
    // seen plus a settle; Setup then verifies that the load arrived through
    // the live stream, not by NACK.
    int64_t deadline = NowNs() + 5'000'000'000;
    while (server_->subscribers_accepted() < 1) {
      if (NowNs() > deadline) return Status::TimedOut("subscriber not seen");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } else {
    shipper_->AttachChannel(&channel_);
  }
  db_->SetCommitSink([this](aets::TxnLog txn) { Sink(std::move(txn)); });

  replayer_ = std::make_unique<aets::AetsReplayer>(catalog, &channel_,
                                                   Options());
  if (spec_.tcp_durable) {
    replayer_->SetEpochSource(tcp_source_.get());
  } else {
    replayer_->SetEpochSource(shipper_.get());
  }
  Status s = replayer_->Start();
  if (!s.ok()) return s;

  gc_ = std::make_unique<aets::GcDaemon>(replayer_->store(), [this] {
    return std::min(replayer_->GlobalVisibleTs(), pins_.Min());
  });
  gc_->SetPrePassHook([this](Timestamp) { gc_pass_start_ns_ = NowNs(); });
  gc_->SetPostPassHook([this](Timestamp, size_t reclaimed) {
    if (!recording_.load(std::memory_order_relaxed)) return;
    int64_t end = NowNs();
    SpanLog::Get().Record(Layer::kGcPass, reclaimed, gc_pass_start_ns_, end);
    std::lock_guard<std::mutex> lk(gc_mu_);
    gc_passes_.push_back(GcRec{gc_pass_start_ns_, end, reclaimed});
  });
  gc_->Start();

  if (spec_.tcp_durable) {
    coordinator_.AttachShard([this] { return replayer_->GlobalVisibleTs(); });
    query_server_ = std::make_unique<aets::net::QueryServer>(replayer_.get(),
                                                             &coordinator_);
    s = query_server_->Start(0);
    if (!s.ok()) return s;
  }

  aets::Rng rng(seed_);
  workload_->Load(db_.get(), &rng);
  shipper_->StartHeartbeats([this] { return db_->AcquireHeartbeatTs(); });
  s = WaitGlobal(db_->last_commit_ts(), 60'000);
  if (!s.ok()) return s;
  if (spec_.tcp_durable && shipper_->retransmits() != 0) {
    return Status::Internal("subscribe race: " +
                           std::to_string(shipper_->retransmits()) +
                           " load epochs arrived by NACK, not the live stream");
  }
  return Status::OK();
}

Status Pipeline::WaitGlobal(Timestamp ts, int64_t timeout_ms) {
  shipper_->FlushEpoch();
  int64_t deadline = NowNs() + timeout_ms * 1'000'000;
  while (replayer_->GlobalVisibleTs() < ts) {
    if (!replayer_->error().ok()) return replayer_->error();
    if (NowNs() > deadline) {
      return Status::TimedOut("backup did not reach ts " + std::to_string(ts));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return Status::OK();
}

uint16_t Pipeline::query_port() const {
  return query_server_ ? query_server_->port() : 0;
}

void Pipeline::SetRecording(bool on) {
  recording_.store(on);
  channel_.SetRecording(on);
}

std::vector<CommitRec> Pipeline::TakeCommits() { return std::move(commits_); }

std::vector<GcRec> Pipeline::TakeGcPasses() {
  std::lock_guard<std::mutex> lk(gc_mu_);
  return std::move(gc_passes_);
}

int64_t Pipeline::PickKey(TableId table, aets::Rng* rng) const {
  const aets::TpccWorkload* tpcc = nullptr;
  if (auto* t = dynamic_cast<const aets::TpccWorkload*>(workload_.get())) {
    tpcc = t;
  } else if (auto* ch = dynamic_cast<const aets::ChBenchmarkWorkload*>(
                 workload_.get())) {
    tpcc = &ch->tpcc();
  }
  if (tpcc == nullptr) {
    auto* bus = static_cast<const aets::BusTrackerWorkload*>(workload_.get());
    return rng->UniformInt(1, bus->config().rows_per_table);
  }
  const aets::TpccConfig& c = tpcc->config();
  int w = static_cast<int>(rng->UniformInt(1, c.warehouses));
  int d = static_cast<int>(rng->UniformInt(1, 10));
  if (table == tpcc->district()) return tpcc->DistrictKey(w, d);
  if (table == tpcc->customer()) {
    return tpcc->CustomerKey(
        w, d, static_cast<int>(rng->UniformInt(1, c.customers_per_district)));
  }
  if (table == tpcc->stock()) {
    return tpcc->StockKey(w, rng->UniformInt(1, c.items));
  }
  int64_t o = rng->UniformInt(1, c.init_orders_per_district);
  if (table == tpcc->orders()) return tpcc->OrderKey(w, d, o);
  if (table == tpcc->orderline()) return tpcc->OrderLineKey(w, d, o, 1);
  return rng->UniformInt(1, c.warehouses);
}

Status Pipeline::Shutdown() {
  if (shut_down_) return shutdown_status_;
  shut_down_ = true;
  if (!replayer_) {
    if (client_) client_->Stop();
    if (server_) server_->Stop();
    return shutdown_status_;
  }
  Timestamp final_ts = db_->last_commit_ts();
  channel_.Release();  // never leave a parked epoch behind
  shipper_->Finish();
  replayer_->Stop();
  if (gc_) gc_->Stop();
  if (query_server_) query_server_->Stop();
  if (client_) client_->Stop();
  if (server_) server_->Stop();
  if (!replayer_->error().ok()) {
    shutdown_status_ = replayer_->error();
  } else {
    shutdown_status_ = CheckFinalDigest(
        aets::ReplicaDigestAt(replayer_.get(), &workload_->catalog(), final_ts),
        db_->store().DigestAt(final_ts));
  }
  return shutdown_status_;
}

// ----------------------------------------------------------------- checks

Status CheckPointRead(const std::optional<aets::Row>& backup,
                      const std::optional<aets::Row>& primary) {
  if (backup.has_value() != primary.has_value()) {
    return Status::Corruption(
        std::string("point read: row ") + (backup ? "present" : "absent") +
        " on backup, " + (primary ? "present" : "absent") + " on primary");
  }
  if (backup && !(*backup == *primary)) {
    return Status::Corruption("point read: row differs from the primary");
  }
  return Status::OK();
}

Status CheckScanServedAt(Timestamp requested, Timestamp pinned) {
  if (pinned != requested) {
    return Status::Corruption("scan clamped: requested ts " +
                              std::to_string(requested) + ", served " +
                              std::to_string(pinned));
  }
  return Status::OK();
}

Status CheckScanMatches(uint64_t backup_digest, uint64_t backup_rows,
                        uint64_t primary_digest, uint64_t primary_rows) {
  if (backup_digest != primary_digest || backup_rows != primary_rows) {
    return Status::Corruption(
        "scan differs from the primary: rows " + std::to_string(backup_rows) +
        " vs " + std::to_string(primary_rows));
  }
  return Status::OK();
}

Status CheckFinalDigest(uint64_t backup_digest, uint64_t primary_digest) {
  if (backup_digest != primary_digest) {
    return Status::Corruption("final backup digest differs from the primary");
  }
  return Status::OK();
}

}  // namespace perfbench
