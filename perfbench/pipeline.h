// Assembly of the live AETS pipeline from public APIs, exactly as a backup
// deployment wires it:
//
//   PrimaryDb -> commit sink -> LogShipper (seal, EncodeEpoch, CRC,
//   optional SegmentStore) -> BenchChannel in-process, or loopback
//   EpochStreamServer -> EpochStreamClient -> BenchChannel
//   -> AetsReplayer (AetsOptions defaults) + GcDaemon + ColumnStore
//   -> Algorithm 3 visibility, then a point read / QueryServer scan.
//
// The only benchmark-owned piece on the data path is BenchChannel, an
// EpochChannel whose Send records arrivals and can hold epochs back for the
// burst phase (Send is virtual and Enqueue protected for this purpose).
#ifndef AETS_PERFBENCH_PIPELINE_H_
#define AETS_PERFBENCH_PIPELINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/net/tcp_source.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/snapshot_coordinator.h"
#include "aets/replication/log_shipper.h"
#include "aets/storage/gc_daemon.h"
#include "aets/storage/segment_store.h"
#include "aets/workload/workload.h"
#include "trace.h"

namespace perfbench {

/// One benchmark workload. Rates are offered load of the open-loop
/// generator; they are fixed here (and quoted in BENCHMARK.json) so every
/// run of a workload offers the same schedule. How many bursts a run
/// measures is run.py's plan, not part of the workload.
struct WorkloadSpec {
  const char* name;
  double txn_per_s;        // steady-phase commit rate
  double queries_per_s;    // steady-phase query rate, all query threads
  int query_threads;       // query executors; one connection each on TCP
  uint64_t burst_txns;     // B: transactions per held-and-released burst
  bool tcp_durable;        // SegmentStore + loopback TCP + QueryServer
};

/// The shipper's epoch size (transactions): the paper benches' and
/// RunLive's value.
constexpr size_t kEpochSize = 256;

const WorkloadSpec* FindSpec(const std::string& name);
std::vector<std::string> SpecNames();

/// Arrival instant and extent of one epoch that reached the backup while
/// arrival recording was on.
struct Arrival {
  int64_t t_ns = 0;
  aets::Timestamp max_ts = aets::kInvalidTimestamp;
  size_t bytes = 0;
  size_t num_txns = 0;
  aets::TxnId last_txn = aets::kInvalidTxnId;
  bool heartbeat = false;
};

/// The backup-side channel. Send is "arrival at the backup": called by the
/// shipper in-process, or by the EpochStreamClient reader over TCP.
class BenchChannel : public aets::EpochChannel {
 public:
  BenchChannel() : aets::EpochChannel(/*capacity=*/0) {}

  bool Send(aets::ShippedEpoch epoch) override;

  /// Parks every epoch sent from now on until Release().
  void Hold();
  /// Delivers the parked epochs in arrival order and resumes pass-through.
  /// Returns how many were parked.
  size_t Release();
  /// Newest timestamp (commit or heartbeat) among the parked epochs.
  aets::Timestamp held_max_ts() const;

  void SetRecording(bool on) { recording_.store(on); }
  /// Moves out the arrivals recorded since the last call.
  void PopArrivals(std::vector<Arrival>* out);
  /// Epochs handed to the replayer's queue so far.
  uint64_t delivered() const { return delivered_.load(); }

 private:
  mutable std::mutex mu_;
  bool holding_ = false;
  std::vector<aets::ShippedEpoch> held_;
  aets::Timestamp held_max_ts_ = aets::kInvalidTimestamp;
  std::vector<Arrival> arrivals_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> delivered_{0};
};

/// Snapshot timestamps of in-flight benchmark queries. The GC horizon stays
/// at or below the oldest one, so a reader at qts never loses the versions
/// it reads (the same rule GlobalSnapshotCoordinator applies to its pins).
class PinSet {
 public:
  void Pin(aets::Timestamp ts);
  void Unpin(aets::Timestamp ts);
  /// Oldest pinned ts, or UINT64_MAX when none.
  aets::Timestamp Min() const;

 private:
  mutable std::mutex mu_;
  std::multiset<aets::Timestamp> pins_;
};

/// Timing of one commit through the sink, recorded while tracing.
struct CommitRec {
  aets::TxnId txn_id = 0;
  int64_t start_ns = 0;  // sink entered = commit instant
  int64_t end_ns = 0;    // LogShipper::OnCommit returned
};

/// Timing of one GcDaemon pass (pre-pass hook to post-pass hook).
struct GcRec {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t reclaimed = 0;
};

class Pipeline {
 public:
  /// `tmp_dir` is a fresh directory for the segment store (TCP workload).
  Pipeline(const WorkloadSpec& spec, uint64_t seed, std::string tmp_dir);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Builds the pipeline, loads the workload's data on the primary and
  /// waits until the backup has replayed all of it.
  aets::Status Setup();

  /// Seals the open epoch and waits until the backup's global watermark
  /// covers `ts`. Fails after `timeout_ms`.
  aets::Status WaitGlobal(aets::Timestamp ts, int64_t timeout_ms);

  /// Ends the stream, stops every component and compares the backup with
  /// the primary at the final commit timestamp (ReplicaDigestAt vs
  /// PrimaryDb::store().DigestAt). Idempotent.
  aets::Status Shutdown();

  /// Recording of commits, arrivals and GC passes (steady phases, traced
  /// or not).
  void SetRecording(bool on);
  std::vector<CommitRec> TakeCommits();
  std::vector<GcRec> TakeGcPasses();

  const WorkloadSpec& spec() const { return spec_; }
  aets::Workload* workload() { return workload_.get(); }
  aets::PrimaryDb* db() { return db_.get(); }
  aets::LogShipper* shipper() { return shipper_.get(); }
  aets::AetsReplayer* replayer() { return replayer_.get(); }
  BenchChannel* channel() { return &channel_; }
  PinSet* pins() { return &pins_; }
  aets::SegmentStore* segment_store() { return segment_store_.get(); }
  aets::net::EpochStreamClient* stream_client() { return client_.get(); }
  aets::net::TcpEpochSource* tcp_source() { return tcp_source_.get(); }
  aets::net::QueryServer* query_server() { return query_server_.get(); }
  uint16_t query_port() const;

  /// Tables the analytic queries read and the OLTP mix writes (hot), and
  /// written tables no query reads (cold).
  const std::vector<aets::TableId>& hot_tables() const { return hot_; }
  const std::vector<aets::TableId>& cold_tables() const { return cold_; }

  /// A row key of `table` that exists after Load (point-read target).
  int64_t PickKey(aets::TableId table, aets::Rng* rng) const;

 private:
  aets::AetsOptions Options() const;
  void Sink(aets::TxnLog txn);

  const WorkloadSpec spec_;
  const uint64_t seed_;
  const std::string tmp_dir_;

  std::unique_ptr<aets::Workload> workload_;
  aets::LogicalClock clock_;
  std::unique_ptr<aets::PrimaryDb> db_;
  std::unique_ptr<aets::SegmentStore> segment_store_;
  std::unique_ptr<aets::LogShipper> shipper_;
  std::unique_ptr<aets::net::EpochStreamServer> server_;
  BenchChannel channel_;
  std::unique_ptr<aets::net::EpochStreamClient> client_;
  std::unique_ptr<aets::net::TcpEpochSource> tcp_source_;
  std::unique_ptr<aets::AetsReplayer> replayer_;
  PinSet pins_;
  std::unique_ptr<aets::GcDaemon> gc_;
  aets::GlobalSnapshotCoordinator coordinator_;
  std::unique_ptr<aets::net::QueryServer> query_server_;
  std::vector<aets::TableId> hot_;
  std::vector<aets::TableId> cold_;

  std::atomic<bool> recording_{false};
  std::vector<CommitRec> commits_;  // written only by the committing thread
  std::mutex gc_mu_;
  int64_t gc_pass_start_ns_ = 0;  // GC thread only
  std::vector<GcRec> gc_passes_;
  bool shut_down_ = false;
  aets::Status shutdown_status_;
};

/// The output checks, kept as free functions so the self-test can feed them
/// planted mismatches. Each returns OK or a description of the mismatch.
aets::Status CheckPointRead(const std::optional<aets::Row>& backup,
                            const std::optional<aets::Row>& primary);
aets::Status CheckScanServedAt(aets::Timestamp requested,
                               aets::Timestamp pinned);
aets::Status CheckScanMatches(uint64_t backup_digest, uint64_t backup_rows,
                              uint64_t primary_digest, uint64_t primary_rows);
aets::Status CheckFinalDigest(uint64_t backup_digest, uint64_t primary_digest);

}  // namespace perfbench

#endif  // AETS_PERFBENCH_PIPELINE_H_
