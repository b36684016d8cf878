#include "aets/baselines/serial_replayer.h"

#include <utility>

#include "aets/common/macros.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/trace.h"

namespace aets {

SerialReplayer::SerialReplayer(const Catalog* catalog, EpochChannel* channel,
                               int pipeline_depth)
    : ReplayerBase(catalog, channel, "Serial") {
  SetPipelineDepth(pipeline_depth);
}

SerialReplayer::~SerialReplayer() { Stop(); }

std::unique_ptr<ReplayerBase::PreparedEpoch> SerialReplayer::PrepareEpoch(
    const ShippedEpoch& shipped) {
  AETS_TRACE_SPAN("replay.prepare");
  auto prep = std::make_unique<PreparedSerial>();
  ScopedCpuTimerNs timer(&stats_.dispatch_ns);
  auto epoch = DecodeEpoch(shipped);
  if (!epoch.ok()) {
    SetError(epoch.status());
    return prep;
  }
  prep->epoch = std::move(*epoch);
  return prep;
}

bool SerialReplayer::CommitEpoch(const ShippedEpoch& /*shipped*/,
                                 std::unique_ptr<PreparedEpoch> prepared) {
  auto* prep = static_cast<PreparedSerial*>(prepared.get());
  AETS_TRACE_SPAN("replay.epoch");
  ScopedCpuTimerNs timer(&stats_.replay_ns);
  for (const auto& txn : prep->epoch.txns) {
    for (const auto& rec : txn.records) {
      if (!rec.is_dml()) continue;
      store_.GetTable(rec.table_id)->ApplyCommitted(rec, txn.commit_ts);
    }
    AdvanceGlobalTs(txn.commit_ts);
    stats_.txns.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace aets
