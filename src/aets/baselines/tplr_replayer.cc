#include "aets/baselines/tplr_replayer.h"

namespace aets {

AetsOptions TplrBaselineOptions(int replay_threads) {
  AetsOptions options;
  options.replay_threads = replay_threads;
  options.commit_threads = 1;  // one group, one commit thread
  options.two_stage = false;
  options.adaptive_alloc = false;
  options.grouping = GroupingMode::kSingle;
  options.name = "TPLR";
  return options;
}

std::unique_ptr<AetsReplayer> MakeTplrReplayer(const Catalog* catalog,
                                               EpochChannel* channel,
                                               int replay_threads) {
  auto replayer = std::make_unique<AetsReplayer>(
      catalog, channel, TplrBaselineOptions(replay_threads));
  return replayer;
}

}  // namespace aets
