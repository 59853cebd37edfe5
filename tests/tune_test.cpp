// Auto-tuner tests: parameter space constraints and model-driven selection.
#include <gtest/gtest.h>

#include <set>

#include "models/cache_model.hpp"
#include "tune/autotuner.hpp"
#include "tune/space.hpp"

namespace {

using namespace emwd;
using tune::Candidate;
using tune::enumerate_candidates;
using tune::SpaceLimits;

TEST(Space, Divisors) {
  EXPECT_EQ(tune::divisors(1), (std::vector<int>{1}));
  EXPECT_EQ(tune::divisors(12), (std::vector<int>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(tune::divisors(18), (std::vector<int>{1, 2, 3, 6, 9, 18}));
}

TEST(Space, CandidatesRespectAllConstraints) {
  const grid::Extents g{128, 64, 64};
  for (int threads : {1, 6, 18}) {
    const auto cands = enumerate_candidates(threads, g);
    ASSERT_FALSE(cands.empty()) << threads;
    for (const auto& p : cands) {
      EXPECT_EQ(p.threads(), threads);
      EXPECT_TRUE(p.tc == 1 || p.tc == 2 || p.tc == 3 || p.tc == 6);
      EXPECT_LE(p.tz, p.bz);
      if (p.tx > 1) {
        EXPECT_GE(g.nx / p.tx, SpaceLimits{}.min_x_per_thread);
      }
      EXPECT_LE(p.dw, g.ny);
      EXPECT_LE(p.bz, g.nz);
      EXPECT_GE(p.dw, 1);
    }
  }
}

TEST(Space, EighteenThreadsIncludePaperConfigurations) {
  // The paper's headline configurations must be reachable: 1WD (18 groups
  // of 1), 18WD (one group of 18 with component parallelism), and mixed
  // x/z/component splits.
  const auto cands = enumerate_candidates(18, {128, 128, 128});
  bool has_1wd = false, has_18wd = false, has_mixed = false;
  for (const auto& p : cands) {
    if (p.num_tgs == 18 && p.tg_size() == 1) has_1wd = true;
    if (p.num_tgs == 1 && p.tg_size() == 18 && p.tc == 3) has_18wd = true;
    if (p.num_tgs == 3 && p.tc == 3 && p.tx == 2) has_mixed = true;
  }
  EXPECT_TRUE(has_1wd);
  EXPECT_TRUE(has_18wd);
  EXPECT_TRUE(has_mixed);
}

TEST(Space, DeterministicOrder) {
  const auto a = enumerate_candidates(6, {64, 64, 64});
  const auto b = enumerate_candidates(6, {64, 64, 64});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].describe(), b[i].describe());
  }
}

TEST(Autotune, ScoreComputesCacheAndBalance) {
  exec::MwdParams p;
  p.dw = 8;
  p.bz = 1;
  p.num_tgs = 2;
  const Candidate c = tune::score_candidate(p, {480, 480, 480}, models::haswell18());
  EXPECT_DOUBLE_EQ(c.cache_bytes, models::cache_block_bytes(8, 1, 480) * 2);
  EXPECT_GT(c.predicted_mlups, 0.0);
  EXPECT_GT(c.overflow, 0.0);
}

TEST(Autotune, PicksAFittingConfigurationOnHaswell) {
  tune::TuneConfig cfg;
  cfg.threads = 18;
  cfg.grid = {384, 384, 384};
  cfg.machine = models::haswell18();
  const auto result = tune::autotune(cfg);
  // The chosen tile set must fit the usable LLC share (Eq. 11 pruning).
  EXPECT_LE(result.best_candidate.overflow, 1.0);
  // And the paper's Fig. 6d/7b behaviour: a healthy diamond width with
  // cache block sharing (at 384^3, per-thread tiles can no longer fit).
  EXPECT_GE(result.best.dw, 4);
  EXPECT_LT(result.best.num_tgs, 18);
}

TEST(Autotune, SharedBlocksWinAtLargeGrids) {
  // Fig. 7b: growing grids force larger thread groups.  Compare the chosen
  // group size at small vs large Nx.
  tune::TuneConfig small;
  small.threads = 18;
  small.grid = {64, 64, 64};
  small.machine = models::haswell18();
  tune::TuneConfig large = small;
  large.grid = {512, 512, 512};
  const auto rs = tune::autotune(small);
  const auto rl = tune::autotune(large);
  EXPECT_GE(rl.best.tg_size(), rs.best.tg_size());
  EXPECT_LE(rl.best_candidate.overflow, 1.0);
}

TEST(Autotune, SmallestGroupWinsWhenPerThreadTilesFit) {
  // Sec. II-B: a group shares one tile only to shrink the cache block.  When
  // one dw=32 tile per thread fits the usable LLC, groups of one do the same
  // work without intra-group barriers.
  const grid::Extents g{128, 128, 192};
  const double block = models::cache_block_bytes(32, 1, g.nx);
  tune::TuneConfig cfg;
  cfg.threads = 3;
  cfg.grid = g;
  cfg.machine.cores = 3;
  cfg.machine.llc_bytes =
      static_cast<std::uint64_t>(3.0 * block / models::usable_cache_fraction()) + 1;
  const auto result = tune::autotune(cfg);
  EXPECT_EQ(result.best.tg_size(), 1);
  EXPECT_EQ(result.best.num_tgs, 3);
  EXPECT_EQ(result.best.dw, 32);
  EXPECT_LE(result.best_candidate.overflow, 1.0);
}

TEST(Autotune, RankedListIsSortedByScoreWithinFitness) {
  tune::TuneConfig cfg;
  cfg.threads = 6;
  cfg.grid = {128, 128, 128};
  cfg.machine = models::haswell18();
  const auto result = tune::autotune(cfg);
  ASSERT_GT(result.ranked.size(), 1u);
  for (std::size_t i = 1; i < result.ranked.size(); ++i) {
    const bool prev_fits = result.ranked[i - 1].overflow <= 1.0;
    const bool cur_fits = result.ranked[i].overflow <= 1.0;
    EXPECT_GE(static_cast<int>(prev_fits), static_cast<int>(cur_fits));
    if (prev_fits == cur_fits) {
      EXPECT_GE(result.ranked[i - 1].predicted_mlups, result.ranked[i].predicted_mlups);
    }
  }
}

TEST(Autotune, TimedRefinementRunsAndSelects) {
  tune::TuneConfig cfg;
  cfg.threads = 2;
  cfg.grid = {16, 16, 16};
  cfg.machine = models::host_machine();
  cfg.timed_refinement = true;
  cfg.refine_top_k = 2;
  cfg.refine_steps = 1;
  const auto result = tune::autotune(cfg);
  EXPECT_GT(result.best_candidate.measured_mlups, 0.0);
  EXPECT_EQ(result.best.threads(), 2);
}

}  // namespace
