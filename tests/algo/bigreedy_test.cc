#include "algo/bigreedy.h"

#include <numeric>

#include <gtest/gtest.h>

#include "algo/algo_util.h"
#include "algo/intcov.h"
#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

TEST(BiGreedyTest, SolutionIsFairAndSizeK) {
  Rng rng(1);
  for (int d : {2, 3, 5}) {
    const Dataset data = GenIndependent(300, d, &rng);
    const Grouping g = GroupBySumRank(data, 3);
    const GroupBounds bounds = GroupBounds::Proportional(9, g.Counts(), 0.2);
    auto sol = BiGreedy(data, g, bounds);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_EQ(sol->rows.size(), 9u) << "d=" << d;
    EXPECT_EQ(CountViolations(sol->rows, g, bounds), 0) << "d=" << d;
  }
}

TEST(BiGreedyTest, DeterministicGivenSeed) {
  Rng rng(2);
  const Dataset data = GenAntiCorrelated(400, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(8, g.Counts(), 0.1);
  BiGreedyOptions opts;
  opts.seed = 99;
  auto s1 = BiGreedy(data, g, bounds, opts);
  auto s2 = BiGreedy(data, g, bounds, opts);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(s1->rows, s2->rows);
}

TEST(BiGreedyTest, NearOptimalOn2DInstances) {
  // Compare against the exact IntCov optimum: BiGreedy should be within the
  // combined net + eps error budget on easy 2D instances.
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Dataset data = GenIndependent(150, 2, &rng);
    const Grouping g = GroupBySumRank(data, 2);
    const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
    auto exact = IntCov(data, g, bounds);
    BiGreedyOptions opts;
    opts.net_size = 400;
    auto approx = BiGreedy(data, g, bounds, opts);
    ASSERT_TRUE(exact.ok() && approx.ok());
    const auto sky = ComputeSkyline(data);
    const double approx_mhr = MhrExact2D(data, sky, approx->rows);
    EXPECT_GE(approx_mhr, exact->mhr - 0.12) << "trial " << trial;
    EXPECT_LE(approx_mhr, exact->mhr + 1e-9) << "trial " << trial;
  }
}

TEST(BiGreedyTest, LinearAndBinaryTauSearchComparable) {
  Rng rng(4);
  const Dataset data = GenAntiCorrelated(200, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyOptions binary;
  binary.net_size = 200;
  BiGreedyOptions linear = binary;
  linear.tau_search = TauSearch::kLinear;
  BiGreedyRunInfo bi, li;
  auto sb = BiGreedy(data, g, bounds, binary, &bi);
  auto sl = BiGreedy(data, g, bounds, linear, &li);
  ASSERT_TRUE(sb.ok() && sl.ok());
  const auto sky = ComputeSkyline(data);
  const double mb = MhrExactLp(data, sky, sb->rows);
  const double ml = MhrExactLp(data, sky, sl->rows);
  EXPECT_NEAR(mb, ml, 0.05);
  // Binary search does far fewer MRGreedy calls.
  EXPECT_LT(bi.mrgreedy_calls, li.mrgreedy_calls / 4);
}

TEST(BiGreedyTest, RunInfoPopulated) {
  Rng rng(5);
  const Dataset data = GenIndependent(100, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, {}, &info);
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(info.tau, 0.0);
  EXPECT_LE(info.tau, 1.0);
  EXPECT_EQ(info.net_size, 10u * 6u * 3u);  // 10 * k * d default.
  EXPECT_GE(info.mrgreedy_calls, 1);
}

TEST(BiGreedyTest, NetSizeFromDelta) {
  Rng rng(6);
  const Dataset data = GenIndependent(50, 2, &rng);
  const Grouping g = SingleGroup(50);
  auto bounds = GroupBounds::Explicit(4, {0}, {4});
  ASSERT_TRUE(bounds.ok());
  BiGreedyOptions opts;
  opts.delta = 0.3;
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, *bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  // Lemma 4.1 net: delta' = delta / (d(2-delta)).
  const double net_delta = 0.3 / (2 * (2 - 0.3));
  EXPECT_EQ(info.net_size, UtilityNet::DeltaToSampleSize(net_delta, 2));
}

TEST(BiGreedyTest, BicriteriaUnionSatisfiesScaledBounds) {
  // Lemma 4.5 object: the union of gamma rounds with gamma-scaled bounds.
  Rng rng(7);
  const Dataset data = GenIndependent(200, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyOptions opts;
  opts.strict_feasible = false;
  opts.net_size = 100;
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  const int gamma = info.rounds_used;
  EXPECT_GE(gamma, 1);
  EXPECT_LE(static_cast<int>(sol->rows.size()), gamma * bounds.k);
  const auto counts = SolutionGroupCounts(sol->rows, g);
  for (size_t c = 0; c < counts.size(); ++c) {
    EXPECT_LE(counts[c], gamma * bounds.upper[c]);
  }
}

TEST(BiGreedyTest, UnionNetMhrCertifiedByTau) {
  // When MRGreedy certifies tau, the union's net mhr is >= (1 - eps) tau
  // (Lemma 4.5 conclusion).
  Rng rng(8);
  const Dataset data = GenAntiCorrelated(150, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyOptions opts;
  opts.strict_feasible = false;
  opts.net_size = 150;
  opts.seed = 5;
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  if (info.tau > 0.0) {
    // Re-evaluate on the same net.
    Rng net_rng(opts.seed);
    const UtilityNet net = UtilityNet::SampleRandom(3, 150, &net_rng);
    const auto sky = ComputeSkyline(data);
    const NetEvaluator eval(&data, &net, sky);
    EXPECT_GE(eval.Mhr(sol->rows), (1.0 - opts.eps) * info.tau - 1e-9);
  }
}

TEST(BiGreedyPlusTest, FeasibleAndComparableToBiGreedy) {
  Rng rng(9);
  const Dataset data = GenAntiCorrelated(500, 4, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const GroupBounds bounds = GroupBounds::Proportional(8, g.Counts(), 0.2);
  auto big = BiGreedy(data, g, bounds);
  auto plus = BiGreedyPlus(data, g, bounds);
  ASSERT_TRUE(big.ok() && plus.ok());
  EXPECT_EQ(plus->rows.size(), 8u);
  EXPECT_EQ(CountViolations(plus->rows, g, bounds), 0);
  const auto sky = ComputeSkyline(data);
  const double m_big = MhrExactLp(data, sky, big->rows);
  const double m_plus = MhrExactLp(data, sky, plus->rows);
  // Paper: BiGreedy+ close to BiGreedy, small loss allowed.
  EXPECT_GE(m_plus, m_big - 0.1);
}

TEST(BiGreedyPlusTest, StopsAtMaxNetSize) {
  Rng rng(10);
  const Dataset data = GenIndependent(100, 3, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
  BiGreedyPlusOptions opts;
  opts.max_net_size = 64;
  opts.lambda = -1.0;  // Never converge early: must stop at the cap.
  BiGreedyRunInfo info;
  auto sol = BiGreedyPlus(data, g, bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(info.net_size, 64u);
  EXPECT_EQ(sol->algorithm, "BiGreedy+");
}

TEST(BiGreedyTest, LazyAndPlainGreedyEquivalent) {
  // Lazy evaluation is an exact accelerator of plain greedy (submodularity
  // makes stale upper bounds sound); the selections must match.
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Dataset data = GenAntiCorrelated(150, 3, &rng);
    const Grouping g = GroupBySumRank(data, 2);
    const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.2);
    BiGreedyOptions lazy_opts;
    lazy_opts.seed = 7 + static_cast<uint64_t>(trial);
    lazy_opts.net_size = 120;
    BiGreedyOptions plain_opts = lazy_opts;
    plain_opts.lazy = false;
    auto lazy_sol = BiGreedy(data, g, bounds, lazy_opts);
    auto plain_sol = BiGreedy(data, g, bounds, plain_opts);
    ASSERT_TRUE(lazy_sol.ok() && plain_sol.ok());
    EXPECT_EQ(lazy_sol->rows, plain_sol->rows) << "trial " << trial;
  }

  // A saturating instance: at the certified capped value the last greedy
  // steps have zero gain everywhere, so plain greedy must skip the rows it
  // already picked this round instead of re-picking the smallest one.
  Rng sat_rng(5);
  const Dataset data = GenIndependent(2000, 6, &sat_rng);
  const Grouping g = GroupBySumRank(data, 4);
  const GroupBounds bounds = GroupBounds::Proportional(10, g.Counts(), 0.2);
  for (bool strict : {true, false}) {
    BiGreedyOptions lazy_opts;
    lazy_opts.seed = 5;
    lazy_opts.strict_feasible = strict;
    BiGreedyOptions plain_opts = lazy_opts;
    plain_opts.lazy = false;
    auto lazy_sol = BiGreedy(data, g, bounds, lazy_opts);
    auto plain_sol = BiGreedy(data, g, bounds, plain_opts);
    ASSERT_TRUE(lazy_sol.ok() && plain_sol.ok());
    EXPECT_EQ(lazy_sol->rows, plain_sol->rows) << "strict " << strict;
  }

  // Same instance on caller-built evaluators: one whose candidate cache
  // declined its budget (every heap seed is an exact gain) and one fully
  // cached (seeds are FullGain bounds). Lazy on either, and plain, agree.
  auto input = PrepareProblem(data, g, bounds);
  ASSERT_TRUE(input.ok());
  Rng net_rng(17);
  const UtilityNet net = UtilityNet::SampleRandom(6, 600, &net_rng);
  NetEvaluator declined(&data, &net, input->db_rows, 1);
  declined.CacheCandidates(input->pool, /*max_entries=*/1);
  ASSERT_EQ(declined.cached_row(input->pool.front()), nullptr);
  NetEvaluator cached(&data, &net, input->db_rows, 1);
  cached.CacheCandidates(input->pool);
  ASSERT_NE(cached.cached_row(input->pool.front()), nullptr);
  BiGreedyOptions lazy_opts;
  BiGreedyOptions plain_opts;
  plain_opts.lazy = false;
  auto exact_seeded = BiGreedyOnNet(*input, &declined, lazy_opts);
  auto plain = BiGreedyOnNet(*input, &declined, plain_opts);
  auto bound_seeded = BiGreedyOnNet(*input, &cached, lazy_opts);
  ASSERT_TRUE(exact_seeded.ok() && plain.ok() && bound_seeded.ok());
  EXPECT_EQ(exact_seeded->rows, plain->rows);
  EXPECT_EQ(exact_seeded->rows, bound_seeded->rows);
}

TEST(BiGreedyTest, BoundSeededLazyGreedyEvaluatesFewGains) {
  // Seeding the heap from cached FullGain bounds replaces the per-probe
  // gain pass over the pool; an exact seed pass plus the first pick's
  // recomputes costs about 2x the pool per MRGreedy call.
  Rng rng(8);
  const Dataset data = GenIndependent(2000, 6, &rng);
  const Grouping g = GroupBySumRank(data, 4);
  const GroupBounds bounds = GroupBounds::Proportional(10, g.Counts(), 0.2);
  auto input = PrepareProblem(data, g, bounds);
  ASSERT_TRUE(input.ok());
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, {}, &info);
  ASSERT_TRUE(sol.ok());
  ASSERT_GE(info.mrgreedy_calls, 1);
  const double per_call = static_cast<double>(info.gain_evals) /
                          static_cast<double>(info.mrgreedy_calls);
  EXPECT_LT(per_call, 1.5 * static_cast<double>(input->pool.size()))
      << info.gain_evals << " evals over " << info.mrgreedy_calls
      << " calls, pool " << input->pool.size();
}

TEST(BiGreedyTest, GainBatchesSelectSameRowsAtEveryLaneCount) {
  // The lazy greedy refreshes stale gains in batches across the
  // evaluator's lanes. Which stale upper bounds it refreshes never changes
  // the argmax, so every lane count must select the one-lane rows and
  // certify the same tau index; the extra gains a batch evaluates past the
  // argmax stay within 10% of the one-lane count.
  Rng rng(31);
  const Dataset data = GenIndependent(3000, 6, &rng);
  const Grouping g = GroupBySumRank(data, 4);
  const GroupBounds proportional =
      GroupBounds::Proportional(10, g.Counts(), 0.2);
  // Group 3 holds the rows of largest attribute sum, so capping it at one
  // row drops its pool entries from the heap mid-batch after the first
  // pick from it.
  auto tight = GroupBounds::Explicit(10, {0, 0, 0, 0}, {10, 10, 10, 1});
  ASSERT_TRUE(tight.ok());
  Rng net_rng(23);
  const UtilityNet net = UtilityNet::SampleRandom(6, 10 * 10 * 6, &net_rng);

  struct LaneCase {
    const char* name;
    const GroupBounds* bounds;
    bool cached;
    bool strict;
  };
  const LaneCase cases[] = {
      {"cached", &proportional, true, true},
      {"declined cache", &proportional, false, true},
      {"multi-round unions", &proportional, true, false},
      {"tight upper bounds", &*tight, true, true},
  };
  for (const LaneCase& c : cases) {
    auto input = PrepareProblem(data, g, *c.bounds);
    ASSERT_TRUE(input.ok()) << c.name;
    BiGreedyOptions opts;
    opts.strict_feasible = c.strict;
    Solution one_lane;
    BiGreedyRunInfo one_lane_info;
    for (int lanes : {1, 2, 3, 4, 8}) {
      NetEvaluator eval(&data, &net, input->db_rows, lanes);
      eval.CacheCandidates(input->pool, c.cached ? 40'000'000 : 1);
      ASSERT_EQ(eval.cached_row(input->pool.front()) != nullptr, c.cached);
      opts.threads = lanes;
      BiGreedyRunInfo info;
      auto sol = BiGreedyOnNet(*input, &eval, opts, &info);
      ASSERT_TRUE(sol.ok()) << c.name << " lanes " << lanes;
      if (lanes == 1) {
        one_lane = *sol;
        one_lane_info = info;
        ASSERT_GE(info.tau_index, 0) << c.name;
        continue;
      }
      EXPECT_EQ(sol->rows, one_lane.rows) << c.name << " lanes " << lanes;
      EXPECT_EQ(sol->mhr, one_lane.mhr) << c.name << " lanes " << lanes;
      EXPECT_EQ(info.tau_index, one_lane_info.tau_index)
          << c.name << " lanes " << lanes;
      EXPECT_EQ(info.rounds_used, one_lane_info.rounds_used)
          << c.name << " lanes " << lanes;
      EXPECT_EQ(info.mrgreedy_calls, one_lane_info.mrgreedy_calls)
          << c.name << " lanes " << lanes;
      EXPECT_GE(info.gain_evals, one_lane_info.gain_evals)
          << c.name << " lanes " << lanes;
      if (lanes == 4) {
        EXPECT_LE(static_cast<double>(info.gain_evals),
                  1.1 * static_cast<double>(one_lane_info.gain_evals))
            << c.name;
      }
    }
  }

  // BiGreedy+ builds one evaluator per doubled net, each at the requested
  // lane count.
  for (bool strict : {true, false}) {
    BiGreedyPlusOptions opts;
    opts.base.strict_feasible = strict;
    Solution one_lane;
    BiGreedyRunInfo one_lane_info;
    for (int lanes : {1, 2, 3, 4, 8}) {
      opts.base.threads = lanes;
      BiGreedyRunInfo info;
      auto sol = BiGreedyPlus(data, g, proportional, opts, &info);
      ASSERT_TRUE(sol.ok()) << "strict " << strict << " lanes " << lanes;
      if (lanes == 1) {
        one_lane = *sol;
        one_lane_info = info;
        continue;
      }
      EXPECT_EQ(sol->rows, one_lane.rows)
          << "strict " << strict << " lanes " << lanes;
      EXPECT_EQ(sol->mhr, one_lane.mhr)
          << "strict " << strict << " lanes " << lanes;
      EXPECT_EQ(info.tau_index, one_lane_info.tau_index)
          << "strict " << strict << " lanes " << lanes;
    }
  }
}

TEST(BiGreedyTest, OneLaneGainCountIsPinned) {
  // At one lane the lazy greedy refreshes one stale entry at a time, so
  // its exact-gain count on a fixed instance does not move.
  Rng rng(8);
  const Dataset data = GenIndependent(2000, 6, &rng);
  const Grouping g = GroupBySumRank(data, 4);
  const GroupBounds bounds = GroupBounds::Proportional(10, g.Counts(), 0.2);
  BiGreedyOptions opts;
  opts.threads = 1;
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, g, bounds, opts, &info);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(info.mrgreedy_calls, 9);
  EXPECT_EQ(info.tau_index, 10);
  EXPECT_EQ(info.gain_evals, 17460);
}

TEST(BiGreedyTest, SingleGroupEqualsVanillaHms) {
  // C = 1 with l = 0, h = k reduces FairHMS to HMS; result must be size k.
  Rng rng(11);
  const Dataset data = GenAntiCorrelated(300, 3, &rng);
  const Grouping g = SingleGroup(300);
  auto bounds = GroupBounds::Explicit(10, {0}, {10});
  ASSERT_TRUE(bounds.ok());
  auto sol = BiGreedy(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->rows.size(), 10u);
}

TEST(BiGreedyTest, TinyPoolStillFeasible) {
  // Pool smaller than the dataset: exactly one choice per group.
  const Dataset data = MakeDataset({{1, 0}, {0, 1}});
  const Grouping g = MakeGrouping({0, 1}, 2);
  auto bounds = GroupBounds::Explicit(2, {1, 1}, {1, 1});
  ASSERT_TRUE(bounds.ok());
  auto sol = BiGreedy(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->rows, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace fairhms
