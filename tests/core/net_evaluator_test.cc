#include "core/net_evaluator.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;

TEST(NetEvaluatorTest, BestAndHappinessOnAxes) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.5, 0.5}});
  const UtilityNet net = UtilityNet::Grid2D(3);  // (0,1), diag, (1,0).
  const NetEvaluator eval(&data, &net, {0, 1, 2});
  // Direction (0,1): best is point 1 with score 1.
  EXPECT_NEAR(eval.best(0), 1.0, 1e-12);
  EXPECT_NEAR(eval.PointHappiness(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(eval.PointHappiness(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(eval.PointHappiness(0, 2), 0.5, 1e-12);
  // Direction (1,0): best is point 0.
  EXPECT_NEAR(eval.PointHappiness(2, 0), 1.0, 1e-12);
}

TEST(NetEvaluatorTest, MhrOfFullSetIsOne) {
  Rng rng(3);
  const Dataset data = GenIndependent(100, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 200, &rng);
  std::vector<int> all(100);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  EXPECT_NEAR(eval.Mhr(all), 1.0, 1e-12);
}

TEST(NetEvaluatorTest, MhrEmptySetIsZero) {
  const Dataset data = MakeDataset({{1, 1}});
  const UtilityNet net = UtilityNet::Grid2D(5);
  const NetEvaluator eval(&data, &net, {0});
  EXPECT_DOUBLE_EQ(eval.Mhr({}), 0.0);
}

TEST(NetEvaluatorTest, MhrMonotoneInSubset) {
  Rng rng(5);
  const Dataset data = GenIndependent(50, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 300, &rng);
  std::vector<int> all(50);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  EXPECT_LE(eval.Mhr({0, 1}), eval.Mhr({0, 1, 2, 3}) + 1e-12);
}

TEST(NetEvaluatorTest, CachedRowsMatchUncached) {
  Rng rng(7);
  const Dataset data = GenIndependent(40, 4, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(4, 128, &rng);
  std::vector<int> all(40);
  std::iota(all.begin(), all.end(), 0);
  NetEvaluator eval(&data, &net, all);
  std::vector<double> uncached(net.size());
  eval.PointHappinessRow(7, uncached.data());
  eval.CacheCandidates(all);
  ASSERT_NE(eval.cached_row(7), nullptr);
  std::vector<double> cached(net.size());
  eval.PointHappinessRow(7, cached.data());
  for (size_t j = 0; j < net.size(); ++j) {
    EXPECT_DOUBLE_EQ(cached[j], uncached[j]);
  }
}

TEST(NetEvaluatorTest, CacheSkippedWhenOverBudget) {
  Rng rng(9);
  const Dataset data = GenIndependent(40, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 64, &rng);
  std::vector<int> all(40);
  std::iota(all.begin(), all.end(), 0);
  NetEvaluator eval(&data, &net, all);
  eval.CacheCandidates(all, /*max_entries=*/10);  // 40*64 > 10.
  EXPECT_EQ(eval.cached_row(0), nullptr);
}

TEST(NetEvaluatorTest, CandidateCacheBytesCountFullGains) {
  Rng rng(10);
  const Dataset data = GenIndependent(40, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 64, &rng);
  std::vector<int> all(40);
  std::iota(all.begin(), all.end(), 0);
  NetEvaluator eval(&data, &net, all);
  const size_t before = eval.ResidentBytes();
  EXPECT_EQ(eval.CandidateCacheBytes(), 0u);
  const std::vector<int> half(all.begin(), all.begin() + 20);
  eval.CacheCandidates(half);
  // Happiness matrix + per-dataset-row offsets + one FullGain per row.
  const size_t expected = 20 * 64 * sizeof(double) +
                          40 * sizeof(int64_t) + 20 * sizeof(double);
  EXPECT_EQ(eval.CandidateCacheBytes(), expected);
  EXPECT_EQ(eval.ResidentBytes(), before + expected);
}

/// Restores auto SIMD mode when a test body returns or fails.
struct SimdModeGuard {
  ~SimdModeGuard() { simd::SetMode(simd::SimdMode::kAuto); }
};

bool BitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// An evaluator with every row cached, on an m with a sum-order tail
/// (m % simd::kSumLanes != 0), at the given lane count.
struct FullGainFixture {
  static constexpr size_t kNet = 203;
  Dataset data;
  UtilityNet net;
  std::vector<int> all;
  explicit FullGainFixture(Rng* rng)
      : data(GenAntiCorrelated(60, 4, rng)),
        net(UtilityNet::SampleRandom(4, kNet, rng)),
        all(60) {
    std::iota(all.begin(), all.end(), 0);
  }
};

TEST(NetEvaluatorTest, FullGainIsTheEmptySetGainAtTauOne) {
  SimdModeGuard guard;
  Rng rng(29);
  const FullGainFixture f(&rng);
  const std::vector<double> zeros(f.net.size(), 0.0);
  for (simd::SimdMode mode : {simd::SimdMode::kAuto, simd::SimdMode::kOff}) {
    simd::SetMode(mode);
    for (int threads : {1, 4}) {
      NetEvaluator eval(&f.data, &f.net, f.all, threads);
      eval.CacheCandidates(f.all);
      const TruncatedMhrState empty(&eval);
      for (int row : f.all) {
        const double full = eval.FullGain(row);
        EXPECT_TRUE(BitEq(full, simd::TruncGainCached(eval.cached_row(row),
                                                      zeros.data(),
                                                      f.net.size(), 1.0)))
            << "row " << row;
        EXPECT_TRUE(BitEq(full / static_cast<double>(f.net.size()),
                          empty.MarginalGain(row, 1.0)))
            << "row " << row;
      }
    }
  }
}

TEST(NetEvaluatorTest, FullGainAndCapBoundEveryGridGain) {
  // BiGreedy's lazy-greedy heap seed: min(FullGain, cap(tau)) / m must be
  // >= the exact empty-set gain at every capped value of the search grid.
  SimdModeGuard guard;
  Rng rng(31);
  const FullGainFixture f(&rng);
  const size_t m = f.net.size();
  const double md = static_cast<double>(m);
  for (simd::SimdMode mode : {simd::SimdMode::kAuto, simd::SimdMode::kOff}) {
    simd::SetMode(mode);
    NetEvaluator eval(&f.data, &f.net, f.all, 1);
    eval.CacheCandidates(f.all);
    const TruncatedMhrState empty(&eval);
    for (double tau = 1.0; tau >= 1.0 / md; tau *= 0.99) {
      const double cap = simd::RepeatSum(tau, m);
      for (int row : f.all) {
        EXPECT_GE(std::min(eval.FullGain(row), cap) / md,
                  empty.MarginalGain(row, tau))
            << "row " << row << " tau " << tau;
      }
    }
  }
}

TEST(TruncatedMhrStateTest, AddMatchesRecompute) {
  Rng rng(11);
  const Dataset data = GenIndependent(30, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 100, &rng);
  std::vector<int> all(30);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);

  TruncatedMhrState state(&eval);
  std::vector<int> chosen;
  for (int r : {3, 17, 29}) {
    state.Add(r);
    chosen.push_back(r);
  }
  EXPECT_NEAR(state.NetMhr(), eval.Mhr(chosen), 1e-12);
  // Truncated value from scratch.
  const double tau = 0.8;
  double expect = 0.0;
  for (size_t j = 0; j < net.size(); ++j) {
    expect += std::min(eval.Hr(j, chosen), tau);
  }
  expect /= static_cast<double>(net.size());
  EXPECT_NEAR(state.TruncatedValue(tau), expect, 1e-12);
}

TEST(TruncatedMhrStateTest, MarginalGainMatchesValueDelta) {
  Rng rng(13);
  const Dataset data = GenIndependent(25, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 80, &rng);
  std::vector<int> all(25);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);

  const double tau = 0.9;
  TruncatedMhrState state(&eval);
  state.Add(0);
  state.Add(5);
  const double before = state.TruncatedValue(tau);
  const double gain = state.MarginalGain(10, tau);
  state.Add(10);
  EXPECT_NEAR(state.TruncatedValue(tau), before + gain, 1e-12);
}

TEST(TruncatedMhrStateTest, GainNonnegativeAndMonotone) {
  Rng rng(17);
  const Dataset data = GenIndependent(20, 4, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(4, 60, &rng);
  std::vector<int> all(20);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  TruncatedMhrState state(&eval);
  for (int r = 0; r < 20; ++r) {
    EXPECT_GE(state.MarginalGain(r, 0.7), 0.0);
  }
}

// Submodularity of mhr_tau (paper Lemma 4.3): gains diminish as the set
// grows. Property-tested on random instances.
TEST(TruncatedMhrStateTest, SubmodularityProperty) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const Dataset data = GenIndependent(30, 3, &rng);
    const UtilityNet net = UtilityNet::SampleRandom(3, 50, &rng);
    std::vector<int> all(30);
    std::iota(all.begin(), all.end(), 0);
    const NetEvaluator eval(&data, &net, all);
    const double tau = 0.5 + 0.5 * rng.Uniform();

    // S1 subset of S2, p outside S2.
    TruncatedMhrState s1(&eval);
    TruncatedMhrState s2(&eval);
    for (int r : {1, 2, 3}) {
      s1.Add(r);
      s2.Add(r);
    }
    for (int r : {4, 5, 6, 7}) s2.Add(r);
    for (int p = 8; p < 30; ++p) {
      EXPECT_GE(s1.MarginalGain(p, tau), s2.MarginalGain(p, tau) - 1e-12)
          << "trial " << trial << " p " << p;
    }
  }
}

TEST(TruncatedMhrStateTest, ResetClearsState) {
  Rng rng(23);
  const Dataset data = GenIndependent(10, 2, &rng);
  const UtilityNet net = UtilityNet::Grid2D(10);
  std::vector<int> all(10);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  TruncatedMhrState state(&eval);
  state.Add(0);
  state.Reset();
  EXPECT_DOUBLE_EQ(state.TruncatedValue(1.0), 0.0);
  EXPECT_DOUBLE_EQ(state.NetMhr(), 0.0);
}

TEST(NetEvaluatorTest, DenominatorUsesDbRowsOnly) {
  // db = {(0.5, 0.5)}; point (1,1) outside db scores happiness capped at 1.
  const Dataset data = MakeDataset({{0.5, 0.5}, {1, 1}});
  const UtilityNet net = UtilityNet::Grid2D(5);
  const NetEvaluator eval(&data, &net, {0});
  EXPECT_NEAR(eval.PointHappiness(2, 1), 1.0, 1e-12);  // Clamped.
  EXPECT_NEAR(eval.PointHappiness(2, 0), 1.0, 1e-12);
}

}  // namespace
}  // namespace fairhms
