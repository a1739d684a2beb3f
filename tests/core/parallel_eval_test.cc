// Bit-identity of the parallel evaluation engine: every evaluator result
// must match the serial (threads = 1) path exactly — not approximately —
// for any thread count.

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "core/exact_evaluator.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

constexpr int kThreadCounts[] = {2, 3, 8};

TEST(ParallelEvalTest, NetEvaluatorBestIsBitIdentical) {
  Rng rng(11);
  const Dataset data = GenAntiCorrelated(400, 5, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(5, 777, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const NetEvaluator serial(&data, &net, sky, /*threads=*/1);
  for (int threads : kThreadCounts) {
    const NetEvaluator parallel(&data, &net, sky, threads);
    for (size_t j = 0; j < net.size(); ++j) {
      ASSERT_EQ(serial.best(j), parallel.best(j))
          << "direction " << j << " at " << threads << " threads";
    }
  }
}

TEST(ParallelEvalTest, MhrIsBitIdentical) {
  Rng rng(13);
  const Dataset data = GenIndependent(500, 4, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(4, 1500, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(10, sky.size()));
  const NetEvaluator serial(&data, &net, sky, /*threads=*/1);
  const double want = serial.Mhr(solution);
  for (int threads : kThreadCounts) {
    const NetEvaluator parallel(&data, &net, sky, threads);
    ASSERT_EQ(want, parallel.Mhr(solution)) << threads << " threads";
  }
}

TEST(ParallelEvalTest, CacheCandidatesIsBitIdentical) {
  Rng rng(17);
  const Dataset data = GenIndependent(300, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 600, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  NetEvaluator serial(&data, &net, sky, /*threads=*/1);
  serial.CacheCandidates(sky);
  for (int threads : kThreadCounts) {
    NetEvaluator parallel(&data, &net, sky, threads);
    parallel.CacheCandidates(sky);
    for (int row : sky) {
      const double* a = serial.cached_row(row);
      const double* b = parallel.cached_row(row);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      for (size_t j = 0; j < net.size(); ++j) {
        ASSERT_EQ(a[j], b[j]) << "row " << row << " dir " << j << " at "
                              << threads << " threads";
      }
    }
  }
}

/// Restores auto SIMD mode when a test body returns or fails.
struct SimdModeGuard {
  ~SimdModeGuard() { simd::SetMode(simd::SimdMode::kAuto); }
};

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Leaves a NaN-filled allocation of n doubles as the only idle scratch
/// buffer, so the next candidate cache is filled into it: a cell the fill
/// skips then reads back NaN rather than the correct value a previous
/// evaluator left in a recycled allocation.
void PoisonScratchPool(size_t n) {
  simd::ScratchPoolTrim();
  simd::ScratchBuffer poison;
  poison.ResizeUninitialized(n);
  std::fill(poison.data(), poison.data() + n,
            std::numeric_limits<double>::quiet_NaN());
}

TEST(ParallelEvalTest, CacheCandidatesRowBlocksAreBitIdentical) {
  // 1000 cached rows span several fill blocks plus a partial one at every
  // net size: nets below one direction tile (203 has a sum-order tail, 480
  // is BiGreedy's m = 10 * k * d) and one tile plus a tail (600).
  SimdModeGuard guard;
  Rng rng(37);
  const Dataset data = GenIndependent(1000, 4, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  std::vector<int> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0);
  for (size_t m : {size_t{203}, size_t{480}, simd::kDirTile + 88}) {
    const UtilityNet net = UtilityNet::SampleRandom(4, m, &rng);
    std::vector<double> auto_gains;
    for (simd::SimdMode mode : {simd::SimdMode::kAuto, simd::SimdMode::kOff}) {
      simd::SetMode(mode);
      NetEvaluator serial(&data, &net, sky, /*threads=*/1);
      serial.CacheCandidates(rows);
      std::vector<double> gains;
      for (int row : rows) gains.push_back(serial.FullGain(row));
      // The scalar reference path matches the dispatched one bit for bit.
      if (mode == simd::SimdMode::kAuto) {
        auto_gains = gains;
      } else {
        ASSERT_TRUE(SameBits(auto_gains.data(), gains.data(), gains.size()))
            << "m " << m << ": FullGain differs between SIMD modes";
      }
      for (int threads : {1, 2, 3, 4, 8}) {
        NetEvaluator parallel(&data, &net, sky, threads);
        PoisonScratchPool(rows.size() * m);
        parallel.CacheCandidates(rows);
        for (int row : rows) {
          const double* a = serial.cached_row(row);
          const double* b = parallel.cached_row(row);
          ASSERT_NE(a, nullptr);
          ASSERT_NE(b, nullptr);
          ASSERT_TRUE(SameBits(a, b, m))
              << "row " << row << " m " << m << " at " << threads
              << " threads, simd " << simd::SimdModeName(mode);
          const double want = serial.FullGain(row);
          const double got = parallel.FullGain(row);
          ASSERT_TRUE(SameBits(&want, &got, 1))
              << "FullGain of row " << row << " m " << m << " at " << threads
              << " threads, simd " << simd::SimdModeName(mode);
        }
      }
    }
  }
}

TEST(ParallelEvalTest, WitnessRegretsAreBitIdentical) {
  Rng rng(19);
  const Dataset data = GenAntiCorrelated(160, 4, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(6, sky.size()));
  const std::vector<double> want =
      AllWitnessRegretsLp(data, sky, solution, /*threads=*/1);
  for (int threads : kThreadCounts) {
    const std::vector<double> got =
        AllWitnessRegretsLp(data, sky, solution, threads);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << "witness " << i << " at " << threads
                                 << " threads";
    }
  }
}

TEST(ParallelEvalTest, MaxRegretWitnessIsBitIdentical) {
  Rng rng(23);
  const Dataset data = GenAntiCorrelated(160, 4, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(5, sky.size()));
  const RegretWitness want =
      MaxRegretWitnessLp(data, sky, solution, /*threads=*/1);
  for (int threads : kThreadCounts) {
    const RegretWitness got = MaxRegretWitnessLp(data, sky, solution, threads);
    ASSERT_EQ(want.row, got.row) << threads << " threads";
    ASSERT_EQ(want.regret, got.regret) << threads << " threads";
    ASSERT_EQ(want.utility, got.utility) << threads << " threads";
  }
}

TEST(ParallelEvalTest, MhrExactLpIsBitIdentical) {
  Rng rng(29);
  const Dataset data = GenIndependent(200, 3, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(4, sky.size()));
  const double want = MhrExactLp(data, sky, solution, /*threads=*/1);
  for (int threads : kThreadCounts) {
    ASSERT_EQ(want, MhrExactLp(data, sky, solution, threads))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace fairhms
