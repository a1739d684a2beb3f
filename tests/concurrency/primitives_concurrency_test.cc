// Concurrency regression tests for the library's shared mutable
// primitives. Each test races the documented-thread-safe entry points of
// one component against each other and then checks an invariant that only
// holds if the internal locking is right. They are sized for
// ThreadSanitizer (the clang-tsan CI leg runs them with every
// interleaving-detection pass enabled), but the invariants are checked in
// every build.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/metrics.h"
#include "api/protocol.h"
#include "common/random.h"
#include "core/artifact_cache.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "plan/cost_model.h"

namespace fairhms {
namespace {

/// Readers hammer every lookup + stats path of two arbiter-managed caches
/// while each thread also inserts fresh nets (which charge the arbiter
/// after the cache lock is released). Invariant: once the threads join,
/// the bytes the caches report and the bytes the arbiter has charged for
/// them agree exactly — a lost update or torn read in the accounting
/// handoff breaks the equality.
TEST(CacheArbiterConcurrencyTest, AccountingStaysConsistentUnderRaces) {
  Rng data_rng(11);
  Dataset data = GenIndependent(120, 3, &data_rng).NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, 3);

  CacheArbiter arbiter(/*budget_bytes=*/0);  // Unlimited: never evicts.
  ArtifactCache cache_a;
  ArtifactCache cache_b;
  arbiter.Register(&cache_a, "a", [] {});
  arbiter.Register(&cache_b, "b", [] {});

  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactCache* mine = t % 2 == 0 ? &cache_a : &cache_b;
      ArtifactCache* other = t % 2 == 0 ? &cache_b : &cache_a;
      for (int i = 0; i < kIters; ++i) {
        // Fresh rng state per (thread, iter): every Net call is a miss
        // that inserts a new entry and charges the arbiter.
        Rng rng(static_cast<uint64_t>(t) * 1000 + i + 1);
        (void)mine->Net(3, 16 + static_cast<size_t>(t), &rng);
        (void)mine->Skyline(data);
        (void)other->GroupSkylines(data, grouping);
        (void)other->FairPool(data, grouping);
        mine->AccountProjection(i % 2 == 0, 64);
        arbiter.Touch(mine);
        (void)mine->stats();
        (void)arbiter.total_bytes();
        (void)arbiter.Ledger();
        (void)arbiter.ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const uint64_t cache_bytes =
      cache_a.stats().TotalBytes() + cache_b.stats().TotalBytes();
  EXPECT_EQ(cache_bytes, arbiter.total_bytes());
  EXPECT_EQ(arbiter.evictions(), 0u);

  arbiter.Unregister(&cache_a);
  arbiter.Unregister(&cache_b);
  EXPECT_EQ(arbiter.total_bytes(), 0u);
}

/// Recorders and snapshotters race; afterwards the exact counters
/// (count / errors / total_ms are exact forever, only percentiles window)
/// must equal what was recorded, and no snapshot may ever run backwards.
TEST(OpMetricsConcurrencyTest, RecordAndSnapshotRace) {
  OpMetrics metrics;
  constexpr int kRecorders = 4;
  constexpr int kPerThread = 2000;

  // A snapshot of a full latency window holds the lock far longer than a
  // record does, so snapshotters that re-take it back to back starve the
  // recorders on an unfair mutex (seen under -fsanitize=thread). Each
  // snapshotter therefore waits for kSnapshotEvery new records between
  // snapshots: the race still interleaves, and the recorders always
  // progress.
  constexpr int kSnapshotEvery = 64;
  std::atomic<int> recorded{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> snapshotters;
  for (int s = 0; s < 2; ++s) {
    snapshotters.emplace_back([&] {
      uint64_t last_total = 0;
      int next_at = 0;
      while (!stop.load()) {
        if (recorded.load() < next_at) {
          std::this_thread::yield();
          continue;
        }
        const OpMetrics::Snapshot snap = metrics.snapshot();
        const uint64_t total = snap.served + snap.failed;
        EXPECT_GE(total, last_total);  // Counters never run backwards.
        last_total = total;
        next_at = recorded.load() + kSnapshotEvery;
      }
    });
  }

  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&, t] {
      const ProtocolOp op =
          t % 2 == 0 ? ProtocolOp::kQuery : ProtocolOp::kStats;
      for (int i = 0; i < kPerThread; ++i) {
        metrics.Record(op, /*ok=*/i % 10 != 0, /*ms=*/0.25);
        recorded.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : recorders) thread.join();
  stop.store(true);
  for (std::thread& thread : snapshotters) thread.join();

  const OpMetrics::Snapshot snap = metrics.snapshot();
  const uint64_t expected_total =
      static_cast<uint64_t>(kRecorders) * kPerThread;
  EXPECT_EQ(snap.served + snap.failed, expected_total);
  EXPECT_EQ(snap.failed, expected_total / 10);
}

/// Concurrent Observe / Predict / Serialize; afterwards the observation
/// count is exact and the serialized form parses back losslessly.
TEST(CostModelConcurrencyTest, ObservePredictSerializeRace) {
  CostModel model;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string algorithm = t % 2 == 0 ? "intcov" : "bigreedy";
      for (int i = 0; i < kPerThread; ++i) {
        const CostSignature sig = CostSignature::Make(
            /*d=*/3, /*n=*/1000 + static_cast<uint64_t>(i), /*k=*/10,
            /*num_groups=*/3, /*bounds_tightness=*/0.5, i % 2 == 0);
        model.Observe(algorithm, sig, /*solve_ms=*/1.5,
                      /*happiness_ratio=*/0.9);
        (void)model.Predict(algorithm, sig);
        if (i % 50 == 0) (void)model.Serialize();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(model.observations(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  CostModel restored;
  ASSERT_TRUE(restored.Restore(model.Serialize()).ok());
  EXPECT_EQ(restored.Serialize(), model.Serialize());
}

}  // namespace
}  // namespace fairhms
