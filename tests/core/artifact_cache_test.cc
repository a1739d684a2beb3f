// Bookkeeping contract of ArtifactCache: per-class hit/miss counters,
// superseded-version pruning, the Put* publish hooks, the evaluator
// version-stamp sweep and Clear — with the attached CacheArbiter's ledger
// checked against the cache's own byte total after every step.

#include "core/artifact_cache.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

uint64_t Bytes(const std::vector<int>& v) { return v.size() * sizeof(int); }

uint64_t Bytes(const std::vector<std::vector<int>>& v) {
  uint64_t bytes = 0;
  for (const auto& inner : v) bytes += Bytes(inner);
  return bytes;
}

class ArtifactCacheTest : public ::testing::Test {
 protected:
  ArtifactCacheTest()
      : data_(GenIndependent(80, 3, &data_rng_).NormalizedMinMax()),
        grouping_(GroupBySumRank(data_, 3)),
        arbiter_(/*budget_bytes=*/0) {
    arbiter_.Register(&cache_, "test", [this] { cache_.Clear(); });
  }
  ~ArtifactCacheTest() override { arbiter_.Unregister(&cache_); }

  /// The arbiter must have charged exactly what the cache reports resident.
  void ExpectLedgerAgrees() {
    EXPECT_EQ(cache_.stats().TotalBytes(), arbiter_.total_bytes());
  }

  /// A live row outside the global skyline: erasing it bumps the dataset
  /// version without changing any skyline.
  int NonSkylineRow() {
    const std::vector<int> sky = ComputeSkyline(data_);
    for (int r = 0; r < static_cast<int>(data_.size()); ++r) {
      if (data_.live(static_cast<size_t>(r)) &&
          std::find(sky.begin(), sky.end(), r) == sky.end()) {
        return r;
      }
    }
    ADD_FAILURE() << "every row is on the skyline";
    return 0;
  }

  Rng data_rng_{7};
  Dataset data_;
  Grouping grouping_;
  CacheArbiter arbiter_;
  ArtifactCache cache_;
};

TEST_F(ArtifactCacheTest, CountsHitsAndMissesPerClass) {
  Rng rng_a(3);
  Rng rng_b(3);
  const auto net = cache_.Net(3, 40, &rng_a);
  ExpectLedgerAgrees();
  const auto net_again = cache_.Net(3, 40, &rng_b);
  ExpectLedgerAgrees();
  EXPECT_EQ(net.get(), net_again.get());
  // The hit fast-forwards the generator exactly as sampling would have.
  EXPECT_EQ(rng_a.StateKey(), rng_b.StateKey());

  const std::vector<int> rows = data_.LiveRows();
  const auto eval = cache_.Evaluator(data_, net, rows, {}, 1);
  ExpectLedgerAgrees();
  EXPECT_EQ(eval.get(), cache_.Evaluator(data_, net, rows, {}, 1).get());
  ExpectLedgerAgrees();

  const std::vector<int>& sky = cache_.Skyline(data_);
  EXPECT_EQ(&sky, &cache_.Skyline(data_));
  ExpectLedgerAgrees();
  const auto& group_sky = cache_.GroupSkylines(data_, grouping_);
  EXPECT_EQ(&group_sky, &cache_.GroupSkylines(data_, grouping_));
  ExpectLedgerAgrees();
  const std::vector<int>& pool = cache_.FairPool(data_, grouping_);
  EXPECT_EQ(&pool, &cache_.FairPool(data_, grouping_));
  ExpectLedgerAgrees();
  const std::vector<int>& counts = cache_.GroupCounts(data_, grouping_);
  EXPECT_EQ(&counts, &cache_.GroupCounts(data_, grouping_));
  ExpectLedgerAgrees();
  const auto& members = cache_.GroupMembers(data_, grouping_);
  EXPECT_EQ(&members, &cache_.GroupMembers(data_, grouping_));
  ExpectLedgerAgrees();
  cache_.AccountProjection(/*hit=*/false, 96);
  cache_.AccountProjection(/*hit=*/true, 96);
  ExpectLedgerAgrees();

  EXPECT_EQ(sky, ComputeSkyline(data_));
  EXPECT_EQ(group_sky, ComputeGroupSkylines(data_, grouping_));
  EXPECT_EQ(pool, ComputeFairCandidatePool(data_, grouping_));
  EXPECT_EQ(counts, grouping_.LiveCounts(data_));
  EXPECT_EQ(members, grouping_.MembersLive(data_));

  const CacheStats s = cache_.stats();
  const CacheStats::Counter* one_each[] = {
      &s.nets, &s.evaluators, &s.skylines, &s.group_skylines, &s.pools,
      &s.projections};
  for (const CacheStats::Counter* c : one_each) {
    EXPECT_EQ(c->hits, 1u);
    EXPECT_EQ(c->misses, 1u);
  }
  // Counts and members share the "groups" class.
  EXPECT_EQ(s.groups.hits, 2u);
  EXPECT_EQ(s.groups.misses, 2u);
  EXPECT_EQ(s.TotalHits(), 8u);
  EXPECT_EQ(s.TotalMisses(), 8u);

  EXPECT_EQ(s.nets.bytes, 40u * 3u * sizeof(double));
  EXPECT_EQ(s.evaluators.bytes, eval->ResidentBytes());
  EXPECT_EQ(s.skylines.bytes, Bytes(sky));
  EXPECT_EQ(s.group_skylines.bytes, Bytes(group_sky));
  EXPECT_EQ(s.pools.bytes, Bytes(pool));
  EXPECT_EQ(s.groups.bytes, Bytes(counts) + Bytes(members));
  EXPECT_EQ(s.projections.bytes, 96u);
}

TEST_F(ArtifactCacheTest, DataVersionBumpPrunesSupersededEntries) {
  (void)cache_.Skyline(data_);
  (void)cache_.GroupSkylines(data_, grouping_);
  (void)cache_.FairPool(data_, grouping_);
  (void)cache_.GroupCounts(data_, grouping_);
  (void)cache_.GroupMembers(data_, grouping_);
  ExpectLedgerAgrees();

  // Erase a skyline row so every artifact changes, not just its key.
  ASSERT_TRUE(data_.ErasePoints({ComputeSkyline(data_).front()}).ok());
  const std::vector<int>& sky = cache_.Skyline(data_);
  ExpectLedgerAgrees();
  const auto& group_sky = cache_.GroupSkylines(data_, grouping_);
  ExpectLedgerAgrees();
  const std::vector<int>& pool = cache_.FairPool(data_, grouping_);
  ExpectLedgerAgrees();
  const std::vector<int>& counts = cache_.GroupCounts(data_, grouping_);
  ExpectLedgerAgrees();
  const auto& members = cache_.GroupMembers(data_, grouping_);
  ExpectLedgerAgrees();

  EXPECT_EQ(sky, ComputeSkyline(data_));
  EXPECT_EQ(members, grouping_.MembersLive(data_));
  const CacheStats s = cache_.stats();
  EXPECT_EQ(s.TotalHits(), 0u);
  EXPECT_EQ(s.TotalMisses(), 10u);
  // Only the surviving (current-version) entry of each class is resident.
  EXPECT_EQ(s.skylines.bytes, Bytes(sky));
  EXPECT_EQ(s.group_skylines.bytes, Bytes(group_sky));
  EXPECT_EQ(s.pools.bytes, Bytes(pool));
  EXPECT_EQ(s.groups.bytes, Bytes(counts) + Bytes(members));
}

TEST_F(ArtifactCacheTest, GroupingVersionBumpPrunesSupersededEntries) {
  (void)cache_.Skyline(data_);
  (void)cache_.GroupSkylines(data_, grouping_);
  (void)cache_.FairPool(data_, grouping_);
  (void)cache_.GroupCounts(data_, grouping_);
  (void)cache_.GroupMembers(data_, grouping_);
  ExpectLedgerAgrees();

  grouping_.AddGroup("empty");
  // The global skyline does not depend on the grouping: still a hit.
  const std::vector<int>& sky = cache_.Skyline(data_);
  const auto& group_sky = cache_.GroupSkylines(data_, grouping_);
  const std::vector<int>& pool = cache_.FairPool(data_, grouping_);
  const std::vector<int>& counts = cache_.GroupCounts(data_, grouping_);
  const auto& members = cache_.GroupMembers(data_, grouping_);
  ExpectLedgerAgrees();

  ASSERT_EQ(group_sky.size(), 4u);
  EXPECT_TRUE(group_sky.back().empty());
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts.back(), 0);
  const CacheStats s = cache_.stats();
  EXPECT_EQ(s.skylines.hits, 1u);
  EXPECT_EQ(s.skylines.misses, 1u);
  EXPECT_EQ(s.group_skylines.misses, 2u);
  EXPECT_EQ(s.pools.misses, 2u);
  EXPECT_EQ(s.groups.misses, 4u);
  EXPECT_EQ(s.skylines.bytes, Bytes(sky));
  EXPECT_EQ(s.group_skylines.bytes, Bytes(group_sky));
  EXPECT_EQ(s.pools.bytes, Bytes(pool));
  EXPECT_EQ(s.groups.bytes, Bytes(counts) + Bytes(members));
}

TEST_F(ArtifactCacheTest, PutCountsNeitherHitNorMissAndReplaces) {
  // Publishing into an empty cache.
  cache_.PutSkyline(data_, {1, 2, 3});
  ExpectLedgerAgrees();
  EXPECT_EQ(cache_.stats().TotalHits(), 0u);
  EXPECT_EQ(cache_.stats().TotalMisses(), 0u);
  EXPECT_EQ(cache_.stats().skylines.bytes, 3 * sizeof(int));

  // Publishing over a computed entry replaces it, at the same version.
  (void)cache_.GroupSkylines(data_, grouping_);
  (void)cache_.FairPool(data_, grouping_);
  (void)cache_.GroupCounts(data_, grouping_);
  (void)cache_.GroupMembers(data_, grouping_);
  ExpectLedgerAgrees();
  const CacheStats before = cache_.stats();
  cache_.PutSkyline(data_, {4, 5});
  cache_.PutGroupArtifacts(data_, grouping_, {{4}, {}, {5}}, {4, 5},
                           {1, 0, 1}, {{4}, {}, {5}});
  ExpectLedgerAgrees();
  CacheStats s = cache_.stats();
  EXPECT_EQ(s.TotalHits(), before.TotalHits());
  EXPECT_EQ(s.TotalMisses(), before.TotalMisses());
  EXPECT_EQ(s.skylines.bytes, 2 * sizeof(int));
  EXPECT_EQ(s.group_skylines.bytes, 2 * sizeof(int));
  EXPECT_EQ(s.pools.bytes, 2 * sizeof(int));
  EXPECT_EQ(s.groups.bytes, 5 * sizeof(int));

  // The next lookups hit the published values.
  EXPECT_EQ(cache_.Skyline(data_), (std::vector<int>{4, 5}));
  EXPECT_EQ(cache_.GroupSkylines(data_, grouping_),
            (std::vector<std::vector<int>>{{4}, {}, {5}}));
  EXPECT_EQ(cache_.FairPool(data_, grouping_), (std::vector<int>{4, 5}));
  EXPECT_EQ(cache_.GroupCounts(data_, grouping_), (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(cache_.GroupMembers(data_, grouping_),
            (std::vector<std::vector<int>>{{4}, {}, {5}}));
  s = cache_.stats();
  EXPECT_EQ(s.TotalHits(), before.TotalHits() + 5);
  EXPECT_EQ(s.TotalMisses(), before.TotalMisses());

  // A publish at a newer version prunes the superseded entry.
  ASSERT_TRUE(data_.ErasePoints({NonSkylineRow()}).ok());
  cache_.PutSkyline(data_, {6});
  ExpectLedgerAgrees();
  EXPECT_EQ(cache_.stats().skylines.bytes, sizeof(int));
}

TEST_F(ArtifactCacheTest, EvaluatorSweepEvictsStrandedAndKeepsHitEntries) {
  Rng rng(5);
  const auto net = cache_.Net(3, 32, &rng);
  const std::vector<int> rows = data_.LiveRows();
  const std::vector<int> rows_a(rows.begin(), rows.begin() + 20);
  const std::vector<int> rows_b(rows.begin() + 20, rows.begin() + 40);
  const std::vector<int> rows_c(rows.begin() + 40, rows.begin() + 60);

  const auto eval_a = cache_.Evaluator(data_, net, rows_a, {}, 1);
  const auto eval_b = cache_.Evaluator(data_, net, rows_b, {}, 1);
  ExpectLedgerAgrees();
  EXPECT_EQ(cache_.stats().evaluators.bytes,
            eval_a->ResidentBytes() + eval_b->ResidentBytes());

  // Both entries are now stranded at the old version. A hit on A restamps
  // it, so the sweep run by the next miss (C) evicts only B.
  ASSERT_TRUE(data_.ErasePoints({rows.back()}).ok());
  EXPECT_EQ(cache_.Evaluator(data_, net, rows_a, {}, 1).get(), eval_a.get());
  ExpectLedgerAgrees();
  const auto eval_c = cache_.Evaluator(data_, net, rows_c, {}, 1);
  ExpectLedgerAgrees();
  CacheStats s = cache_.stats();
  EXPECT_EQ(s.evaluators.hits, 1u);
  EXPECT_EQ(s.evaluators.misses, 3u);
  EXPECT_EQ(s.evaluators.bytes,
            eval_a->ResidentBytes() + eval_c->ResidentBytes());

  // B was swept (a fresh build), A and C survive.
  EXPECT_NE(cache_.Evaluator(data_, net, rows_b, {}, 1).get(), eval_b.get());
  EXPECT_EQ(cache_.Evaluator(data_, net, rows_a, {}, 1).get(), eval_a.get());
  EXPECT_EQ(cache_.Evaluator(data_, net, rows_c, {}, 1).get(), eval_c.get());
  ExpectLedgerAgrees();
  s = cache_.stats();
  EXPECT_EQ(s.evaluators.hits, 3u);
  EXPECT_EQ(s.evaluators.misses, 4u);
}

TEST_F(ArtifactCacheTest, ClearRefundsExactlyWhatWasCharged) {
  Rng rng(9);
  const auto net = cache_.Net(3, 24, &rng);
  (void)cache_.Evaluator(data_, net, data_.LiveRows(), {}, 1);
  (void)cache_.Skyline(data_);
  (void)cache_.GroupSkylines(data_, grouping_);
  (void)cache_.FairPool(data_, grouping_);
  (void)cache_.GroupCounts(data_, grouping_);
  (void)cache_.GroupMembers(data_, grouping_);
  cache_.AccountProjection(/*hit=*/false, 128);
  ExpectLedgerAgrees();
  const CacheStats before = cache_.stats();
  ASSERT_GT(before.TotalBytes(), 0u);
  ASSERT_EQ(arbiter_.total_bytes(), before.TotalBytes());

  cache_.Clear();
  ExpectLedgerAgrees();
  const CacheStats s = cache_.stats();
  EXPECT_EQ(arbiter_.total_bytes(), 0u);
  EXPECT_EQ(s.TotalBytes(), 0u);
  // Hit/miss history survives a Clear.
  EXPECT_EQ(s.TotalHits(), before.TotalHits());
  EXPECT_EQ(s.TotalMisses(), before.TotalMisses());

  // Everything rebuilds (and is charged again) on the next lookup.
  (void)cache_.Skyline(data_);
  ExpectLedgerAgrees();
  EXPECT_EQ(cache_.stats().skylines.misses, before.skylines.misses + 1);
  EXPECT_EQ(cache_.stats().skylines.bytes, before.skylines.bytes);
}

}  // namespace
}  // namespace fairhms
