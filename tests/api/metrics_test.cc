// OpMetrics: percentile edge cases over the bounded latency reservoir —
// an empty ring must report zeros (not crash or divide), a single sample
// is every percentile, and once the ring wraps the percentiles describe
// the *recent* window while count/total_ms stay exact forever.

#include "api/metrics.h"

#include <cstddef>

#include <gtest/gtest.h>

#include "api/protocol.h"

namespace fairhms {
namespace {

constexpr size_t kQuery = static_cast<size_t>(ProtocolOp::kQuery);
constexpr size_t kList = static_cast<size_t>(ProtocolOp::kList);

TEST(OpMetricsTest, EmptyRingReportsZeros) {
  OpMetrics metrics;
  const OpMetrics::Snapshot snap = metrics.snapshot();
  for (const OpMetrics::OpSnapshot& op : snap.ops) {
    EXPECT_EQ(op.count, 0u);
    EXPECT_EQ(op.errors, 0u);
    EXPECT_EQ(op.total_ms, 0.0);
    EXPECT_EQ(op.p50_ms, 0.0);
    EXPECT_EQ(op.p99_ms, 0.0);
  }
  EXPECT_EQ(snap.served, 0u);
  EXPECT_EQ(snap.failed, 0u);
}

TEST(OpMetricsTest, SingleSampleIsEveryPercentile) {
  OpMetrics metrics;
  metrics.Record(ProtocolOp::kQuery, /*ok=*/true, 7.5);
  const OpMetrics::Snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.ops[kQuery].count, 1u);
  EXPECT_EQ(snap.ops[kQuery].errors, 0u);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].total_ms, 7.5);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p50_ms, 7.5);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p99_ms, 7.5);
  // Other ops stay untouched.
  EXPECT_EQ(snap.ops[kList].count, 0u);
  EXPECT_EQ(snap.ops[kList].p99_ms, 0.0);
}

TEST(OpMetricsTest, ErrorsCountSeparatelyButStillSample) {
  OpMetrics metrics;
  metrics.Record(ProtocolOp::kQuery, /*ok=*/true, 1.0);
  metrics.Record(ProtocolOp::kQuery, /*ok=*/false, 3.0);
  const OpMetrics::Snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.ops[kQuery].count, 2u);
  EXPECT_EQ(snap.ops[kQuery].errors, 1u);
  EXPECT_EQ(snap.served, 1u);
  EXPECT_EQ(snap.failed, 1u);
  // The failed request's latency still lands in the window.
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].total_ms, 4.0);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p99_ms, 3.0);
}

TEST(OpMetricsTest, RingWraparoundKeepsRecentWindowAndExactCounts) {
  OpMetrics metrics;
  // Fill the whole ring with slow samples, then overwrite it completely
  // with fast ones: percentiles must describe only the recent window.
  for (size_t i = 0; i < OpMetrics::kLatencyWindow; ++i) {
    metrics.Record(ProtocolOp::kQuery, true, 100.0);
  }
  OpMetrics::Snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.ops[kQuery].count, OpMetrics::kLatencyWindow);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p50_ms, 100.0);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p99_ms, 100.0);

  for (size_t i = 0; i < OpMetrics::kLatencyWindow; ++i) {
    metrics.Record(ProtocolOp::kQuery, true, 1.0);
  }
  snap = metrics.snapshot();
  // count/total_ms are exact forever, not capped at the window size.
  EXPECT_EQ(snap.ops[kQuery].count, 2 * OpMetrics::kLatencyWindow);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].total_ms,
                   101.0 * static_cast<double>(OpMetrics::kLatencyWindow));
  // Every slow sample has been overwritten.
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p50_ms, 1.0);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p99_ms, 1.0);
}

TEST(OpMetricsTest, PartialWraparoundMixesOldAndNew) {
  OpMetrics metrics;
  for (size_t i = 0; i < OpMetrics::kLatencyWindow; ++i) {
    metrics.Record(ProtocolOp::kQuery, true, 100.0);
  }
  // Overwrite just over half the ring: p50 flips to the new value while
  // p99 still sees the surviving old tail.
  const size_t overwrite = OpMetrics::kLatencyWindow / 2 + 64;
  for (size_t i = 0; i < overwrite; ++i) {
    metrics.Record(ProtocolOp::kQuery, true, 1.0);
  }
  const OpMetrics::Snapshot snap = metrics.snapshot();
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p50_ms, 1.0);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p99_ms, 100.0);
}

TEST(OpMetricsTest, NearestRankPercentilesOfUnsortedWindow) {
  OpMetrics metrics;
  // 1..101 recorded out of order (37 is coprime to 101, so i * 37 mod 101
  // visits every residue once). Nearest rank over 101 sorted samples:
  // p50 -> index round(0.50 * 100) = 50, p99 -> index round(0.99 * 100) = 99.
  for (size_t i = 0; i < 101; ++i) {
    metrics.Record(ProtocolOp::kQuery, true,
                   static_cast<double>(i * 37 % 101 + 1));
  }
  // A second op with its own window: 10 samples 10, 20, ..., 100 in
  // descending order. p50 -> index round(4.5 + 0.5) = 5, p99 -> index
  // round(8.91) = 9.
  for (int v = 100; v >= 10; v -= 10) {
    metrics.Record(ProtocolOp::kList, true, static_cast<double>(v));
  }
  const OpMetrics::Snapshot snap = metrics.snapshot();
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p50_ms, 51.0);
  EXPECT_DOUBLE_EQ(snap.ops[kQuery].p99_ms, 100.0);
  EXPECT_DOUBLE_EQ(snap.ops[kList].p50_ms, 60.0);
  EXPECT_DOUBLE_EQ(snap.ops[kList].p99_ms, 100.0);
  // A snapshot sorts copies, never the ring itself, so repeating it
  // returns the same values.
  const OpMetrics::Snapshot again = metrics.snapshot();
  EXPECT_EQ(again.ops[kQuery].p50_ms, snap.ops[kQuery].p50_ms);
  EXPECT_EQ(again.ops[kList].p99_ms, snap.ops[kList].p99_ms);
}

}  // namespace
}  // namespace fairhms
