#include "api/metrics.h"

#include <algorithm>

namespace fairhms {

namespace {

/// Nearest-rank percentile of an ascending-sorted sample window.
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      pct / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

void OpMetrics::Record(ProtocolOp op, bool ok, double ms) {
  MutexLock lock(&mu_);
  PerOp& per_op = ops_[static_cast<size_t>(op)];
  ++per_op.count;
  if (!ok) ++per_op.errors;
  per_op.total_ms += ms;
  if (per_op.window.size() < kLatencyWindow) {
    per_op.window.push_back(ms);
  } else {
    per_op.window[per_op.next] = ms;
    per_op.next = (per_op.next + 1) % kLatencyWindow;
  }
}

OpMetrics::Snapshot OpMetrics::snapshot() const {
  Snapshot snap;
  // Only the copies happen under mu_; the sorts run after it is released,
  // so a `stats` call never holds up a worker's Record.
  std::array<std::vector<double>, kNumProtocolOps> windows;
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < ops_.size(); ++i) {
      const PerOp& per_op = ops_[i];
      OpSnapshot& out = snap.ops[i];
      out.count = per_op.count;
      out.errors = per_op.errors;
      out.total_ms = per_op.total_ms;
      windows[i] = per_op.window;
      snap.served += per_op.count - per_op.errors;
      snap.failed += per_op.errors;
    }
    snap.uptime_ms = uptime_.ElapsedMillis();
  }
  for (size_t i = 0; i < windows.size(); ++i) {
    std::sort(windows[i].begin(), windows[i].end());
    snap.ops[i].p50_ms = Percentile(windows[i], 50.0);
    snap.ops[i].p99_ms = Percentile(windows[i], 99.0);
  }
  if (snap.uptime_ms > 0.0) {
    snap.qps = static_cast<double>(snap.served + snap.failed) /
               (snap.uptime_ms / 1000.0);
  }
  return snap;
}

}  // namespace fairhms
