// Correctness oracles and serial in-process replays.
//
// Every benchmark run checks its responses two ways: field checks on each
// response, and a comparison against an in-process replay of the same
// lines (normalized the way bench_serve's NormalizeResponse does, plus the
// planner's timing-derived fields). The traced replay mirrors
// ProtocolService::HandleLine call by call through the layers' public
// functions, recording one span around each call.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace perfbench {

/// Blanks what legitimately varies between equivalent serves: seq,
/// solve_ms, total_ms, the warm_start flag, and the plan object's
/// predicted_ms / predicted_hr / actual_ms / reason (cost-model state
/// depends on measured times and on the order observations land).
std::string Normalize(std::string response);

/// The response without its "plan" object (what an "auto" line adds to
/// the answer its planned algorithm gives when named).
std::string StripPlan(std::string response);

/// The response without its leading "id" member.
std::string StripId(const std::string& response);

/// Order-insensitive digest of a set of lines: "<count>|<fnv1a-64>".
std::string Digest(std::vector<std::string> lines);

/// Collects correctness failures (the first few are kept verbatim).
struct Checks {
  size_t failures = 0;
  std::vector<std::string> messages;
  void Fail(const std::string& message);
  bool ok() const { return failures == 0; }
};

/// Field checks on one response: ok, and for queries violations == 0,
/// solution_size == k, group counts within the proportional bounds built
/// from `group_counts`, happiness_ratio in (0, 1]. An empty `group_counts`
/// skips the bounds check.
void CheckResponse(const Line& line, const std::string& response,
                   const std::vector<int>& group_counts, Checks* checks);

/// Live group counts of a dataset, as the service builds bounds from.
std::vector<int> GroupCounts(Env* env, const std::string& dataset);

struct Replayed {
  const Line* line = nullptr;
  std::string response;
};

/// Serves `order` one line at a time through ProtocolService::HandleLine.
std::vector<Replayed> SerialReplay(Env* env,
                                   const std::vector<const Line*>& order);

/// Replays `order` (already in seq order) through HandleLine: runs of
/// consecutive queries go out on `threads` threads at once (queries commute
/// under the service's shared locks), mutations one at a time. Checks each
/// query's group counts against the bounds in force at its position.
std::vector<std::string> SeqReplay(Env* env,
                                   const std::vector<const Line*>& order,
                                   int threads, Checks* checks);

/// One span of the traced replay.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< Index of the enclosing span, -1 for a root.
  int line = -1;    ///< Index of the replayed line.
};

/// Records spans in memory against one steady-clock origin.
class Tracer {
 public:
  Tracer() : start_(std::chrono::steady_clock::now()) {}
  int Begin(const char* name, int parent, int line);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point start_;
  std::vector<Span> spans_;
};

/// Serves lines through the layers' public calls, the way
/// ProtocolService::HandleLine does, with a span around each call:
/// protocol.parse, plan.plan, core.evaluator_build, session.solve,
/// core.ref_mhr, session.insert, session.erase and protocol.render, all
/// under one service.handle root per line.
class TracedReplayer {
 public:
  TracedReplayer(Env* env, uint64_t seed) : env_(env), seed_(seed) {}
  /// Serves one line, recording its spans under `index`; returns the
  /// rendered response.
  std::string Handle(const Line& line, int index);
  const Tracer& tracer() const { return tracer_; }
  /// Per query: the session cost model's |predicted - actual| solve ms
  /// for the algorithm that ran (queries whose model cell was cold are
  /// skipped) — the planner's prediction error, measured on every query.
  const std::vector<double>& plan_errors() const { return plan_errors_; }

 private:
  Env* env_;
  uint64_t seed_;
  uint64_t seq_ = 0;
  Tracer tracer_;
  std::vector<double> plan_errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
