#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "algo/algo_util.h"
#include "api/protocol.h"
#include "common/json.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/artifact_cache.h"
#include "core/evaluate.h"
#include "fairness/group_bounds.h"
#include "plan/cost_model.h"
#include "plan/planner.h"
#include "utility/utility_net.h"

namespace perfbench {

using fairhms::JsonValue;
using fairhms::Status;
using fairhms::StatusOr;
using fairhms::StrFormat;

namespace {

constexpr size_t kMaxMessages = 8;

void BlankNumber(std::string* s, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  size_t pos = 0;
  while ((pos = s->find(needle, pos)) != std::string::npos) {
    const size_t start = pos + needle.size();
    size_t end = start;
    while (end < s->size() &&
           (std::isdigit(static_cast<unsigned char>((*s)[end])) ||
            std::strchr(".eE+-", (*s)[end]) != nullptr)) {
      ++end;
    }
    s->replace(start, end - start, "T");
    pos = start + 1;
  }
}

void BlankString(std::string* s, const char* key) {
  const std::string needle = std::string("\"") + key + "\": \"";
  size_t pos = 0;
  while ((pos = s->find(needle, pos)) != std::string::npos) {
    const size_t start = pos + needle.size();
    size_t end = start;
    while (end < s->size() && (*s)[end] != '"') {
      end += (*s)[end] == '\\' ? 2 : 1;
    }
    s->replace(start, std::min(end, s->size()) - start, "T");
    pos = start + 1;
  }
}

fairhms::GroupBounds ProportionalBounds(const Line& line,
                                        const std::vector<int>& counts) {
  return fairhms::GroupBounds::Proportional(line.k, counts, 0.1);
}

double BoundsTightness(const fairhms::GroupBounds& bounds) {
  if (bounds.k <= 0) return 0.0;
  long long lower_sum = 0;
  for (const int lo : bounds.lower) lower_sum += lo;
  return std::clamp(static_cast<double>(lower_sum) / bounds.k, 0.0, 1.0);
}

/// Builds the evaluators BiGreedy / BiGreedy+ are about to look up, with
/// the same keys, so the solve that follows finds them cached and this
/// span carries the net sampling and evaluator construction.
void PrewarmEvaluators(fairhms::SolverSession* session,
                       const std::string& algorithm,
                       const fairhms::GroupBounds& bounds,
                       const fairhms::AlgoParams& params, uint64_t seed,
                       int threads) {
  const fairhms::Dataset& data = session->data();
  fairhms::ArtifactCache* cache = session->cache();
  auto input = fairhms::PrepareProblem(data, session->grouping(), bounds, {},
                                       {}, cache);
  if (!input.ok()) return;
  const int d = data.dim();
  const size_t kd = static_cast<size_t>(10) *
                    static_cast<size_t>(bounds.k) * static_cast<size_t>(d);
  fairhms::Rng rng(seed);
  if (algorithm == "bigreedy") {
    size_t m = static_cast<size_t>(params.IntOr("net_size", 0));
    const double delta = params.DoubleOr("delta", 0.0);
    if (m == 0 && delta > 0.0) {
      m = fairhms::UtilityNet::DeltaToSampleSize(delta / (d * (2.0 - delta)),
                                                 d);
    }
    if (m == 0) m = kd;
    auto net = fairhms::GetOrSampleNet(cache, d, m, &rng);
    fairhms::GetOrBuildEvaluator(cache, data, net, input->db_rows,
                                 input->pool, threads);
    return;
  }
  size_t cap = static_cast<size_t>(params.IntOr("max_net_size", 0));
  if (cap == 0) cap = kd;
  const double m0 = params.DoubleOr("m0_fraction", 0.05);
  size_t m = std::max<size_t>(
      static_cast<size_t>(d) + 1,
      static_cast<size_t>(std::ceil(m0 * static_cast<double>(cap))));
  m = std::min(m, cap);
  fairhms::Rng eval_rng = rng.Fork();
  auto eval_net = fairhms::GetOrSampleNet(
      cache, d, std::max<size_t>(2 * cap, 2000), &eval_rng);
  fairhms::GetOrBuildEvaluator(cache, data, eval_net, input->db_rows, {},
                               threads);
  fairhms::Rng net_rng = rng.Fork();
  auto net = fairhms::GetOrSampleNet(cache, d, m, &net_rng);
  fairhms::GetOrBuildEvaluator(cache, data, net, input->db_rows, input->pool,
                               threads);
}

/// ProtocolService::ExecuteQuery, one span per layer call. Appends to
/// `plan_errors` the cost model's |predicted - actual| solve ms for the
/// algorithm that runs, when the model has samples for it.
Status TracedQuery(fairhms::SolverSession* session,
                   const fairhms::QueryRequest& request, uint64_t seed,
                   Tracer* tracer, int root, int line,
                   fairhms::QueryResponse* out,
                   std::vector<double>* plan_errors) {
  fairhms::SolverRequest solve;
  solve.algorithm = request.algorithm;
  solve.seed = request.has_seed ? request.seed : seed;
  solve.threads = request.has_threads ? request.threads : 1;
  switch (request.bounds) {
    case fairhms::QueryRequest::Bounds::kProportional:
      solve.bounds = fairhms::GroupBounds::Proportional(
          request.k, session->group_counts(), request.alpha);
      break;
    case fairhms::QueryRequest::Bounds::kBalanced: {
      FAIRHMS_ASSIGN_OR_RETURN(
          solve.bounds,
          fairhms::GroupBounds::Balanced(
              request.k, session->grouping().num_groups, request.alpha));
      break;
    }
    case fairhms::QueryRequest::Bounds::kExplicit: {
      FAIRHMS_ASSIGN_OR_RETURN(
          solve.bounds, fairhms::GroupBounds::Explicit(
                            request.k, request.lower, request.upper));
      break;
    }
  }
  solve.params = request.params;
  solve.latency_budget_ms = request.latency_budget_ms;
  solve.quality_target = request.quality_target;
  solve.allow_warm_start = request.warm_start;

  std::string algorithm = solve.algorithm;
  fairhms::AlgoParams params = solve.params;
  if (algorithm == "auto") {
    const int span = tracer->Begin("plan.plan", root, line);
    fairhms::PlanRequest plan;
    plan.d = session->data().dim();
    plan.n = session->data().live_size();
    plan.k = solve.bounds.k;
    plan.num_groups = session->grouping().num_groups;
    plan.bounds_tightness = BoundsTightness(solve.bounds);
    plan.cache_warm = session->cache()->stats().TotalBytes() > 0;
    plan.latency_budget_ms = solve.latency_budget_ms;
    plan.quality_target = solve.quality_target;
    plan.seed = solve.seed;
    auto planned =
        fairhms::Planner::PlanQuery(plan, *session->cost_model(), &params);
    tracer->End(span);
    if (planned.ok()) algorithm = planned->algorithm;
  }
  const fairhms::CostModel::Estimate predicted = session->cost_model()->Predict(
      algorithm, fairhms::CostSignature::Make(
                     session->data().dim(), session->data().live_size(),
                     solve.bounds.k, session->grouping().num_groups,
                     BoundsTightness(solve.bounds),
                     session->cache()->stats().TotalBytes() > 0));
  if (algorithm == "bigreedy" || algorithm == "bigreedy+") {
    const int span = tracer->Begin("core.evaluator_build", root, line);
    PrewarmEvaluators(session, algorithm, solve.bounds, params, solve.seed,
                      solve.threads);
    tracer->End(span);
  }
  int span = tracer->Begin("session.solve", root, line);
  StatusOr<fairhms::SolverResult> run_or = session->Solve(solve);
  tracer->End(span);
  FAIRHMS_RETURN_IF_ERROR(run_or.status());
  const fairhms::SolverResult& run = *run_or;
  if (predicted.samples > 0) {
    plan_errors->push_back(std::fabs(predicted.ms - run.solve_ms));
  }

  span = tracer->Begin("core.ref_mhr", root, line);
  const fairhms::Dataset& data = session->data();
  fairhms::EvalOptions eval_opts;
  eval_opts.threads = solve.threads;
  eval_opts.cache = session->cache();
  const double mhr = fairhms::EvaluateMhr(
      data, session->cache()->Skyline(data), run.solution.rows, eval_opts);
  tracer->End(span);

  out->algorithm = run.algorithm;
  out->k = request.k;
  out->seed = solve.seed;
  out->threads = solve.threads;
  out->rows = run.solution.rows;
  out->happiness_ratio = mhr;
  out->algo_mhr_estimate = run.solution.mhr;
  out->violations = run.violations;
  out->group_counts = run.group_counts;
  out->note = run.note;
  out->planned = run.plan.planned;
  out->predicted_ms = run.plan.predicted_ms;
  out->predicted_hr = run.plan.predicted_hr;
  out->plan_reason = run.plan.reason;
  out->plan_params = run.plan.params;
  out->warm_start = run.warm_start_used;
  out->solve_ms = run.solve_ms;
  out->total_ms = run.total_ms;
  return Status::OK();
}

}  // namespace

std::string Normalize(std::string s) {
  static const std::string kWarmStart = ", \"warm_start\": true";
  for (size_t pos; (pos = s.find(kWarmStart)) != std::string::npos;) {
    s.erase(pos, kWarmStart.size());
  }
  for (const char* key : {"seq", "solve_ms", "total_ms", "predicted_ms",
                          "predicted_hr", "actual_ms"}) {
    BlankNumber(&s, key);
  }
  BlankString(&s, "reason");
  return s;
}

std::string StripPlan(std::string response) {
  static const std::string kPlan = ", \"plan\": {";
  const size_t start = response.find(kPlan);
  if (start == std::string::npos) return response;
  const size_t end = response.find('}', start);
  if (end == std::string::npos) return response;
  response.erase(start, end + 1 - start);
  return response;
}

std::string StripId(const std::string& response) {
  static const std::string kPrefix = "{\"id\": \"";
  if (response.compare(0, kPrefix.size(), kPrefix) != 0) return response;
  const size_t close = response.find('"', kPrefix.size());
  if (close == std::string::npos) return response;
  size_t rest = close + 1;
  if (response.compare(rest, 2, ", ") == 0) rest += 2;
  return "{" + response.substr(rest);
}

std::string Digest(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  uint64_t hash = 1469598103934665603ull;  // FNV-1a.
  for (const std::string& line : lines) {
    for (const char c : line) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= static_cast<unsigned char>('\n');
    hash *= 1099511628211ull;
  }
  return StrFormat("%zu|%016llx", lines.size(),
                   static_cast<unsigned long long>(hash));
}

void Checks::Fail(const std::string& message) {
  ++failures;
  if (messages.size() < kMaxMessages) messages.push_back(message);
}

void CheckResponse(const Line& line, const std::string& response,
                   const std::vector<int>& group_counts, Checks* checks) {
  const auto fail = [&](const char* what) {
    checks->Fail(StrFormat("%s: %s -> %s", what, line.text.c_str(),
                           response.c_str()));
  };
  auto parsed = fairhms::ParseJson(response);
  if (!parsed.ok() || !parsed->is_object()) return fail("unparsable response");
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return fail("response not ok");
  }
  if (line.kind != LineKind::kQuery) return;
  const JsonValue* violations = parsed->Find("violations");
  const JsonValue* size = parsed->Find("solution_size");
  const JsonValue* rows = parsed->Find("rows");
  const JsonValue* hr = parsed->Find("happiness_ratio");
  const JsonValue* counts = parsed->Find("group_counts");
  if (violations == nullptr || size == nullptr || rows == nullptr ||
      hr == nullptr || counts == nullptr) {
    return fail("query response misses a field");
  }
  if (violations->number_value() != 0) return fail("violations != 0");
  if (size->number_value() != line.k ||
      rows->items().size() != static_cast<size_t>(line.k)) {
    return fail("solution_size != k");
  }
  const double ratio = hr->number_value();
  if (!(ratio > 0.0 && ratio <= 1.0)) return fail("happiness_ratio not in (0, 1]");
  if (group_counts.empty()) return;
  const fairhms::GroupBounds bounds = ProportionalBounds(line, group_counts);
  const std::vector<JsonValue>& got = counts->items();
  if (got.size() != bounds.lower.size()) return fail("group_counts size");
  for (size_t g = 0; g < got.size(); ++g) {
    const double c = got[g].number_value();
    if (c < bounds.lower[g] || c > bounds.upper[g]) {
      return fail("group count outside its bounds");
    }
  }
}

std::vector<int> GroupCounts(Env* env, const std::string& dataset) {
  auto session = env->catalog->Session(dataset);
  if (!session.ok()) return {};
  return (*session)->group_counts();
}

std::vector<Replayed> SerialReplay(Env* env,
                                   const std::vector<const Line*>& order) {
  std::vector<Replayed> out;
  out.reserve(order.size());
  uint64_t line_no = 0;
  for (const Line* line : order) {
    out.push_back({line, env->service->HandleLine(line->text, ++line_no)});
  }
  return out;
}

std::vector<std::string> SeqReplay(Env* env,
                                   const std::vector<const Line*>& order,
                                   int threads, Checks* checks) {
  std::vector<std::string> out(order.size());
  size_t i = 0;
  while (i < order.size()) {
    if (order[i]->kind != LineKind::kQuery) {
      out[i] = env->service->HandleLine(order[i]->text, i + 1);
      ++i;
      continue;
    }
    size_t end = i;
    while (end < order.size() && order[end]->kind == LineKind::kQuery) ++end;
    // Bounds in force for this run of queries (no mutation inside it).
    const std::vector<int> counts = GroupCounts(env, order[i]->dataset);
    std::atomic<size_t> next{i};
    const auto work = [&] {
      for (size_t j; (j = next.fetch_add(1)) < end;) {
        out[j] = env->service->HandleLine(order[j]->text, j + 1);
      }
    };
    std::vector<std::thread> pool;
    const size_t lanes =
        std::min<size_t>(static_cast<size_t>(std::max(threads, 1)), end - i);
    for (size_t t = 1; t < lanes; ++t) pool.emplace_back(work);
    work();
    for (std::thread& t : pool) t.join();
    for (size_t j = i; j < end; ++j) {
      CheckResponse(*order[j], out[j], counts, checks);
    }
    i = end;
  }
  return out;
}

int Tracer::Begin(const char* name, int parent, int line) {
  const double now = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  spans_.push_back({name, now, 0.0, parent, line});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start_)
          .count();
}

std::string TracedReplayer::Handle(const Line& line, int index) {
  const int root = tracer_.Begin("service.handle", -1, index);
  fairhms::Request request;
  Status status;
  int span = tracer_.Begin("protocol.parse", root, index);
  auto parsed = fairhms::ParseJson(line.text);
  if (!parsed.ok()) {
    status = parsed.status();
  } else if (!parsed->is_object()) {
    status = Status::InvalidArgument("each query line must be an object");
  } else {
    status = fairhms::ParseRequest(*parsed, &request);
  }
  tracer_.End(span);
  if (request.id.empty()) request.id = StrFormat("%d", index + 1);

  fairhms::Response response;
  response.id = request.id;
  response.op = request.op;
  response.dataset = request.dataset;
  fairhms::SolverSession* served = nullptr;
  if (status.ok()) {
    auto session_or = env_->catalog->Session(request.dataset);
    if (session_or.ok()) {
      served = *session_or;
      env_->catalog->arbiter()->Touch(served->cache());
    }
    if (!session_or.ok()) {
      status = session_or.status();
    } else if (request.op == fairhms::ProtocolOp::kQuery) {
      status = TracedQuery(*session_or, request.query, seed_, &tracer_, root,
                           index, &response.query, &plan_errors_);
    } else if (request.op == fairhms::ProtocolOp::kInsert) {
      fairhms::SolverSession* session = *session_or;
      const int group =
          request.insert.group == fairhms::InsertRequest::Group::kId
              ? static_cast<int>(request.insert.group_id)
              : -1;
      span = tracer_.Begin("session.insert", root, index);
      auto row = session->Insert(
          request.insert.point,
          std::vector<int>(
              static_cast<size_t>(session->data().num_categorical()), 0),
          group);
      tracer_.End(span);
      status = row.status();
      if (row.ok()) {
        fairhms::InsertResponse& ins = response.insert;
        ins.row = *row;
        ins.group = session->grouping().group_of[static_cast<size_t>(*row)];
        ins.group_name =
            session->grouping().names[static_cast<size_t>(ins.group)];
        ins.version = session->version();
        ins.live_rows = session->data().live_size();
      }
    } else {
      fairhms::SolverSession* session = *session_or;
      std::vector<int> rows(request.erase.rows.begin(),
                            request.erase.rows.end());
      span = tracer_.Begin("session.erase", root, index);
      status = session->Erase(rows);
      tracer_.End(span);
      response.erase.erased = rows.size();
      response.erase.version = session->version();
      response.erase.live_rows = session->data().live_size();
    }
  }
  response.has_seq = true;
  response.seq = ++seq_;
  response.has_catalog_version = true;
  response.catalog_version = env_->catalog->version();
  response.ok = status.ok();
  if (!status.ok()) response.error = status;
  // The service settles the global cache budget after every op.
  fairhms::CacheArbiter* arbiter = env_->catalog->arbiter();
  if (served != nullptr && arbiter->budget_bytes() != 0 &&
      arbiter->total_bytes() > arbiter->budget_bytes()) {
    arbiter->Rebalance(served->cache());
  }
  span = tracer_.Begin("protocol.render", root, index);
  std::string out =
      fairhms::RenderResponse(response, BenchServiceOptions(seed_).envelope);
  tracer_.End(span);
  tracer_.End(root);
  return out;
}

}  // namespace perfbench
