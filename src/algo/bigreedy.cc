#include "algo/bigreedy.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "api/registry.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/artifact_cache.h"
#include "fairness/matroid.h"
#include "geom/vec.h"

namespace fairhms {

namespace {

/// Lazy-greedy priority queue entry: a candidate with an upper bound on its
/// marginal gain and the selection size at which that bound was exact (-1 =
/// never: a seed bound).
struct LazyEntry {
  double gain;
  int row;
  int stamp;
  bool operator<(const LazyEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return row > other.row;  // Deterministic tie-break: smaller row first.
  }
};

/// Lazy-greedy refresh batches: at most this many heap entries per lane.
constexpr size_t kBatchRowsPerLane = 256;
/// Batches of fewer happiness cells (rows x net directions) than this run
/// inline on the calling thread: waking the pool costs more than they do.
constexpr size_t kInlineBatchCells = size_t{1} << 16;

/// Sets every entry's key to its exact mhr_tau gain against `state`, using
/// up to `lanes` lanes; each lane writes only its own entries.
void RefreshGains(const TruncatedMhrState& state, double tau, int lanes,
                  size_t net_size, std::vector<LazyEntry>* entries) {
  auto refresh = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      LazyEntry& e = (*entries)[i];
      e.gain = state.MarginalGain(e.row, tau);
    }
  };
  if (lanes <= 1 || entries->size() * net_size < kInlineBatchCells) {
    refresh(0, entries->size());
  } else {
    ParallelFor(lanes, entries->size(), refresh);
  }
}

/// One matroid-greedy round on mhr_tau from the empty set: repeatedly adds
/// the feasible row of largest gain (smallest row on ties) that is not in
/// `used` until the selection is maximal, marking every added row in
/// `used`, and returns the selection in pick order. Counts exact gain
/// evaluations in `gain_evals`.
///
/// Lazy mode keeps a heap of gain upper bounds: stale keys are bounds by
/// submodularity (each gain term is monotone in the current set, and so is
/// its rounded sum), so the top entry, once exact, is the argmax. Cached
/// rows are seeded without a gain pass: from the empty set a row's gain is
/// the canonical sum of min(h_j, tau), bounded by its FullGain (h_j) and by
/// the same-order sum of m copies of tau; at tau >= 1 the seed is exact.
///
/// With more than one lane, a stale top is refreshed in a batch with the
/// stale, feasible entries below it, across the evaluator's lanes. Which
/// stale keys get refreshed never changes the argmax, because every key
/// stays an upper bound. The batch starts at one entry per pick and doubles
/// while the top stays stale, up to kBatchRowsPerLane per lane. One lane
/// keeps the plain serial loop.
std::vector<int> GreedyRound(const ProblemInput& input,
                             const NetEvaluator* eval,
                             const FairnessMatroid& matroid, double tau,
                             bool lazy, std::vector<bool>* used,
                             int64_t* gain_evals) {
  TruncatedMhrState state(eval);
  FairSelection sel(&matroid, input.grouping);
  auto add = [&](int row) {
    sel.Add(row);
    state.Add(row);
    (*used)[static_cast<size_t>(row)] = true;
  };

  if (!lazy) {
    // Plain greedy: full candidate re-scan per insertion (ablation).
    while (!sel.IsMaximal()) {
      int best_row = -1;
      double best_gain = -1.0;
      for (int row : input.pool) {
        if ((*used)[static_cast<size_t>(row)] || !sel.CanAdd(row)) continue;
        ++*gain_evals;
        const double g = state.MarginalGain(row, tau);
        if (g > best_gain || (g == best_gain && row < best_row)) {
          best_gain = g;
          best_row = row;
        }
      }
      if (best_row < 0) break;
      add(best_row);
    }
    return sel.rows();
  }

  const int lanes = eval->threads();
  const size_t net_size = eval->net_size();
  const double m = static_cast<double>(net_size);
  const double cap = simd::RepeatSum(tau, net_size);
  const int seed_stamp = tau >= 1.0 ? 0 : -1;
  // Heap order is a strict total order on (gain, row), so the pop sequence
  // does not depend on the order seeds are listed in.
  std::vector<LazyEntry> seeds;
  std::vector<LazyEntry> batch;
  seeds.reserve(input.pool.size());
  for (int row : input.pool) {
    if ((*used)[static_cast<size_t>(row)]) continue;
    if (eval->cached_row(row) != nullptr) {
      seeds.push_back(
          {std::min(eval->FullGain(row), cap) / m, row, seed_stamp});
    } else {
      batch.push_back({0.0, row, 0});  // Exact seed, computed below.
    }
  }
  RefreshGains(state, tau, lanes, net_size, &batch);
  *gain_evals += static_cast<int64_t>(batch.size());
  seeds.insert(seeds.end(), batch.begin(), batch.end());
  std::priority_queue<LazyEntry> pq(std::less<LazyEntry>(), std::move(seeds));

  if (lanes <= 1) {
    // The serial lazy greedy: pop, drop if infeasible, take if exact,
    // otherwise refresh and push back.
    while (!pq.empty() && !sel.IsMaximal()) {
      LazyEntry top = pq.top();
      pq.pop();
      if (!sel.CanAdd(top.row)) continue;  // Permanently infeasible now.
      if (top.stamp == sel.size()) {
        add(top.row);
      } else {
        ++*gain_evals;
        top.gain = state.MarginalGain(top.row, tau);
        top.stamp = sel.size();
        pq.push(top);
      }
    }
    return sel.rows();
  }

  const size_t max_batch = kBatchRowsPerLane * static_cast<size_t>(lanes);
  size_t batch_limit = 1;
  while (!pq.empty() && !sel.IsMaximal()) {
    const LazyEntry top = pq.top();
    if (!sel.CanAdd(top.row)) {
      pq.pop();
      continue;
    }
    if (top.stamp == sel.size()) {
      pq.pop();
      add(top.row);
      batch_limit = 1;
      continue;
    }
    // The top is stale: refresh it together with the stale, feasible
    // entries below it, down to the first exact one (which bounds
    // everything under it).
    batch.assign(1, top);
    pq.pop();
    while (!pq.empty() && batch.size() < batch_limit) {
      const LazyEntry& next = pq.top();
      if (next.stamp == sel.size()) break;
      if (sel.CanAdd(next.row)) batch.push_back(next);
      pq.pop();
    }
    RefreshGains(state, tau, lanes, net_size, &batch);
    *gain_evals += static_cast<int64_t>(batch.size());
    for (LazyEntry& e : batch) {
      e.stamp = sel.size();
      pq.push(e);
    }
    batch_limit = std::min(2 * batch_limit, max_batch);
  }
  return sel.rows();
}

/// One MRGreedy invocation (paper Algorithm 3, lines 10-22).
///
/// Returns true when the capped target was certified; `out_rows` then holds
/// the solution: the single-round set in strict mode, the multi-round union
/// otherwise. In strict mode a failing first round aborts immediately
/// (multi-round unions would be infeasible anyway).
bool MrGreedy(const ProblemInput& input, const NetEvaluator* eval, double tau,
              int gamma, double eps, bool strict, bool lazy,
              std::vector<int>* out_rows, int* rounds_used,
              int64_t* gain_evals) {
  const FairnessMatroid matroid(input.bounds);
  const double m = static_cast<double>(eval->net_size());
  const double target = (1.0 - eps / (2.0 * m)) * tau;

  TruncatedMhrState union_state(eval);
  std::vector<int> union_rows;
  std::vector<bool> used(input.data->size(), false);

  const int max_rounds = strict ? 1 : gamma;
  for (int round = 1; round <= max_rounds; ++round) {
    std::vector<int> round_rows =
        GreedyRound(input, eval, matroid, tau, lazy, &used, gain_evals);
    for (int row : round_rows) {
      union_state.Add(row);
      union_rows.push_back(row);
    }
    *rounds_used = round;

    if (union_state.TruncatedValue(tau) >= target) {
      *out_rows = strict ? std::move(round_rows) : union_rows;
      return true;
    }
  }
  return false;
}

/// Fallback when no capped value certifies (degenerate nets / tiny pools):
/// a single matroid-greedy fill on the untruncated average happiness.
std::vector<int> GreedyFill(const ProblemInput& input,
                            const NetEvaluator* eval, int64_t* gain_evals) {
  const FairnessMatroid matroid(input.bounds);
  std::vector<bool> used(input.data->size(), false);
  return GreedyRound(input, eval, matroid, 1.0, /*lazy=*/true, &used,
                     gain_evals);
}

size_t DefaultNetSize(const BiGreedyOptions& opts, int k, int d) {
  if (opts.net_size > 0) return opts.net_size;
  if (opts.delta > 0.0) {
    // Lemma 4.1 requires a (delta / d(2-delta))-net for error <= delta.
    const double net_delta = opts.delta / (d * (2.0 - opts.delta));
    return UtilityNet::DeltaToSampleSize(net_delta, d);
  }
  return static_cast<size_t>(10) * static_cast<size_t>(k) *
         static_cast<size_t>(d);
}

}  // namespace

StatusOr<Solution> BiGreedyOnNet(const ProblemInput& input,
                                 const NetEvaluator* eval,
                                 const BiGreedyOptions& opts,
                                 BiGreedyRunInfo* info) {
  Stopwatch timer;
  const double m = static_cast<double>(eval->net_size());
  const int gamma =
      std::max(1, static_cast<int>(std::ceil(std::log2(2.0 * m / opts.eps))));

  // Capped-value grid tau_j = (1 - eps/2)^j down to 1/m.
  const double ratio = 1.0 - opts.eps / 2.0;
  const int grid_size = std::max(
      1, static_cast<int>(std::ceil(std::log(1.0 / m) / std::log(ratio))) + 1);
  auto tau_at = [&](int j) { return std::pow(ratio, j); };

  BiGreedyRunInfo run;
  run.net_size = eval->net_size();

  std::vector<int> best_rows;
  double best_tau = -1.0;
  int best_rounds = 0;

  auto attempt = [&](int j, std::vector<int>* rows, int* rounds) {
    ++run.mrgreedy_calls;
    return MrGreedy(input, eval, tau_at(j), gamma, opts.eps,
                    opts.strict_feasible, opts.lazy, rows, rounds,
                    &run.gain_evals);
  };

  if (opts.tau_search == TauSearch::kBinary) {
    // Warm path: walk the grid outward from the hinted index, looking for
    // the smallest certifying index — the same index the cold binary
    // search below lands on (both rely on certification being monotone in
    // tau). Successive session queries move the certified index by at most
    // a step or two, so the walk typically resolves in 2-3 MRGreedy calls
    // versus ~log2(grid) cold. A hint that drifted beyond the walk budget
    // is discarded and the solve falls through to the cold search, keeping
    // results bit-identical either way.
    bool resolved = false;
    if (opts.warm_tau_index >= 0 && grid_size > 0) {
      constexpr int kWarmWalkBudget = 4;  // Probes after the first.
      int j = std::min(opts.warm_tau_index, grid_size - 1);
      std::vector<int> rows;
      int rounds = 0;
      bool certified = attempt(j, &rows, &rounds);
      int extra = 0;
      if (certified) {
        // Walk towards larger tau (smaller index) until j - 1 fails.
        while (j > 0 && extra < kWarmWalkBudget) {
          std::vector<int> below_rows;
          int below_rounds = 0;
          ++extra;
          if (attempt(j - 1, &below_rows, &below_rounds)) {
            --j;
            rows = std::move(below_rows);
            rounds = below_rounds;
          } else {
            resolved = true;
            break;
          }
        }
        if (j == 0) resolved = true;
      } else {
        while (j + 1 < grid_size && extra < kWarmWalkBudget) {
          ++j;
          ++extra;
          if (attempt(j, &rows, &rounds)) {
            certified = true;
            resolved = true;
            break;
          }
        }
      }
      if (resolved && certified) {
        best_rows = std::move(rows);
        best_tau = tau_at(j);
        best_rounds = rounds;
        run.tau_index = j;
        run.warm_start_used = true;
      } else {
        resolved = false;
      }
    }
    if (!resolved) {
      // Cold path: binary search for the smallest grid index (largest
      // tau) that certifies.
      int lo = 0;
      int hi = grid_size - 1;
      while (lo <= hi) {
        const int mid = lo + (hi - lo) / 2;
        std::vector<int> rows;
        int rounds = 0;
        if (attempt(mid, &rows, &rounds)) {
          best_rows = std::move(rows);
          best_tau = tau_at(mid);
          best_rounds = rounds;
          run.tau_index = mid;
          hi = mid - 1;
        } else {
          lo = mid + 1;
        }
      }
      run.warm_start_used = false;
    }
  } else {
    // Paper's literal scan: try every tau descending, keep the best by net
    // mhr among certified solutions.
    double best_quality = -1.0;
    for (int j = 0; j < grid_size; ++j) {
      std::vector<int> rows;
      int rounds = 0;
      if (!attempt(j, &rows, &rounds)) continue;
      const double quality = eval->Mhr(rows);
      if (quality > best_quality) {
        best_quality = quality;
        best_rows = std::move(rows);
        best_tau = tau_at(j);
        best_rounds = rounds;
        run.tau_index = j;
      }
    }
  }

  if (best_tau < 0.0) {
    best_rows = GreedyFill(input, eval, &run.gain_evals);
    best_tau = 0.0;
    best_rounds = 1;
  }

  if (opts.strict_feasible) {
    FAIRHMS_RETURN_IF_ERROR(PadSolution(input, &best_rows));
  }

  run.tau = best_tau;
  run.rounds_used = best_rounds;
  if (info != nullptr) *info = run;

  Solution out;
  out.rows = std::move(best_rows);
  std::sort(out.rows.begin(), out.rows.end());
  out.mhr = eval->Mhr(out.rows);
  out.elapsed_ms = timer.ElapsedMillis();
  out.algorithm = opts.strict_feasible ? "BiGreedy" : "BiGreedy(union)";
  return out;
}

StatusOr<Solution> BiGreedy(const Dataset& data, const Grouping& grouping,
                            const GroupBounds& bounds,
                            const BiGreedyOptions& opts,
                            BiGreedyRunInfo* info) {
  Stopwatch timer;
  FAIRHMS_ASSIGN_OR_RETURN(
      ProblemInput input,
      PrepareProblem(data, grouping, bounds, opts.pool, opts.db_rows,
                     opts.cache));
  const size_t m = DefaultNetSize(opts, bounds.k, data.dim());
  Rng rng(opts.seed);
  const std::shared_ptr<const UtilityNet> net =
      GetOrSampleNet(opts.cache, data.dim(), m, &rng);
  const std::shared_ptr<const NetEvaluator> eval = GetOrBuildEvaluator(
      opts.cache, data, net, input.db_rows, input.pool, opts.threads);
  FAIRHMS_ASSIGN_OR_RETURN(Solution out,
                           BiGreedyOnNet(input, eval.get(), opts, info));
  out.elapsed_ms = timer.ElapsedMillis();  // Include net construction.
  return out;
}

StatusOr<Solution> BiGreedyPlus(const Dataset& data, const Grouping& grouping,
                                const GroupBounds& bounds,
                                const BiGreedyPlusOptions& opts,
                                BiGreedyRunInfo* info) {
  Stopwatch timer;
  FAIRHMS_ASSIGN_OR_RETURN(
      ProblemInput input,
      PrepareProblem(data, grouping, bounds, opts.base.pool,
                     opts.base.db_rows, opts.base.cache));
  const int d = data.dim();
  const size_t cap =
      opts.max_net_size > 0
          ? opts.max_net_size
          : static_cast<size_t>(10) * static_cast<size_t>(bounds.k) *
                static_cast<size_t>(d);
  size_t m = std::max<size_t>(
      static_cast<size_t>(d) + 1,
      static_cast<size_t>(std::ceil(opts.m0_fraction * static_cast<double>(cap))));
  m = std::min(m, cap);

  Rng rng(opts.base.seed);

  // Shared evaluation net for the final argmax across rounds.
  Rng eval_rng = rng.Fork();
  const std::shared_ptr<const UtilityNet> eval_net = GetOrSampleNet(
      opts.base.cache, d, std::max<size_t>(2 * cap, 2000), &eval_rng);
  const std::shared_ptr<const NetEvaluator> final_eval =
      GetOrBuildEvaluator(opts.base.cache, data, eval_net, input.db_rows, {},
                          opts.base.threads);

  Solution best;
  double best_quality = -1.0;
  BiGreedyRunInfo best_info;
  double prev_tau = 2.0;  // Larger than any capped value.

  for (int round = 0;; ++round) {
    Rng net_rng = rng.Fork();
    const std::shared_ptr<const UtilityNet> net =
        GetOrSampleNet(opts.base.cache, d, m, &net_rng);
    const std::shared_ptr<const NetEvaluator> eval =
        GetOrBuildEvaluator(opts.base.cache, data, net, input.db_rows,
                            input.pool, opts.base.threads);
    BiGreedyRunInfo run;
    FAIRHMS_ASSIGN_OR_RETURN(
        Solution sol, BiGreedyOnNet(input, eval.get(), opts.base, &run));
    const double quality = final_eval->Mhr(sol.rows);
    if (quality > best_quality) {
      best_quality = quality;
      best = std::move(sol);
      best_info = run;
    }
    const bool converged = round > 0 && (prev_tau - run.tau) < opts.lambda;
    prev_tau = run.tau;
    if (converged || m >= cap) break;
    m = std::min(2 * m, cap);
  }

  if (info != nullptr) *info = best_info;
  best.mhr = best_quality;
  best.elapsed_ms = timer.ElapsedMillis();
  best.algorithm = "BiGreedy+";
  return best;
}

namespace {

BiGreedyOptions BiGreedyOptionsFromContext(const SolveContext& ctx) {
  BiGreedyOptions opts;
  opts.net_size = static_cast<size_t>(
      ctx.params->IntOr("net_size", static_cast<int64_t>(opts.net_size)));
  opts.delta = ctx.params->DoubleOr("delta", opts.delta);
  opts.eps = ctx.params->DoubleOr("eps", opts.eps);
  opts.tau_search = ctx.params->StringOr("tau_search", "binary") == "linear"
                        ? TauSearch::kLinear
                        : TauSearch::kBinary;
  opts.strict_feasible =
      ctx.params->BoolOr("strict_feasible", opts.strict_feasible);
  opts.lazy = ctx.params->BoolOr("lazy", opts.lazy);
  opts.seed = ctx.seed;
  opts.threads = ctx.threads;
  opts.cache = ctx.cache;
  opts.warm_tau_index = ctx.warm_tau_index;
  return opts;
}

/// Schema shared by bigreedy and bigreedy+ (the latter appends its own).
std::vector<ParamSpec> BiGreedyParamSchema() {
  return {
      {"net_size", ParamType::kInt, "direction-net size m", "auto (10*k*d)",
       1, 1e308, false, false, {}},
      {"delta", ParamType::kDouble,
       "derive m from a delta-net rule instead (used when net_size unset)",
       "unset", 0.0, 1.0, true, true, {}},
      {"eps", ParamType::kDouble, "capped-value search granularity", "0.02",
       0.0, 1.0, true, true, {}},
      {"tau_search", ParamType::kString,
       "capped-value grid traversal", "binary", -1e308, 1e308, false, false,
       {"binary", "linear"}},
      {"strict_feasible", ParamType::kBool,
       "only accept single-round (exactly k, fair) solutions", "true", -1e308,
       1e308, false, false, {}},
      {"lazy", ParamType::kBool, "priority-queue marginal gains", "true",
       -1e308, 1e308, false, false, {}},
  };
}

const AlgorithmRegistrar bigreedy_registrar([] {
  AlgorithmInfo info;
  info.name = "bigreedy";
  info.display_name = "BiGreedy";
  info.summary =
      "bicriteria matroid-greedy over a sampled direction net (any "
      "dimension)";
  info.caps.fairness_aware = true;
  info.caps.randomized = true;
  info.caps.warm_startable = true;
  info.params = BiGreedyParamSchema();
  info.solve = [](const SolveContext& ctx) -> StatusOr<Solution> {
    BiGreedyRunInfo run;
    FAIRHMS_ASSIGN_OR_RETURN(
        Solution sol, BiGreedy(*ctx.data, *ctx.grouping, *ctx.bounds,
                               BiGreedyOptionsFromContext(ctx), &run));
    if (ctx.run_info != nullptr) {
      ctx.run_info->tau_index = run.tau_index;
      ctx.run_info->warm_start_used = run.warm_start_used;
    }
    return sol;
  };
  return info;
}());

const AlgorithmRegistrar bigreedy_plus_registrar([] {
  AlgorithmInfo info;
  info.name = "bigreedy+";
  info.display_name = "BiGreedy+";
  info.summary = "BiGreedy with adaptive net-size doubling (Sec. 4.3)";
  info.caps.fairness_aware = true;
  info.caps.randomized = true;
  info.caps.supports_lambda = true;
  info.params = BiGreedyParamSchema();
  info.params.push_back({"max_net_size", ParamType::kInt,
                         "net-size doubling ceiling M", "auto (10*k*d)", 1,
                         1e308, false, false, {}});
  info.params.push_back({"m0_fraction", ParamType::kDouble,
                         "initial net size as a fraction of M", "0.05", 0.0,
                         1.0, true, false, {}});
  info.params.push_back({"lambda", ParamType::kDouble,
                         "stop doubling when tau improves by less than this",
                         "0.04", 0.0, 1e308, false, false, {}});
  info.solve = [](const SolveContext& ctx) {
    BiGreedyPlusOptions opts;
    opts.base = BiGreedyOptionsFromContext(ctx);
    // Net-doubling rounds each solve a different net; a tau index from a
    // previous run is meaningless across them, so BiGreedy+ always runs
    // cold (and does not declare warm_startable).
    opts.base.warm_tau_index = -1;
    opts.max_net_size = static_cast<size_t>(ctx.params->IntOr(
        "max_net_size", static_cast<int64_t>(opts.max_net_size)));
    opts.m0_fraction = ctx.params->DoubleOr("m0_fraction", opts.m0_fraction);
    opts.lambda = ctx.params->DoubleOr("lambda", opts.lambda);
    return BiGreedyPlus(*ctx.data, *ctx.grouping, *ctx.bounds, opts);
  };
  return info;
}());

}  // namespace

namespace internal {
int LinkAlgoBiGreedy() { return 0; }
}  // namespace internal

}  // namespace fairhms
