// bench_parallel_eval: speedup harness for the parallel happiness-evaluation
// engine. Times the NetEvaluator denominator precompute, the candidate-cache
// matrix fill (a wide net, and the fair pool against a one-tile net as a
// cold BiGreedy query builds it), the Mhr net sweep, one cold BiGreedy tau
// search on a cached evaluator and (optionally) the witness-LP sweep at a
// grid of thread counts, and prints the perf-CSV report of
// bench/bench_util.h for tools/bench_to_json.
//
// Each op's checksum is a serial digest of the produced values; it must be
// byte-identical across thread counts (bench_to_json enforces this), which
// turns the bench into a determinism check as well.
//
//   bench_parallel_eval --n=10000 --dim=6 --net=20000 --k=20
//       --threads=1,2,4 --reps=5 [--lp]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/algo_util.h"
#include "algo/bigreedy.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "core/exact_evaluator.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

/// Direction count of the cache_fill_pool net: BiGreedy's m = 10 * k * d at
/// k = 10, d = 6, one direction tile plus a tail.
constexpr size_t kPoolNet = 600;

/// Checksum of a filled candidate cache: every cached row in candidate
/// order, each folded to its digest sums, then every FullGain.
std::string CacheDigest(const NetEvaluator& eval,
                        const std::vector<int>& rows) {
  const size_t m = eval.net_size();
  std::vector<double> folded;
  folded.reserve(3 * rows.size());
  for (int row : rows) {
    const double* h = eval.cached_row(row);
    if (h == nullptr) return "uncached";
    double sum = 0.0;
    double alt = 0.0;
    for (size_t j = 0; j < m; ++j) {
      sum += h[j];
      alt += h[j] * static_cast<double>((j % 64) + 1);
    }
    folded.push_back(sum);
    folded.push_back(alt);
  }
  for (int row : rows) folded.push_back(eval.FullGain(row));
  return bench::Digest(folded);
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = static_cast<int>(flags.GetInt("dim", 6));
  const size_t net_size = static_cast<size_t>(flags.GetInt("net", 20000));
  const int k = static_cast<int>(flags.GetInt("k", 20));
  const size_t cand_target = static_cast<size_t>(flags.GetInt("cand", 1000));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  const int sweep_iters = static_cast<int>(flags.GetInt("sweep_iters", 50));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bool with_lp = flags.Has("lp");
  std::vector<int> thread_grid;
  if (!bench::ParsePositiveInts("threads", flags.GetString("threads", "1,2,4"),
                                &thread_grid) ||
      !bench::CheckFlags(flags)) {
    return 1;
  }

  Rng rng(seed);
  const Dataset data = GenAntiCorrelated(n, dim, &rng).NormalizedMinMax();
  const std::vector<int> skyline = ComputeSkyline(data);
  // Cache workload: a strided candidate subset sized to stay within the
  // default CacheCandidates budget (anti-correlated skylines are ~0.9 n).
  std::vector<int> cand_rows;
  const size_t cand_count = std::min(cand_target, skyline.size());
  for (size_t i = 0; i < cand_count; ++i) {
    cand_rows.push_back(skyline[i * skyline.size() / cand_count]);
  }
  Rng net_rng(seed + 1);
  const UtilityNet net = UtilityNet::SampleRandom(dim, net_size, &net_rng);

  // A spread-out solution of size k (evenly strided skyline rows): the
  // Mhr sweep workload every greedy algorithm pays per evaluation.
  std::vector<int> solution;
  for (int i = 0; i < k && !skyline.empty(); ++i) {
    solution.push_back(
        skyline[static_cast<size_t>(i) * skyline.size() / static_cast<size_t>(k)]);
  }

  // Tau-search workload: the shape of a cold BiGreedy query. An
  // independent set with sum-rank groups (independent data has a far
  // smaller skyline than anti-correlated data, so the fair pool stays
  // within the candidate-cache budget), proportional bounds, the fair
  // pool as candidates and the default net size m = 10 * k * d.
  Rng tau_rng(seed + 2);
  const Dataset tau_data = GenIndependent(n, dim, &tau_rng).NormalizedMinMax();
  const Grouping tau_groups = GroupBySumRank(tau_data, 4);
  const StatusOr<ProblemInput> tau_input = PrepareProblem(
      tau_data, tau_groups,
      GroupBounds::Proportional(k, tau_groups.Counts(), 0.1));
  if (!tau_input.ok()) {
    std::fprintf(stderr, "tau_search: %s\n",
                 tau_input.status().ToString().c_str());
    return 1;
  }
  Rng tau_net_rng(seed + 3);
  const UtilityNet tau_net = UtilityNet::SampleRandom(
      dim, static_cast<size_t>(10 * k * dim), &tau_net_rng);
  Rng pool_net_rng(seed + 4);
  const UtilityNet pool_net =
      UtilityNet::SampleRandom(dim, kPoolNet, &pool_net_rng);

  bench::PrintReportHead(
      "parallel_eval",
      {{"n", std::to_string(n)},
       {"dim", std::to_string(dim)},
       {"net", std::to_string(net_size)},
       {"k", std::to_string(k)},
       {"cand", std::to_string(cand_rows.size())},
       {"reps", std::to_string(reps)},
       {"sweep_iters", std::to_string(sweep_iters)},
       {"seed", std::to_string(seed)},
       {"tau_pool", std::to_string(tau_input->pool.size())},
       {"tau_net", std::to_string(tau_net.size())},
       {"pool_net", std::to_string(pool_net.size())},
       {"simd", simd::DispatchLevelName(simd::ActiveLevel())}});

  for (int threads : thread_grid) {
    // net_build: per-direction denominator precompute over the skyline.
    {
      bench::BestOfReps timer;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        timer.Start();
        const NetEvaluator eval(&data, &net, skyline, threads);
        timer.Stop();
        std::vector<double> best(net_size);
        for (size_t j = 0; j < net_size; ++j) best[j] = eval.best(j);
        checksum = bench::Digest(best);
      }
      bench::PrintResult("net_build", threads, timer.best_ms(), checksum);
    }

    const NetEvaluator eval(&data, &net, skyline, threads);

    // cache_fill: the CacheCandidates matrix (candidates x net directions).
    {
      bench::BestOfReps timer;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        NetEvaluator fresh(&data, &net, skyline, threads);
        timer.Start();
        fresh.CacheCandidates(cand_rows);
        timer.Stop();
        checksum = CacheDigest(fresh, cand_rows);
      }
      bench::PrintResult("cache_fill", threads, timer.best_ms(), checksum);
    }

    // cache_fill_pool: the evaluator build of a cold BiGreedy query — the
    // tau_search fair pool against a one-tile net.
    {
      bench::BestOfReps timer;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        NetEvaluator fresh(&tau_data, &pool_net, tau_input->db_rows, threads);
        timer.Start();
        fresh.CacheCandidates(tau_input->pool);
        timer.Stop();
        checksum = CacheDigest(fresh, tau_input->pool);
      }
      bench::PrintResult("cache_fill_pool", threads, timer.best_ms(),
                         checksum);
    }

    // mhr_sweep: full min-over-net sweeps for the solution set. A single
    // sweep is a few milliseconds — too noise-prone to gate CI on — so the
    // timed region batches `sweep_iters` of them.
    {
      bench::BestOfReps timer;
      double mhr = 0.0;
      for (int r = 0; r < reps; ++r) {
        timer.Start();
        for (int it = 0; it < sweep_iters; ++it) mhr = eval.Mhr(solution);
        timer.Stop();
      }
      bench::PrintResult("mhr_sweep", threads, timer.best_ms(),
                         StrFormat("%.17g", mhr));
    }

    // tau_search: BiGreedyOnNet's cold binary tau search, about ten lazy
    // matroid greedies, on an evaluator whose candidate cache is built
    // outside the timed region. The checksum holds the selected rows and
    // the certified tau index.
    {
      NetEvaluator tau_eval(&tau_data, &tau_net, tau_input->db_rows, threads);
      tau_eval.CacheCandidates(tau_input->pool);
      BiGreedyOptions opts;
      opts.threads = threads;
      bench::BestOfReps timer;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        BiGreedyRunInfo run;
        timer.Start();
        StatusOr<Solution> sol =
            BiGreedyOnNet(*tau_input, &tau_eval, opts, &run);
        timer.Stop();
        if (!sol.ok()) {
          std::fprintf(stderr, "tau_search: %s\n",
                       sol.status().ToString().c_str());
          return 1;
        }
        std::vector<double> digest(sol->rows.begin(), sol->rows.end());
        digest.push_back(run.tau_index);
        checksum = bench::Digest(digest);
      }
      bench::PrintResult("tau_search", threads, timer.best_ms(), checksum);
    }

    // witness_lps: one exact LP per skyline witness (F-Greedy's inner loop).
    if (with_lp) {
      bench::BestOfReps timer;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        timer.Start();
        const std::vector<double> regrets =
            AllWitnessRegretsLp(data, skyline, solution, threads);
        timer.Stop();
        checksum = bench::Digest(regrets);
      }
      bench::PrintResult("witness_lps", threads, timer.best_ms(), checksum);
    }
  }
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
