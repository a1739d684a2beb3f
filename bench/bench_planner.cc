// bench_planner: warm-started re-solve and `algorithm: "auto"` harness for
// the query planner. Builds one dataset and runs two ops, each served
// twice so bench_to_json's checksum gate doubles as a bit-identity check:
//
//   * warm_k_sweep — a k sweep (k_min..k_max and back, all one-k steps)
//     of BiGreedy through one SolverSession per pass. Pass 1 disables warm
//     starts (`allow_warm_start=false`: every solve runs the cold
//     capped-value binary search); pass 2 enables them (each re-solve
//     walks the tau grid from the previous certified index). Both passes
//     hold equally warm artifact caches, so the speedup isolates the
//     warm-start walk — and identical checksums prove the walk lands on
//     the cold search's answer, query for query.
//
//   * planned_vs_direct — the same sweep with explicit "bigreedy" (pass 1,
//     which also trains the session's cost model) and then as
//     `algorithm: "auto"` on the same session (pass 2). Identical
//     checksums prove a planned solve is bit-identical to naming the
//     chosen algorithm directly.
//
//   bench_planner --n=10000 --dim=6 --groups=4 --k_min=8 --k_max=24 |
//     bench_to_json --out=BENCH_planner.json --min_speedup=warm_k_sweep:2:2.0

#include <cstdio>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/solver.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {
namespace {

struct PassStats {
  double ms = 0.0;
  std::vector<double> digest;
  int warm_used = 0;
};

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = static_cast<int>(flags.GetInt("dim", 6));
  const int groups = static_cast<int>(flags.GetInt("groups", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int threads = static_cast<int>(flags.GetInt("solver_threads", 1));
  const int k_min = static_cast<int>(flags.GetInt("k_min", 8));
  const int k_max = static_cast<int>(flags.GetInt("k_max", 24));
  const int sweeps = static_cast<int>(flags.GetInt("sweeps", 2));
  const double alpha = flags.GetDouble("alpha", 0.2);
  if (!bench::CheckFlags(flags)) return 1;
  if (k_min < 1 || k_max < k_min) {
    std::fprintf(stderr, "bad k range [%d, %d]\n", k_min, k_max);
    return 1;
  }

  Rng rng(seed);
  const Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
  const Grouping grouping = GroupBySumRank(data, groups);
  const std::vector<int> group_counts = grouping.Counts();

  // Up-and-down k sweep: every consecutive pair differs by exactly one k,
  // the warm memo's eligibility window.
  std::vector<int> ks;
  for (int s = 0; s < sweeps; ++s) {
    for (int k = k_min; k <= k_max; ++k) ks.push_back(k);
    for (int k = k_max - 1; k >= k_min; --k) ks.push_back(k);
  }

  auto make_request = [&](int k, const std::string& algo, bool allow_warm) {
    SolverRequest request;
    request.data = &data;
    request.grouping = &grouping;
    request.bounds = GroupBounds::Proportional(k, group_counts, alpha);
    request.algorithm = algo;
    request.seed = seed;
    request.threads = threads;
    request.allow_warm_start = allow_warm;
    return request;
  };

  bench::PrintReportHead("planner",
                         {{"pass1", "cold"},
                          {"pass2", "warm"},
                          {"n", std::to_string(n)},
                          {"dim", std::to_string(dim)},
                          {"groups", std::to_string(groups)},
                          {"k_min", std::to_string(k_min)},
                          {"k_max", std::to_string(k_max)},
                          {"sweeps", std::to_string(sweeps)},
                          {"queries", std::to_string(ks.size())},
                          {"alpha", StrFormat("%g", alpha)},
                          {"solver_threads", std::to_string(threads)},
                          {"seed", std::to_string(seed)}});

  // One pass of one op: serve the whole sweep through `session`. A
  // non-empty `algo_check` requires every solve (planned or direct) to
  // have resolved onto that algorithm.
  auto run_pass = [&](const std::string& algo, bool allow_warm,
                      SolverSession* session, const char* label,
                      const std::string& algo_check,
                      PassStats* stats) -> bool {
    for (int k : ks) {
      const SolverRequest request = make_request(k, algo, allow_warm);
      Stopwatch timer;
      auto result = session->Solve(request);
      if (!result.ok()) {
        std::fprintf(stderr, "%s k=%d failed: %s\n", label, k,
                     result.status().ToString().c_str());
        return false;
      }
      stats->ms += timer.ElapsedMillis();
      if (!algo_check.empty() && result->algorithm != algo_check) {
        std::fprintf(stderr, "%s k=%d resolved to '%s', expected '%s'\n",
                     label, k, result->algorithm.c_str(),
                     algo_check.c_str());
        return false;
      }
      if (result->warm_start_used) ++stats->warm_used;
      bench::FoldResult(*result, &stats->digest);
    }
    return true;
  };

  // --- Op 1: warm_k_sweep -------------------------------------------------
  PassStats cold;
  PassStats warm;
  {
    auto session = SolverSession::Create(&data, &grouping);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    if (!run_pass("bigreedy", /*allow_warm=*/false, &*session,
                  "cold sweep", "bigreedy", &cold)) {
      return 1;
    }
  }
  {
    auto session = SolverSession::Create(&data, &grouping);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    if (!run_pass("bigreedy", /*allow_warm=*/true, &*session, "warm sweep",
                  "bigreedy", &warm)) {
      return 1;
    }
  }
  bench::PrintResult("warm_k_sweep", 1, cold.ms, bench::Digest(cold.digest));
  bench::PrintResult("warm_k_sweep", 2, warm.ms, bench::Digest(warm.digest));

  // --- Op 2: planned_vs_direct --------------------------------------------
  // One session for both passes: the explicit pass trains the cost model
  // the "auto" pass plans from. The planner must resolve every query onto
  // bigreedy (the only algorithm the session has measured).
  PassStats direct;
  PassStats planned;
  {
    auto session = SolverSession::Create(&data, &grouping);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    if (!run_pass("bigreedy", /*allow_warm=*/true, &*session, "direct",
                  "bigreedy", &direct)) {
      return 1;
    }
    if (!run_pass("auto", /*allow_warm=*/true, &*session, "planned",
                  "bigreedy", &planned)) {
      return 1;
    }
  }
  bench::PrintResult("planned_vs_direct", 1, direct.ms,
                     bench::Digest(direct.digest));
  bench::PrintResult("planned_vs_direct", 2, planned.ms,
                     bench::Digest(planned.digest));

  std::fprintf(stderr,
               "warm_k_sweep: %zu queries, cold %.1f ms, warm %.1f ms "
               "(%.2fx), warm starts accepted %d/%zu\n",
               ks.size(), cold.ms, warm.ms,
               warm.ms > 0.0 ? cold.ms / warm.ms : 0.0, warm.warm_used,
               ks.size());
  std::fprintf(stderr,
               "planned_vs_direct: direct %.1f ms, planned %.1f ms, warm "
               "starts accepted %d/%zu\n",
               direct.ms, planned.ms, planned.warm_used, ks.size());
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
