// bench_dynamic_updates: update+query latency of the dynamic-session
// subsystem versus rebuild-from-scratch. One deterministic op schedule —
// alternating point inserts and deletes, each followed by a k-sweep of
// solve + reference-evaluation queries (--ks, algorithm rotating per
// update: the paper's sweep workload over churning data) — is served
// twice:
//
//   * rebuild — every mutation goes straight to the Dataset/Grouping and
//     every query pays a cold Solver::Solve plus an uncached reference
//     evaluation (skylines, fair pools, nets and evaluator precomputes
//     rebuilt from scratch per query: the pre-dynamic serving story);
//   * incremental — the same ops through one dynamic SolverSession, whose
//     SkylineIndex maintains the skylines/pools/group tables per update
//     and republishes them into the session cache (nets survive,
//     evaluators rebuild lazily).
//
// Emits the machine-readable CSV tools/bench_to_json consumes; the
// `threads` column encodes the pass — 1 = rebuild, 2 = incremental (see
// the pass1/pass2 config keys) — so the incremental row's "speedup" is the
// rebuild/incremental factor, and the checksum gate doubles as the
// incremental-vs-recompute bit-identity guarantee (every selected row,
// reference mhr, violation count and the full skyline state after the
// final op are digested).
//
//   bench_dynamic_updates --n=10000 --dim=6 --groups=4 --updates=40 |
//     bench_to_json --out=BENCH_dynamic.json --min_speedup=update_query:2:5.0

#include <cstdio>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/solver.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/evaluate.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

struct Op {
  bool insert = false;
  std::vector<double> coords;  ///< Insert only.
  int group = 0;               ///< Insert only.
  int erase_row = -1;          ///< Delete only.
  std::string algo;            ///< The query following the update.
};

/// Pre-computed deterministic schedule, identical for both passes:
/// alternating inserts (random point, random group) and deletes (random
/// live row, tracked by simulating the mutations).
std::vector<Op> MakeSchedule(size_t n0, int dim, int groups, int updates,
                             const std::vector<std::string>& algos,
                             uint64_t seed) {
  Rng rng(seed ^ 0xD15EA5E);
  std::vector<int> live(n0);
  for (size_t i = 0; i < n0; ++i) live[i] = static_cast<int>(i);
  size_t next_row = n0;
  std::vector<Op> ops;
  for (int s = 0; s < updates; ++s) {
    Op op;
    op.algo = algos[static_cast<size_t>(s) % algos.size()];
    if (s % 2 == 0) {
      op.insert = true;
      op.coords.resize(static_cast<size_t>(dim));
      for (int j = 0; j < dim; ++j) {
        op.coords[static_cast<size_t>(j)] = rng.Uniform();
      }
      op.group = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(groups)));
      live.push_back(static_cast<int>(next_row++));
    } else {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      op.erase_row = live[pick];
      live[pick] = live.back();
      live.pop_back();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = static_cast<int>(flags.GetInt("dim", 6));
  const int groups = static_cast<int>(flags.GetInt("groups", 4));
  const double alpha = flags.GetDouble("alpha", 0.2);
  const int updates = static_cast<int>(flags.GetInt("updates", 40));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int threads = static_cast<int>(flags.GetInt("solver_threads", 1));
  const size_t ref_net = static_cast<size_t>(flags.GetInt("ref_net", 20000));
  // Default mix: algorithms whose queries are artifact-bound (skylines,
  // pools, evaluator precomputes), i.e. the costs the dynamic subsystem
  // actually removes. Solve-bound engines (bigreedy's net-greedy rounds
  // dominate its queries) gain little here by construction; measure them
  // explicitly via --algos.
  const std::string algos_flag =
      flags.GetString("algos", "intcov,g_greedy");
  const std::string ks_flag = flags.GetString("ks", "6,10,14,18,22");

  std::vector<int> ks;
  if (!bench::ParsePositiveInts("ks", ks_flag, &ks) ||
      !bench::CheckFlags(flags)) {
    return 1;
  }
  std::vector<std::string> algos;
  for (const std::string& a : Split(algos_flag, ',')) {
    algos.push_back(std::string(Trim(a)));
  }
  if (algos.empty()) {
    std::fprintf(stderr, "--algos must name at least one algorithm\n");
    return 1;
  }

  const std::vector<Op> schedule =
      MakeSchedule(n, dim, groups, updates, algos, seed);

  bench::PrintReportHead(
      "dynamic_updates",
      {{"pass1", "rebuild"},
       {"pass2", "incremental"},
       {"n", std::to_string(n)},
       {"dim", std::to_string(dim)},
       {"groups", std::to_string(groups)},
       {"ks", ks_flag},
       {"alpha", StrFormat("%g", alpha)},
       {"updates", std::to_string(updates)},
       {"queries", std::to_string(static_cast<size_t>(updates) * ks.size())},
       {"algos", algos_flag},
       {"ref_net", std::to_string(ref_net)},
       {"solver_threads", std::to_string(threads)},
       {"seed", std::to_string(seed)}});

  struct PassResult {
    double update_ms = 0.0;
    double query_ms = 0.0;
    std::vector<double> digest;
  };

  // Fold the complete skyline pipeline state after the final op, so the
  // checksum also certifies the maintained artifacts — not just the query
  // results computed from them.
  auto fold_state = [&](const Dataset& data, const Grouping& grouping,
                        std::vector<double>* digest) {
    for (int r : ComputeSkyline(data)) digest->push_back(r);
    for (const auto& sky : ComputeGroupSkylines(data, grouping)) {
      digest->push_back(static_cast<double>(sky.size()));
      for (int r : sky) digest->push_back(r);
    }
    for (int c : grouping.LiveCounts(data)) digest->push_back(c);
  };

  auto make_request = [&](const Dataset& data, const Grouping& grouping,
                          const std::string& algo, int k) {
    SolverRequest request;
    request.bounds =
        GroupBounds::Proportional(k, grouping.LiveCounts(data), alpha);
    request.algorithm = algo;
    request.seed = seed;
    request.threads = threads;
    return request;
  };

  // ---- Pass 1: rebuild-from-scratch. --------------------------------
  PassResult rebuild;
  {
    Rng rng(seed);
    Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, groups);
    for (const Op& op : schedule) {
      Stopwatch update_timer;
      if (op.insert) {
        auto first = data.AppendRows({op.coords}, {{}});
        if (!first.ok()) {
          std::fprintf(stderr, "rebuild insert failed: %s\n",
                       first.status().ToString().c_str());
          return 1;
        }
        grouping.AppendRow(op.group);
      } else {
        if (Status st = data.ErasePoints({op.erase_row}); !st.ok()) {
          std::fprintf(stderr, "rebuild delete failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
      rebuild.update_ms += update_timer.ElapsedMillis();

      for (int k : ks) {
        Stopwatch query_timer;
        SolverRequest request = make_request(data, grouping, op.algo, k);
        request.data = &data;
        request.grouping = &grouping;
        auto result = Solver::Solve(request);
        if (!result.ok()) {
          std::fprintf(stderr, "rebuild query (%s, k=%d) failed: %s\n",
                       op.algo.c_str(), k, result.status().ToString().c_str());
          return 1;
        }
        // Uncached reference evaluation: recompute the skyline (reusing
        // the facade's when it produced one) and rebuild the net.
        std::vector<int> skyline = result->skyline.empty()
                                       ? ComputeSkyline(data)
                                       : std::move(result->skyline);
        EvalOptions eval_opts;
        eval_opts.method = MhrMethod::kNet;
        eval_opts.net_size = ref_net;
        eval_opts.threads = threads;
        const double mhr =
            EvaluateMhr(data, skyline, result->solution.rows, eval_opts);
        rebuild.query_ms += query_timer.ElapsedMillis();
        bench::FoldResult(*result, &rebuild.digest, mhr);
      }
    }
    fold_state(data, grouping, &rebuild.digest);
  }

  // ---- Pass 2: incremental dynamic session. -------------------------
  PassResult incremental;
  {
    Rng rng(seed);
    Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, groups);
    auto session = SolverSession::CreateDynamic(&data, &grouping);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    for (const Op& op : schedule) {
      Stopwatch update_timer;
      if (op.insert) {
        auto row = session->Insert(op.coords, {}, op.group);
        if (!row.ok()) {
          std::fprintf(stderr, "incremental insert failed: %s\n",
                       row.status().ToString().c_str());
          return 1;
        }
      } else {
        if (Status st = session->Erase({op.erase_row}); !st.ok()) {
          std::fprintf(stderr, "incremental delete failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
      incremental.update_ms += update_timer.ElapsedMillis();

      for (int k : ks) {
        Stopwatch query_timer;
        const SolverRequest request = make_request(data, grouping, op.algo, k);
        auto result = session->Solve(request);
        if (!result.ok()) {
          std::fprintf(stderr, "incremental query (%s, k=%d) failed: %s\n",
                       op.algo.c_str(), k, result.status().ToString().c_str());
          return 1;
        }
        EvalOptions eval_opts;
        eval_opts.method = MhrMethod::kNet;
        eval_opts.net_size = ref_net;
        eval_opts.threads = threads;
        eval_opts.cache = session->cache();
        const double mhr = EvaluateMhr(data, session->cache()->Skyline(data),
                                       result->solution.rows, eval_opts);
        incremental.query_ms += query_timer.ElapsedMillis();
        bench::FoldResult(*result, &incremental.digest, mhr);
      }
    }
    fold_state(data, grouping, &incremental.digest);

    const CacheStats stats = session->cache_stats();
    std::fprintf(stderr,
                 "incremental: %d updates x %zu-query sweeps, update %.1f "
                 "ms, query %.1f ms (rebuild: %.1f / %.1f); cache: %llu "
                 "hits, %llu misses\n",
                 updates, ks.size(), incremental.update_ms,
                 incremental.query_ms,
                 rebuild.update_ms, rebuild.query_ms,
                 static_cast<unsigned long long>(stats.TotalHits()),
                 static_cast<unsigned long long>(stats.TotalMisses()));
  }

  auto emit = [](const char* op, int pass, double ms,
                 const std::vector<double>& digest) {
    bench::PrintResult(op, pass, ms, bench::Digest(digest));
  };
  // The per-phase rows share the full digest: any divergence — rows, mhr,
  // violations or final skyline state — trips bench_to_json's checksum
  // gate on every op series at once.
  emit("update", 1, rebuild.update_ms, rebuild.digest);
  emit("update", 2, incremental.update_ms, incremental.digest);
  emit("query", 1, rebuild.query_ms, rebuild.digest);
  emit("query", 2, incremental.query_ms, incremental.digest);
  emit("update_query", 1, rebuild.update_ms + rebuild.query_ms,
       rebuild.digest);
  emit("update_query", 2, incremental.update_ms + incremental.query_ms,
       incremental.digest);
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
