// bench_snapshot: process warm-start via binary snapshots versus cold
// ingest. One serving state — a generated dataset written to CSV (the
// on-disk source a fresh process would ingest) — is brought up twice:
//
//   * cold — ReadCsv + grouping + dynamic session + skyline-index build
//     from scratch (the pre-snapshot restart story), then a query sweep;
//   * restore — DatasetCatalog::Load of the snapshot file written from the
//     cold session (untimed save): table, tombstone state, grouping,
//     insert-routing provenance and the maintained skyline state all come
//     from the file without a single dominance test, then the same sweep
//     through the catalog.
//
// Emits the machine-readable CSV tools/bench_to_json consumes; `threads`
// encodes the pass — 1 = cold, 2 = restore (see the pass1/pass2 config
// keys) — so the restore row's "speedup" is the cold/restore factor, and
// the checksum gate doubles as the restored-state bit-identity guarantee
// (every query result plus the full skyline-index state is digested).
//
//   bench_snapshot --n=10000 --dim=6 --groups=4 |
//     bench_to_json --out=BENCH_snapshot.json --min_speedup=warm_start:2:10.0

#include <cstdio>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/session.h"
#include "api/solver.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "data/snapshot.h"
#include "fairness/group_bounds.h"
#include "skyline/incremental.h"

namespace fairhms {
namespace {

/// Folds the complete maintained skyline-index state, so the checksum also
/// certifies what the snapshot carried — not just results computed from it.
void FoldIndexState(const SkylineIndex& index, std::vector<double>* digest) {
  const SkylineIndexState state = index.SaveState();
  for (int r : state.global.skyline) digest->push_back(r);
  for (const auto& [row, by] : state.global.dominated) {
    digest->push_back(static_cast<double>(row));
    digest->push_back(static_cast<double>(by));
  }
  for (const IncrementalSkylineState& g : state.per_group) {
    digest->push_back(static_cast<double>(g.skyline.size()));
    for (int r : g.skyline) digest->push_back(r);
    digest->push_back(static_cast<double>(g.dominated.size()));
  }
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = static_cast<int>(flags.GetInt("dim", 6));
  const int groups = static_cast<int>(flags.GetInt("groups", 4));
  const double alpha = flags.GetDouble("alpha", 0.2);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int threads = static_cast<int>(flags.GetInt("solver_threads", 1));
  const std::string algos_flag = flags.GetString("algos", "intcov,g_greedy");
  const std::string ks_flag = flags.GetString("ks", "6,10,14");
  const std::string work_dir = flags.GetString("work_dir", ".");

  std::vector<int> ks;
  if (!bench::ParsePositiveInts("ks", ks_flag, &ks) ||
      !bench::CheckFlags(flags)) {
    return 1;
  }
  std::vector<std::string> algos;
  for (const std::string& a : Split(algos_flag, ',')) {
    algos.push_back(std::string(Trim(a)));
  }
  const std::string csv_path = work_dir + "/bench_snapshot_data.csv";
  const std::string snap_path = work_dir + "/bench_snapshot_state.snap";

  // ---- Setup (untimed): the on-disk CSV a fresh process would ingest.
  {
    Rng rng(seed);
    const Dataset generated = GenIndependent(n, dim, &rng).NormalizedMinMax();
    if (Status st = WriteCsv(generated, csv_path); !st.ok()) {
      std::fprintf(stderr, "write csv: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  bench::PrintReportHead("snapshot",
                         {{"pass1", "cold_ingest"},
                          {"pass2", "snapshot_restore"},
                          {"n", std::to_string(n)},
                          {"dim", std::to_string(dim)},
                          {"groups", std::to_string(groups)},
                          {"ks", ks_flag},
                          {"alpha", StrFormat("%g", alpha)},
                          {"algos", algos_flag},
                          {"solver_threads", std::to_string(threads)},
                          {"seed", std::to_string(seed)}});

  auto make_request = [&](const Grouping& grouping, const Dataset& data,
                          const std::string& algo, int k) {
    SolverRequest request;
    request.bounds =
        GroupBounds::Proportional(k, grouping.LiveCounts(data), alpha);
    request.algorithm = algo;
    request.seed = seed;
    request.threads = threads;
    return request;
  };

  // ---- Pass 1: cold — CSV ingest + grouping + skyline-index build. ----
  double cold_start_ms = 0.0;
  double cold_query_ms = 0.0;
  std::vector<double> cold_digest;
  Dataset cold_data(1);
  Grouping cold_grouping;
  {
    Stopwatch start_timer;
    CsvReadOptions opts;
    {
      // A real restart knows its schema; reading the header for the
      // column list is part of the ingest it pays.
      Rng rng(seed);
      opts.numeric_columns =
          GenIndependent(1, dim, &rng).attr_names();
    }
    auto read = ReadCsv(csv_path, opts);
    if (!read.ok()) {
      std::fprintf(stderr, "read csv: %s\n", read.status().ToString().c_str());
      return 1;
    }
    cold_data = std::move(*read);
    cold_grouping = GroupBySumRank(cold_data, groups);
    auto session = SolverSession::CreateDynamic(&cold_data, &cold_grouping);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    if (Status st = session->EnsureIndex(); !st.ok()) {
      std::fprintf(stderr, "index build: %s\n", st.ToString().c_str());
      return 1;
    }
    cold_start_ms = start_timer.ElapsedMillis();

    for (const std::string& algo : algos) {
      for (int k : ks) {
        Stopwatch query_timer;
        auto result = session->Solve(
            make_request(cold_grouping, cold_data, algo, k));
        if (!result.ok()) {
          std::fprintf(stderr, "cold query (%s, k=%d): %s\n", algo.c_str(), k,
                       result.status().ToString().c_str());
          return 1;
        }
        cold_query_ms += query_timer.ElapsedMillis();
        bench::FoldResult(*result, &cold_digest);
      }
    }
    FoldIndexState(*session->index(), &cold_digest);

    // Untimed: persist the cold session's full serving state.
    auto snapshot = SnapshotSession(&*session);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    if (Status st = WriteSnapshotFile(*snapshot, snap_path); !st.ok()) {
      std::fprintf(stderr, "write snapshot: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // ---- Pass 2: restore — catalog warm-start from the snapshot file. ---
  double restore_ms = 0.0;
  double restore_query_ms = 0.0;
  std::vector<double> restore_digest;
  {
    DatasetCatalog catalog;
    Stopwatch restore_timer;
    if (Status st = catalog.Load("bench", snap_path); !st.ok()) {
      std::fprintf(stderr, "restore: %s\n", st.ToString().c_str());
      return 1;
    }
    restore_ms = restore_timer.ElapsedMillis();

    auto session = catalog.Session("bench");
    if (!session.ok()) {
      std::fprintf(stderr, "restored session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    for (const std::string& algo : algos) {
      for (int k : ks) {
        Stopwatch query_timer;
        auto result = catalog.Solve(
            "bench",
            make_request((*session)->grouping(), (*session)->data(), algo, k));
        if (!result.ok()) {
          std::fprintf(stderr, "restored query (%s, k=%d): %s\n", algo.c_str(),
                       k, result.status().ToString().c_str());
          return 1;
        }
        restore_query_ms += query_timer.ElapsedMillis();
        bench::FoldResult(*result, &restore_digest);
      }
    }
    FoldIndexState(*(*session)->index(), &restore_digest);
  }

  std::fprintf(stderr,
               "cold: ingest+build %.1f ms, queries %.1f ms; restore: "
               "%.1f ms, queries %.1f ms (%.1fx warm-start)\n",
               cold_start_ms, cold_query_ms, restore_ms, restore_query_ms,
               restore_ms > 0.0 ? cold_start_ms / restore_ms : 0.0);

  auto emit = [](const char* op, int pass, double ms,
                 const std::vector<double>& digest) {
    bench::PrintResult(op, pass, ms, bench::Digest(digest));
  };
  // Both passes share the full digest: a restored state that diverges
  // anywhere — query rows, mhr, violations, or any skyline-index entry —
  // trips bench_to_json's checksum gate on every series at once.
  emit("warm_start", 1, cold_start_ms, cold_digest);
  emit("warm_start", 2, restore_ms, restore_digest);
  emit("query", 1, cold_query_ms, cold_digest);
  emit("query", 2, restore_query_ms, restore_digest);
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
