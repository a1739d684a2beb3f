#include "workload.h"

#include <cstdio>
#include <unordered_set>
#include <utility>

#include "common/json.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/grouping.h"

namespace perfbench {

using fairhms::Dataset;
using fairhms::DatasetCatalog;
using fairhms::Grouping;
using fairhms::Rng;
using fairhms::Status;
using fairhms::StatusOr;
using fairhms::StrFormat;

namespace {

// Dataset shapes. d6 is the paper's synthetic independent family at the
// scale where BiGreedy's net evaluation dominates a cold query; a2 is an
// anticorrelated 2-D set, the shape IntCov exists for.
constexpr size_t kD6Rows = 20000;
constexpr int kD6Dim = 6;
constexpr int kD6Groups = 4;
constexpr size_t kA2Rows = 4000;
constexpr int kA2Groups = 3;
// The datasets are fixed, like a deployment's: --seed drives the request
// stream (query seeds, keys, arrival times, inserted points). A query's
// cost depends on its dataset's skyline, so a per-seed dataset would make
// every run's numbers move with it.
constexpr uint64_t kD6DataSeed = 20220901;
constexpr uint64_t kU6DataSeed = 20220902;
constexpr uint64_t kA2DataSeed = 20220903;
// The query seed of the serving workloads' and update_mixed's fixed key
// sets.
constexpr uint64_t kServeQuerySeed = 7;

// Process-wide artifact-cache budget. cold_sweep fills about 20 MiB of
// nets and evaluators per line, so it evicts every few dozen lines;
// the serving workloads' key set fits.
constexpr uint64_t kCacheBudgetBytes = 512ull << 20;

// Generated lines cover the longest run the benchmark allows (60 s); a run
// sends the prefix that fits its --seconds.
constexpr double kHorizonS = 60.0;
constexpr int kColdSweepLines = 4000;
constexpr int kServeWarmLines = 4000;
constexpr int kReaderLines = 4000;
constexpr int kWriterLines = 40000;
// update_mixed: one delete per this many writer lines.
constexpr int kDeleteEvery = 16;
// update_mixed think times (exponential means). The dataset lock prefers
// readers, so closed-loop readers with no pause between queries never
// leave the writer a window; pausing readers lets writes land.
constexpr double kReaderThinkMs = 150.0;
constexpr double kWriterThinkMs = 100.0;

// Derived seeds stay below 2^31: request lines carry them as JSON numbers,
// which the protocol reads exactly only up to 2^53.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t h = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return (h ^ (h >> 31)) >> 33;
}

Line Query(const std::string& id, const std::string& dataset,
           const std::string& algorithm, int k, uint64_t query_seed,
           int threads) {
  Line line;
  line.id = id;
  line.key = StrFormat(
      "\"dataset\": \"%s\", \"algorithm\": \"%s\", \"k\": %d, \"seed\": "
      "%llu, \"threads\": %d}",
      dataset.c_str(), algorithm.c_str(), k,
      static_cast<unsigned long long>(query_seed), threads);
  line.text = "{\"id\": \"" + id + "\", " + line.key;
  line.kind = LineKind::kQuery;
  line.dataset = dataset;
  line.algorithm = algorithm;
  line.k = k;
  line.seed = query_seed;
  line.threads = threads;
  return line;
}

Line Insert(const std::string& id, const std::string& dataset,
            const std::vector<double>& point, int group) {
  Line line;
  line.id = id;
  std::string coords;
  for (size_t j = 0; j < point.size(); ++j) {
    coords += StrFormat(j == 0 ? "%.17g" : ", %.17g", point[j]);
  }
  line.key = StrFormat(
      "\"op\": \"insert\", \"dataset\": \"%s\", \"point\": [%s], "
      "\"group\": %d}",
      dataset.c_str(), coords.c_str(), group);
  line.text = "{\"id\": \"" + id + "\", " + line.key;
  line.kind = LineKind::kInsert;
  line.dataset = dataset;
  return line;
}

Dataset MakeD6(uint64_t seed) {
  Rng rng(seed);
  return fairhms::GenIndependent(kD6Rows, kD6Dim, &rng).NormalizedMinMax();
}

Dataset MakeA2(uint64_t seed) {
  Rng rng(seed);
  return fairhms::GenAntiCorrelated(kA2Rows, 2, &rng).NormalizedMinMax();
}

void ColdSweep(uint64_t seed, Lines* out) {
  // One warm-up query per algorithm on a seed the timed lines never use:
  // it builds the skylines, pools and the reference evaluator, which every
  // timed line would otherwise race to build first.
  const uint64_t warm_seed = Mix(seed, 99);
  out->warmup.push_back(Query("W0", "d6", "bigreedy", 10, warm_seed, 4));
  out->warmup.push_back(Query("W1", "d6", "bigreedy+", 10, warm_seed, 4));
  // Every timed line has its own (seed, k): each one misses the net and
  // evaluator caches. Three BiGreedy lines per BiGreedy+ line, k cycling
  // 8..12, so every run serves the same mix. (A cold BiGreedy+ line costs
  // about a third of a BiGreedy one; an even mix would put the median in
  // the gap between the two.)
  static const int kKs[] = {8, 9, 10, 11, 12};
  for (int i = 0; i < kColdSweepLines; ++i) {
    const char* algo = (i % 4 == 3) ? "bigreedy+" : "bigreedy";
    out->timed.push_back(Query(StrFormat("L%d", i), "d6", algo, kKs[i % 5],
                               Mix(seed, 1000 + i), 4));
  }
}

void Serve(Workload w, uint64_t seed, Lines* out) {
  // A fixed set of popular keys, like a dashboard's queries against a
  // long-running daemon; the seed draws the key order (and serve_open's
  // arrival times). One (algorithm, k) pair per cost-model bucket and one
  // query seed, so every observation the planner folds into a cell has the
  // same happiness ratio. BiGreedy, the one warm-startable algorithm, runs at a
  // single k ("auto" at that k too), so whether a solve warm-starts does
  // not depend on the order concurrent lines happen to run in.
  std::vector<Line> keys = {
      Query("", "d6", "bigreedy", 10, kServeQuerySeed, 1),
      Query("", "d6", "bigreedy+", 6, kServeQuerySeed, 1),
      Query("", "d6", "bigreedy+", 10, kServeQuerySeed, 1),
      Query("", "a2", "intcov", 4, kServeQuerySeed, 1),
      Query("", "a2", "intcov", 8, kServeQuerySeed, 1)};
  const Line auto_key = Query("", "d6", "auto", 10, kServeQuerySeed, 1);

  // Warm-up: every named key twice (the first pass may observe a cold
  // cache signature), then the auto key, which by then plans from a model
  // that holds every named cell.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Line& key : keys) out->warmup.push_back(key);
  }
  out->warmup.push_back(auto_key);
  for (size_t i = 0; i < out->warmup.size(); ++i) {
    Line& line = out->warmup[i];
    line = Query(StrFormat("W%zu", i), line.dataset, line.algorithm, line.k,
                 line.seed, 1);
  }
  keys.push_back(auto_key);

  // Keys in rounds of one seeded permutation each, so every stretch of
  // lines holds the same key mix. Open loop: one arrival per 1/rate slot
  // at a uniform offset inside it, so every window also holds the same
  // number of lines.
  const Spec spec = SpecFor(w);
  Rng rng(Mix(seed, 11));
  const double slot_ms = spec.open_loop ? 1000.0 / spec.rate_per_s : 0.0;
  const int lines = spec.open_loop
                        ? static_cast<int>(kHorizonS * spec.rate_per_s)
                        : kServeWarmLines;
  std::vector<size_t> round;
  for (int i = 0; i < lines; ++i) {
    if (round.empty()) {
      for (size_t k = 0; k < keys.size(); ++k) round.push_back(k);
      rng.Shuffle(&round);
    }
    const Line& key = keys[round.back()];
    round.pop_back();
    Line line = Query(StrFormat("L%d", i), key.dataset, key.algorithm, key.k,
                      key.seed, 1);
    if (spec.open_loop) line.due_ms = (i + rng.Uniform()) * slot_ms;
    line.conn = i % spec.connections;
    out->timed.push_back(std::move(line));
  }
}

void UpdateMixed(uint64_t seed, Lines* out) {
  // Readers: three connections cycling over their own fixed bigreedy/auto
  // keys at one thread. Only bigreedy ever runs on u6, so "auto" always
  // plans bigreedy.
  const uint64_t qs = kServeQuerySeed;
  std::vector<std::vector<Line>> reader_keys(3);
  for (int r = 0; r < 3; ++r) {
    const int k = 8 + 2 * r;
    reader_keys[static_cast<size_t>(r)] = {
        Query("", "u6", "bigreedy", k, qs, 1),
        Query("", "u6", "auto", k, qs, 1)};
    for (const Line& key : reader_keys[static_cast<size_t>(r)]) {
      out->warmup.push_back(Query(StrFormat("W%zu", out->warmup.size()),
                                  key.dataset, key.algorithm, key.k, qs, 1));
    }
  }
  // Writer: inserts drawn from the dataset's generator (uniform in the
  // unit cube, explicit group), and every kDeleteEvery-th line a delete of
  // a row an earlier response returned.
  Rng rng(Mix(seed, 13));
  Rng think(Mix(seed, 17));
  int id = 0;
  for (int i = 0; i < kWriterLines; ++i) {
    Line line;
    if (i % kDeleteEvery == kDeleteEvery - 1) {
      line.id = StrFormat("L%d", id++);
      line.kind = LineKind::kDelete;
      line.dataset = "u6";
      line.delete_slot = i / kDeleteEvery;
    } else {
      std::vector<double> point(static_cast<size_t>(kD6Dim));
      for (double& x : point) x = rng.Uniform();
      const int group = static_cast<int>(rng.UniformInt(kD6Groups));
      line = Insert(StrFormat("L%d", id++), "u6", point, group);
    }
    line.think_ms = kWriterThinkMs * think.Exponential(1.0);
    out->timed.push_back(std::move(line));
  }
  for (int r = 0; r < 3; ++r) {
    const std::vector<Line>& keys = reader_keys[static_cast<size_t>(r)];
    for (int i = 0; i < kReaderLines; ++i) {
      const Line& key = keys[static_cast<size_t>(i) % keys.size()];
      Line line = Query(StrFormat("L%d", id++), key.dataset, key.algorithm,
                        key.k, qs, 1);
      line.conn = r + 1;
      line.think_ms = kReaderThinkMs * think.Exponential(1.0);
      out->timed.push_back(std::move(line));
    }
  }
}

Status RegisterTimed(DatasetCatalog* catalog, const std::string& name,
                     Dataset data, Grouping grouping, double* ms) {
  fairhms::Stopwatch timer;
  Status status =
      catalog->Register(name, std::move(data), std::move(grouping));
  *ms += timer.ElapsedMillis();
  return status;
}

}  // namespace

StatusOr<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kColdSweep, Workload::kServeOpen,
                     Workload::kServeWarm, Workload::kUpdateMixed}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kColdSweep:
      return "cold_sweep";
    case Workload::kServeOpen:
      return "serve_open";
    case Workload::kServeWarm:
      return "serve_warm";
    case Workload::kUpdateMixed:
      return "update_mixed";
  }
  return "?";
}

Spec SpecFor(Workload w) {
  Spec spec;
  spec.workload = w;
  switch (w) {
    case Workload::kColdSweep:
      spec.connections = 1;
      spec.slo_ms = 2000.0;
      spec.tail_pct = 75.0;
      break;
    case Workload::kServeOpen:
      spec.open_loop = true;
      spec.connections = 4;
      spec.rate_per_s = 10.0;
      spec.slo_ms = 250.0;
      spec.tail_pct = 90.0;
      break;
    case Workload::kServeWarm:
      // serve_open's keys, closed loop with no think time. On a shared
      // 4-vCPU VM a query that arrives while the server is idle runs about
      // 20% slower than one sent back to back, by how much moving with the
      // host's load, so the open loop's latencies spread too far between
      // runs to gate on (see README). Two connections leave cores free for
      // the load generator.
      spec.connections = 2;
      spec.slo_ms = 250.0;
      spec.tail_pct = 90.0;
      break;
    case Workload::kUpdateMixed:
      spec.connections = 4;
      spec.slo_ms = 2000.0;
      spec.tail_pct = 90.0;
      break;
  }
  return spec;
}

Lines GenerateLines(Workload w, uint64_t seed) {
  Lines out;
  switch (w) {
    case Workload::kColdSweep:
      ColdSweep(seed, &out);
      break;
    case Workload::kServeOpen:
    case Workload::kServeWarm:
      Serve(w, seed, &out);
      break;
    case Workload::kUpdateMixed:
      UpdateMixed(seed, &out);
      break;
  }
  return out;
}

void BindDeletes(const std::vector<int>& returned_rows,
                 std::vector<Line>* lines) {
  std::vector<Line> bound;
  bound.reserve(lines->size());
  for (Line& line : *lines) {
    if (line.kind == LineKind::kDelete) {
      if (line.delete_slot >= static_cast<int>(returned_rows.size())) continue;
      line.key = StrFormat("\"op\": \"delete\", \"dataset\": \"%s\", "
                           "\"rows\": [%d]}",
                           line.dataset.c_str(),
                           returned_rows[static_cast<size_t>(line.delete_slot)]);
      line.text = "{\"id\": \"" + line.id + "\", " + line.key;
    }
    bound.push_back(std::move(line));
  }
  *lines = std::move(bound);
}

fairhms::ServiceOptions BenchServiceOptions(uint64_t seed) {
  fairhms::ServiceOptions opts;
  opts.default_seed = seed;
  opts.default_threads = 1;
  opts.envelope.version = 1;
  opts.envelope.emit_seq = true;
  return opts;
}

const char* PrimaryDatasetName(Workload w) {
  return w == Workload::kUpdateMixed ? "u6" : "d6";
}

Dataset PrimaryDataset(Workload w) {
  return MakeD6(w == Workload::kUpdateMixed ? kU6DataSeed : kD6DataSeed);
}

StatusOr<std::unique_ptr<Env>> SetUp(Workload w, uint64_t seed,
                                     const Lines& lines,
                                     const std::string& work_dir,
                                     bool with_server) {
  auto env = std::make_unique<Env>();
  DatasetCatalog::Options catalog_opts;
  catalog_opts.cache_budget_bytes = kCacheBudgetBytes;
  env->catalog = std::make_unique<DatasetCatalog>(catalog_opts);
  if (w == Workload::kUpdateMixed) {
    // Written by a scratch catalog with its skyline index built, so the
    // loaded session starts with its dynamic state in place and the first
    // insert pays no lazy index build.
    const std::string path =
        StrFormat("%s/u6-%llu.snap", work_dir.c_str(),
                  static_cast<unsigned long long>(seed));
    {
      DatasetCatalog scratch;
      Dataset data = PrimaryDataset(w);
      Grouping grouping = fairhms::GroupBySumRank(data, kD6Groups);
      FAIRHMS_RETURN_IF_ERROR(RegisterTimed(&scratch, "u6", std::move(data),
                                            std::move(grouping),
                                            &env->register_ms));
      FAIRHMS_ASSIGN_OR_RETURN(fairhms::SolverSession * session,
                               scratch.Session("u6"));
      FAIRHMS_RETURN_IF_ERROR(session->EnsureIndex());
      FAIRHMS_RETURN_IF_ERROR(scratch.Save("u6", path));
    }
    fairhms::Stopwatch timer;
    const Status loaded = env->catalog->Load("u6", path);
    env->snapshot_load_ms = timer.ElapsedMillis();
    std::remove(path.c_str());
    FAIRHMS_RETURN_IF_ERROR(loaded);
    FAIRHMS_ASSIGN_OR_RETURN(fairhms::SolverSession * session,
                             env->catalog->Session("u6"));
    FAIRHMS_RETURN_IF_ERROR(session->EnsureIndex());
  } else {
    Dataset d6 = PrimaryDataset(w);
    Grouping g6 = fairhms::GroupBySumRank(d6, kD6Groups);
    FAIRHMS_RETURN_IF_ERROR(RegisterTimed(env->catalog.get(), "d6",
                                          std::move(d6), std::move(g6),
                                          &env->register_ms));
    if (w == Workload::kServeOpen || w == Workload::kServeWarm) {
      Dataset a2 = MakeA2(kA2DataSeed);
      Grouping g2 = fairhms::GroupBySumRank(a2, kA2Groups);
      FAIRHMS_RETURN_IF_ERROR(RegisterTimed(env->catalog.get(), "a2",
                                            std::move(a2), std::move(g2),
                                            &env->register_ms));
    }
  }
  env->service = std::make_unique<fairhms::ProtocolService>(
      env->catalog.get(), BenchServiceOptions(seed));

  std::unordered_set<int> seen;
  uint64_t line_no = 0;
  for (const Line& line : lines.warmup) {
    std::string response = env->service->HandleLine(line.text, ++line_no);
    auto parsed = fairhms::ParseJson(response);
    const fairhms::JsonValue* ok =
        parsed.ok() ? parsed->Find("ok") : nullptr;
    if (ok == nullptr || !ok->bool_value()) {
      return Status::Internal("warm-up line failed: " + line.text + " -> " +
                              response);
    }
    if (const fairhms::JsonValue* rows = parsed->Find("rows")) {
      for (const fairhms::JsonValue& row : rows->items()) {
        const int r = static_cast<int>(row.number_value());
        if (seen.insert(r).second) env->returned_rows.push_back(r);
      }
    }
    env->warmup_responses.push_back(std::move(response));
  }

  if (with_server) {
    fairhms::ServerOptions opts;
    opts.tcp_port = 0;
    opts.workers = 4;
    opts.max_queue = 4096;
    env->server =
        std::make_unique<fairhms::Server>(env->service.get(), opts);
    FAIRHMS_RETURN_IF_ERROR(env->server->Start());
  }
  return env;
}

}  // namespace perfbench
