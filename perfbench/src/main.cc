// perfbench: the end-to-end benchmark of the fairhms serving stack.
//
//   perfbench --workload <cold_sweep|serve_open|serve_warm|update_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--work_dir <dir>]
//   perfbench --selftest [--work_dir <dir>]
//
// One run generates the workload from the seed, sets the stack up several
// times (setup_s is the median), serves the timed lines over loopback TCP
// through Server + ProtocolService + DatasetCatalog, checks every response
// and compares the run against an in-process replay. --trace 0 prints the
// end-to-end metrics; --trace 1 additionally replays the served lines
// serially, untraced and traced, probes single layers, and prints the
// per-layer metrics. The last stdout line is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "algo/algo_util.h"
#include "algo/bigreedy.h"
#include "algo/intcov.h"
#include "common/json.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/artifact_cache.h"
#include "core/net_evaluator.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "loadgen.h"
#include "plan/planner.h"
#include "replay.h"
#include "skyline/incremental.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"
#include "workload.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using fairhms::JsonValue;
using fairhms::Status;
using fairhms::StatusOr;
using fairhms::StrFormat;

// Serving time the untraced and traced serial replays may each spend.
constexpr double kTraceBudgetMs = 20000.0;
// Open-loop runs whose generator sent a line later than this (at the
// late-send tail) did not apply the schedule and are invalid.
constexpr double kMaxLateMs = 25.0;
// Query keys the single-layer core probes sample.
constexpr size_t kProbeKeys = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

/// `pct_wanted` when at least ten of `n` samples lie beyond it, else the
/// highest of 90, 75, 50 that has ten beyond it (50 at worst).
double TailPct(size_t n, double pct_wanted) {
  for (double pct : {pct_wanted, 90.0, 75.0}) {
    if (pct <= pct_wanted &&
        static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0) {
      return pct;
    }
  }
  return 50.0;
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000.0 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1000.0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

const JsonValue* Field(const JsonValue& v, const char* key) {
  return v.is_object() ? v.Find(key) : nullptr;
}

double Number(const JsonValue& v, const char* key, double def = 0.0) {
  const JsonValue* f = Field(v, key);
  return f != nullptr && f->is_number() ? f->number_value() : def;
}

/// Cache counters summed over datasets, from one stats response.
struct CacheCounters {
  std::map<std::string, std::pair<double, double>> classes;  // hits, misses
  double evictions = 0.0;
  double bytes = 0.0;
  std::string simd_level;
};

CacheCounters ReadStats(Env* env) {
  CacheCounters out;
  const std::string line = env->service->HandleLine(
      "{\"id\": \"stats\", \"op\": \"stats\"}", 0);
  auto parsed = fairhms::ParseJson(line);
  if (!parsed.ok()) return out;
  if (const JsonValue* cache = Field(*parsed, "cache")) {
    out.evictions = Number(*cache, "evictions");
    out.bytes = Number(*cache, "total_bytes");
  }
  if (const JsonValue* simd = Field(*parsed, "simd_level")) {
    out.simd_level = simd->string_value();
  }
  const JsonValue* datasets = Field(*parsed, "datasets");
  if (datasets == nullptr) return out;
  for (const JsonValue& ds : datasets->items()) {
    const JsonValue* classes = Field(ds, "cache_classes");
    if (classes == nullptr) continue;
    for (const auto& [name, cls] : classes->members()) {
      auto& slot = out.classes[name];
      slot.first += Number(cls, "hits");
      slot.second += Number(cls, "misses");
    }
  }
  return out;
}

uint64_t ResponseSeq(const std::string& response) {
  auto parsed = fairhms::ParseJson(response);
  return parsed.ok() ? static_cast<uint64_t>(Number(*parsed, "seq")) : 0;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double MedianOf(const std::vector<Span>& spans, const char* name,
                double scale) {
  std::vector<double> v;
  for (const Span& s : spans) {
    if (std::string(s.name) == name) v.push_back((s.end_us - s.start_us) * scale);
  }
  return Median(v);
}

/// Single-layer probes: core.* on sampled query keys, algo.* with warm
/// caches, skyline.* on a private mirror of the primary dataset, plus the
/// planner. Runs after the traced replay, on its environment.
void Probe(Workload w, uint64_t seed, Env* env,
           const std::vector<const Line*>& order,
           const std::string& work_dir, std::vector<Metric>* metrics) {
  const auto ms_since = [](const fairhms::Stopwatch& t) {
    return t.ElapsedMillis();
  };
  auto session_or = env->catalog->Session(PrimaryDatasetName(w));
  if (!session_or.ok()) return;
  fairhms::SolverSession* session = *session_or;
  const fairhms::Dataset& data = session->data();
  const fairhms::Grouping& grouping = session->grouping();
  const std::vector<int> counts = session->group_counts();

  // core.*: net build, candidate-cache fill and an mhr sweep on transient
  // evaluators for the first distinct BiGreedy-shaped keys, at the line's
  // thread count, plus a cache-miss evaluator build at one thread.
  std::vector<double> net_build, cache_fill, sweep_us, serial_build;
  std::vector<std::string> probed;
  for (const Line* line : order) {
    if (probed.size() >= kProbeKeys) break;
    if (line->kind != LineKind::kQuery || line->dataset != PrimaryDatasetName(w))
      continue;
    if (std::find(probed.begin(), probed.end(), line->key) != probed.end())
      continue;
    probed.push_back(line->key);
    const fairhms::GroupBounds bounds =
        fairhms::GroupBounds::Proportional(line->k, counts, 0.1);
    auto input = fairhms::PrepareProblem(data, grouping, bounds, {}, {},
                                         session->cache());
    if (!input.ok()) continue;
    const uint64_t qseed = line->seed;
    const size_t m = static_cast<size_t>(10 * line->k * data.dim());
    fairhms::Rng rng(qseed);
    const fairhms::UtilityNet net =
        fairhms::UtilityNet::SampleRandom(data.dim(), m, &rng);
    fairhms::Stopwatch t;
    fairhms::NetEvaluator eval(&data, &net, input->db_rows, line->threads);
    net_build.push_back(ms_since(t));
    t.Reset();
    eval.CacheCandidates(input->pool);
    cache_fill.push_back(ms_since(t));
    std::vector<int> rows(input->pool.begin(),
                          input->pool.begin() +
                              std::min<size_t>(input->pool.size(),
                                               static_cast<size_t>(line->k)));
    for (int rep = 0; rep < 9; ++rep) {
      t.Reset();
      volatile double mhr = eval.Mhr(rows);
      (void)mhr;
      sweep_us.push_back(ms_since(t) * 1000.0);
    }
    fairhms::ArtifactCache scratch;
    fairhms::Rng rng2(qseed);
    t.Reset();
    auto snet = fairhms::GetOrSampleNet(&scratch, data.dim(), m, &rng2);
    fairhms::GetOrBuildEvaluator(&scratch, data, snet, input->db_rows,
                                 input->pool, 1);
    serial_build.push_back(ms_since(t));
  }
  metrics->push_back({"core.net_build_ms", Median(net_build), "ms"});
  metrics->push_back({"core.cache_fill_ms", Median(cache_fill), "ms"});
  metrics->push_back({"core.mhr_sweep_us", Median(sweep_us), "us"});
  metrics->push_back(
      {"core.evaluator_build_ms.serial", Median(serial_build), "ms"});

  // algo.*: each algorithm the workload serves, re-run on its own keys
  // with the session cache already holding the evaluators (one untimed
  // pass fills it), so the time is the tau search plus greedy rounds.
  std::map<std::string, std::vector<double>> algo_ms;
  std::map<std::string, int> algo_runs;
  for (const Line* line : order) {
    if (line->kind != LineKind::kQuery) continue;
    const std::string& algo = line->algorithm;
    if (algo != "bigreedy" && algo != "bigreedy+" && algo != "intcov") continue;
    if (algo_runs[algo]++ >= 3) continue;
    auto ses = env->catalog->Session(line->dataset);
    if (!ses.ok()) continue;
    fairhms::SolverSession* s = *ses;
    const fairhms::GroupBounds bounds =
        fairhms::GroupBounds::Proportional(line->k, s->group_counts(), 0.1);
    const uint64_t qseed = line->seed;
    double elapsed = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      fairhms::Stopwatch t;
      if (algo == "intcov") {
        fairhms::IntCovOptions opts;
        opts.threads = line->threads;
        opts.cache = s->cache();
        (void)fairhms::IntCov(s->data(), s->grouping(), bounds, opts);
      } else if (algo == "bigreedy") {
        fairhms::BiGreedyOptions opts;
        opts.seed = qseed;
        opts.threads = line->threads;
        opts.cache = s->cache();
        (void)fairhms::BiGreedy(s->data(), s->grouping(), bounds, opts);
      } else {
        fairhms::BiGreedyPlusOptions opts;
        opts.base.seed = qseed;
        opts.base.threads = line->threads;
        opts.base.cache = s->cache();
        (void)fairhms::BiGreedyPlus(s->data(), s->grouping(), bounds, opts);
      }
      elapsed = ms_since(t);
    }
    algo_ms[algo].push_back(elapsed);
  }
  // IntCov is exact-2D. A workload that sends it no line gets it timed on
  // its primary dataset's first-two-attribute projection — what a session
  // selects on for an intcov query against d-dimensional data.
  if (algo_ms["intcov"].empty()) {
    const fairhms::Dataset full = PrimaryDataset(w);
    fairhms::Dataset proj(2);
    proj.Reserve(full.size());
    for (size_t i = 0; i < full.size(); ++i) {
      proj.AddPoint({full.at(i, 0), full.at(i, 1)});
    }
    const fairhms::Grouping groups = fairhms::GroupBySumRank(full, 4);
    const fairhms::GroupBounds bounds =
        fairhms::GroupBounds::Proportional(8, groups.Counts(), 0.1);
    fairhms::ArtifactCache cache;
    fairhms::IntCovOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    for (int rep = 0; rep < 3; ++rep) {
      fairhms::Stopwatch t;
      (void)fairhms::IntCov(proj, groups, bounds, opts);
      if (rep > 0) algo_ms["intcov"].push_back(ms_since(t));
    }
  }
  metrics->push_back({"algo.bigreedy_ms", Median(algo_ms["bigreedy"]), "ms"});
  metrics->push_back(
      {"algo.bigreedy_plus_ms", Median(algo_ms["bigreedy+"]), "ms"});
  metrics->push_back({"algo.intcov_ms", Median(algo_ms["intcov"]), "ms"});

  // plan.plan_us: the planner's decision on each replayed query's shape.
  std::vector<double> plan_us;
  for (const Line* line : order) {
    if (line->kind != LineKind::kQuery || plan_us.size() >= 200) continue;
    auto ses = env->catalog->Session(line->dataset);
    if (!ses.ok()) continue;
    fairhms::PlanRequest req;
    req.d = (*ses)->data().dim();
    req.n = (*ses)->data().live_size();
    req.k = line->k;
    req.num_groups = (*ses)->grouping().num_groups;
    req.bounds_tightness = 0.9;
    req.cache_warm = true;
    fairhms::AlgoParams params;
    fairhms::Stopwatch t;
    (void)fairhms::Planner::PlanQuery(req, *(*ses)->cost_model(), &params);
    plan_us.push_back(ms_since(t) * 1000.0);
  }
  metrics->push_back({"plan.plan_us", Median(plan_us), "us"});

  // skyline.*: a full skyline computation, and SkylineIndex maintenance on
  // a private mirror of the primary dataset. update_mixed mirrors the
  // writer's own mutations; the read-only workloads apply a seeded batch
  // of inserts and skyline deletes to show the layer's cost on their data.
  std::vector<double> sky_ms;
  for (int rep = 0; rep < 3; ++rep) {
    fairhms::Stopwatch t;
    const std::vector<int> sky = fairhms::ComputeSkyline(data);
    sky_ms.push_back(ms_since(t));
  }
  metrics->push_back({"skyline.compute_ms", Median(sky_ms), "ms"});
  {
    fairhms::Dataset mirror = PrimaryDataset(w);
    fairhms::Grouping mgroups = fairhms::GroupBySumRank(mirror, 4);
    fairhms::SkylineIndex index(&mirror, &mgroups);
    std::vector<double> append_us, erase_us;
    const auto insert = [&](const std::vector<double>& point, int group) {
      auto first = mirror.AppendRows({point}, {std::vector<int>()});
      if (!first.ok()) return;
      mgroups.AppendRow(group);
      fairhms::Stopwatch t;
      (void)index.OnAppend(static_cast<size_t>(*first), mirror.size());
      append_us.push_back(ms_since(t) * 1000.0);
    };
    const auto erase = [&](const std::vector<int>& rows) {
      if (!mirror.ErasePoints(rows).ok()) return;
      fairhms::Stopwatch t;
      (void)index.OnErase(rows);
      erase_us.push_back(ms_since(t) * 1000.0);
    };
    if (w == Workload::kUpdateMixed) {
      for (const Line* line : order) {
        if (line->kind == LineKind::kQuery) continue;
        auto parsed = fairhms::ParseJson(line->text);
        if (!parsed.ok()) continue;
        if (line->kind == LineKind::kInsert) {
          std::vector<double> point;
          for (const JsonValue& x : Field(*parsed, "point")->items()) {
            point.push_back(x.number_value());
          }
          insert(point, static_cast<int>(Number(*parsed, "group")));
        } else {
          std::vector<int> rows;
          for (const JsonValue& r : Field(*parsed, "rows")->items()) {
            rows.push_back(static_cast<int>(r.number_value()));
          }
          erase(rows);
        }
      }
    } else {
      fairhms::Rng rng(seed + 17);
      for (int i = 0; i < 64; ++i) {
        std::vector<double> point(static_cast<size_t>(mirror.dim()));
        for (double& x : point) x = rng.Uniform();
        insert(point, static_cast<int>(rng.UniformInt(4)));
        if (i % 8 == 7) erase({index.skyline()[rng.UniformInt(
                             index.skyline().size())]});
      }
    }
    metrics->push_back({"skyline.on_append_us", Median(append_us), "us"});
    metrics->push_back({"skyline.on_erase_us", Median(erase_us), "us"});
  }

  // data.snapshot_load_ms for workloads whose set-up registers directly:
  // save the primary dataset and load it into a scratch catalog.
  if (w != Workload::kUpdateMixed) {
    const std::string path = StrFormat("%s/probe-%llu.snap", work_dir.c_str(),
                                       static_cast<unsigned long long>(seed));
    std::vector<double> load_ms;
    if (env->catalog->Save(PrimaryDatasetName(w), path).ok()) {
      for (int rep = 0; rep < 3; ++rep) {
        fairhms::DatasetCatalog scratch;
        fairhms::Stopwatch t;
        if (scratch.Load("x", path).ok()) load_ms.push_back(ms_since(t));
      }
      std::remove(path.c_str());
    }
    metrics->push_back({"data.snapshot_load_ms", Median(load_ms), "ms"});
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      args->selftest = true;
    } else if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]);
    } else if (a == "--work_dir" && has_value) {
      args->work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument '%s'\n",
                   a.c_str());
      return false;
    }
  }
  return true;
}

/// The canonical serial order of a run's lines: send order for the
/// read-only workloads, seq order for update_mixed.
std::vector<const Line*> CanonicalOrder(Workload w,
                                        const std::vector<Sample>& samples) {
  std::vector<std::pair<uint64_t, const Line*>> keyed;
  for (size_t i = 0; i < samples.size(); ++i) {
    keyed.push_back({w == Workload::kUpdateMixed
                         ? ResponseSeq(samples[i].response)
                         : static_cast<uint64_t>(i),
                     samples[i].line});
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<const Line*> order;
  for (const auto& [seq, line] : keyed) order.push_back(line);
  return order;
}

int Run(const Args& args) {
  auto w_or = ParseWorkload(args.workload);
  if (!w_or.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", w_or.status().ToString().c_str());
    return 2;
  }
  const Workload w = *w_or;
  const Spec spec = SpecFor(w);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  Lines lines = GenerateLines(w, args.seed);

  // Set-up, several times; the last stack serves the timed phase.
  std::vector<double> setup_s, register_ms, load_ms;
  std::unique_ptr<Env> env;
  std::optional<LoadGen> gen;
  for (int rep = 0; rep < spec.setups; ++rep) {
    gen.reset();
    env.reset();
    fairhms::Stopwatch timer;
    auto env_or = SetUp(w, args.seed, lines, args.work_dir, true);
    if (!env_or.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   env_or.status().ToString().c_str());
      return 1;
    }
    env = std::move(*env_or);
    auto gen_or = LoadGen::Connect(env->server->tcp_port(), spec.connections);
    if (!gen_or.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   gen_or.status().ToString().c_str());
      return 1;
    }
    gen.emplace(std::move(*gen_or));
    setup_s.push_back(timer.ElapsedSeconds());
    register_ms.push_back(env->register_ms);
    load_ms.push_back(env->snapshot_load_ms);
  }
  BindDeletes(env->returned_rows, &lines.timed);
  const double setup_rss = PeakRssMb();

  // Timed phase.
  const CacheCounters before = ReadStats(env.get());
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu seconds=%g nproc=%u "
               "cpu=\"%s\" simd=%s compiler=\"%s\" build=%s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               std::thread::hardware_concurrency(), CpuModel().c_str(),
               before.simd_level.c_str(), PERFBENCH_COMPILER,
               PERFBENCH_BUILD_TYPE);
  const double cpu0 = CpuMs();
  auto run_or = gen->Run(lines.timed, spec.open_loop, args.seconds);
  const double cpu_ms = CpuMs() - cpu0;
  const double peak_rss = PeakRssMb();
  if (!run_or.ok()) {
    std::fprintf(stderr, "perfbench: load generator failed: %s\n",
                 run_or.status().ToString().c_str());
    return 1;
  }
  const LoadResult& run = *run_or;
  const CacheCounters after = ReadStats(env.get());
  const double rejected = static_cast<double>(env->server->rejected());
  const double cancelled = static_cast<double>(env->server->cancelled());
  gen.reset();
  env->server->Drain();

  // Field checks and the numbers every run reports.
  Checks checks;
  std::map<std::string, std::vector<int>> counts;
  if (w != Workload::kUpdateMixed) {
    for (const char* ds : {"d6", "a2"}) counts[ds] = GroupCounts(env.get(), ds);
  }
  std::vector<double> query_lat, update_lat, residual, late, hr;
  size_t failed = 0, slo_met = 0, queries = 0, warm = 0;
  for (const Sample& s : run.samples) {
    const double latency = s.recv_ms - s.due_ms;
    late.push_back(s.send_ms - s.due_ms);
    auto parsed = fairhms::ParseJson(s.response);
    const JsonValue* ok = parsed.ok() ? Field(*parsed, "ok") : nullptr;
    const bool good = ok != nullptr && ok->bool_value();
    if (!good) ++failed;
    if (w != Workload::kUpdateMixed) {
      CheckResponse(*s.line, s.response, counts[s.line->dataset], &checks);
    } else if (!good) {
      checks.Fail("response not ok: " + s.line->text + " -> " + s.response);
    }
    if (s.line->kind != LineKind::kQuery) {
      update_lat.push_back(latency);
      continue;
    }
    ++queries;
    query_lat.push_back(latency);
    if (!good) continue;
    if (latency <= spec.slo_ms) ++slo_met;
    hr.push_back(Number(*parsed, "happiness_ratio"));
    residual.push_back((s.recv_ms - s.send_ms) - Number(*parsed, "total_ms"));
    if (const JsonValue* ws = Field(*parsed, "warm_start")) {
      if (ws->bool_value()) ++warm;
    }
  }
  // The replays below each build a stack of their own; release this one.
  const std::vector<std::string> warmup_responses = env->warmup_responses;
  env.reset();
  const double query_tail_pct = TailPct(query_lat.size(), spec.tail_pct);
  const double late_tail = Percentile(late, TailPct(late.size(), 99.0));
  std::fprintf(stderr,
               "perfbench: %zu lines (%zu queries), query tail = p%g, "
               "late tail %.3f ms, peak rss %.1f MiB after set-up\n",
               run.samples.size(), queries, query_tail_pct, late_tail,
               setup_rss);
  if (spec.open_loop && late_tail > kMaxLateMs) {
    checks.Fail(StrFormat("invalid run: the generator fell behind its "
                          "schedule (late tail %.1f ms)", late_tail));
  }

  // Comparison against an in-process replay.
  const std::vector<const Line*> order = CanonicalOrder(w, run.samples);
  {
    std::vector<std::string> observed, expected;
    for (const Sample& s : run.samples) observed.push_back(Normalize(s.response));
    if (w == Workload::kServeOpen || w == Workload::kServeWarm) {
      // The set-up warm-up served every key serially, in process and cold:
      // each timed response must equal that answer to its key. An "auto"
      // line must equal the answer to its key with the algorithm it
      // planned named instead (planned solves are bit-identical to named
      // ones; which algorithm the planner picks may depend on the order
      // observations reached its cost model).
      std::map<std::string, std::string> reference;
      for (size_t i = 0; i < lines.warmup.size(); ++i) {
        reference[lines.warmup[i].key] =
            Normalize(StripId(warmup_responses[i]));
      }
      observed.clear();
      for (const Sample& s : run.samples) {
        observed.push_back(StripPlan(Normalize(StripId(s.response))));
        std::string key = s.line->key;
        if (s.line->algorithm == "auto") {
          auto parsed = fairhms::ParseJson(s.response);
          const JsonValue* algo = parsed.ok() ? Field(*parsed, "algorithm")
                                              : nullptr;
          const std::string named =
              algo != nullptr ? algo->string_value() : std::string("?");
          key.replace(key.find("\"auto\""), 6, "\"" + named + "\"");
        }
        const auto it = reference.find(key);
        expected.push_back(it == reference.end() ? "missing reference for " + key
                                                 : it->second);
      }
    } else if (w == Workload::kColdSweep) {
      auto fresh = SetUp(w, args.seed, lines, args.work_dir, false);
      if (!fresh.ok()) return 1;
      for (const Replayed& r : SerialReplay(fresh->get(), order)) {
        expected.push_back(Normalize(r.response));
      }
    } else {
      auto fresh = SetUp(w, args.seed, lines, args.work_dir, false);
      if (!fresh.ok()) return 1;
      std::map<std::string, std::string> by_id;
      for (const Sample& s : run.samples) by_id[s.line->id] = s.response;
      const std::vector<std::string> replayed =
          SeqReplay(fresh->get(), order, 4, &checks);
      for (size_t i = 0; i < order.size(); ++i) {
        if (Normalize(by_id[order[i]->id]) != Normalize(replayed[i])) {
          checks.Fail("seq-order replay differs at " + order[i]->text +
                      ": served " + by_id[order[i]->id] + " replayed " +
                      replayed[i]);
        }
        expected.push_back(Normalize(replayed[i]));
      }
    }
    const std::string d_obs = Digest(observed), d_exp = Digest(expected);
    std::fprintf(stderr, "perfbench: served digest %s, replay digest %s\n",
                 d_obs.c_str(), d_exp.c_str());
    if (d_obs != d_exp) checks.Fail("served and replayed digests differ");
  }

  std::vector<Metric> metrics;
  const double phase_s = run.phase_ms / 1000.0;
  const double tail_update_pct = TailPct(update_lat.size(), spec.tail_pct);
  if (args.trace == 0) {
    metrics = {
        {"query_p50_ms", Median(query_lat), "ms"},
        {"query_tail_ms", Percentile(query_lat, query_tail_pct), "ms"},
        {"throughput_qps", run.completed_in_phase / phase_s, "lines/s"},
        {"slo_attainment",
         queries == 0 ? 0.0 : static_cast<double>(slo_met) / queries,
         "fraction"},
        {"hr_mean", hr.empty() ? 0.0 : [&] {
           double sum = 0.0;
           for (double h : hr) sum += h;
           return sum / hr.size();
         }(), "ratio"},
        {"cpu_ms_per_line", cpu_ms / std::max<size_t>(run.samples.size(), 1),
         "ms"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    const auto hit_rate = [&](const char* cls) {
      const auto b = before.classes.count(cls) ? before.classes.at(cls)
                                               : std::make_pair(0.0, 0.0);
      const auto a = after.classes.count(cls) ? after.classes.at(cls)
                                              : std::make_pair(0.0, 0.0);
      const double hits = a.first - b.first, misses = a.second - b.second;
      return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    };
    metrics = {
        {"server.residual_ms_p50", Median(residual), "ms"},
        {"server.residual_ms_tail",
         Percentile(residual, TailPct(residual.size(), spec.tail_pct)), "ms"},
        {"server.rejected", rejected, "count"},
        {"server.cancelled", cancelled, "count"},
        {"error_rate",
         static_cast<double>(failed) / std::max<size_t>(run.samples.size(), 1),
         "fraction"},
        {"session.warm_start_rate",
         queries == 0 ? 0.0 : static_cast<double>(warm) / queries,
         "fraction"},
        {"cache.nets.hit_rate", hit_rate("nets"), "fraction"},
        {"cache.evaluators.hit_rate", hit_rate("evaluators"), "fraction"},
        {"cache.skylines.hit_rate", hit_rate("skylines"), "fraction"},
        {"cache.pools.hit_rate", hit_rate("pools"), "fraction"},
        {"cache.evictions", after.evictions - before.evictions, "count"},
        {"cache.bytes", after.bytes, "bytes"},
        {"loadgen.late_ms_tail", late_tail, "ms"},
        {"data.register_ms", Median(register_ms), "ms"},
    };
    // Update latencies exist only where the workload writes.
    if (!update_lat.empty()) {
      metrics.push_back({"update_p50_ms", Median(update_lat), "ms"});
      metrics.push_back(
          {"update_tail_ms", Percentile(update_lat, tail_update_pct), "ms"});
    }
    if (w == Workload::kUpdateMixed) {
      metrics.push_back({"data.snapshot_load_ms", Median(load_ms), "ms"});
    }

    // Untraced (HandleLine) and traced serial replays of the same lines,
    // each on a freshly set-up stack, interleaved line by line with the
    // first mover alternating, so drift in machine speed hits both alike.
    auto untraced_env = SetUp(w, args.seed, lines, args.work_dir, false);
    auto traced_env = SetUp(w, args.seed, lines, args.work_dir, false);
    if (!untraced_env.ok() || !traced_env.ok()) return 1;
    TracedReplayer traced(traced_env->get(), args.seed);
    std::vector<const Line*> prefix;
    double untraced_ms = 0.0;
    for (size_t i = 0; i < order.size() && untraced_ms < kTraceBudgetMs; ++i) {
      const Line& line = *order[i];
      std::string plain, spanned;
      const auto run_untraced = [&] {
        fairhms::Stopwatch t;
        plain = (*untraced_env)->service->HandleLine(line.text, i + 1);
        untraced_ms += t.ElapsedMillis();
      };
      if (i % 2 == 0) run_untraced();
      spanned = traced.Handle(line, static_cast<int>(i));
      if (i % 2 == 1) run_untraced();
      prefix.push_back(&line);
      if (Normalize(spanned) != Normalize(plain)) {
        checks.Fail("traced replay differs from HandleLine at " + line.text +
                    ": " + spanned + " vs " + plain);
      }
    }
    untraced_env->reset();
    const std::vector<Span>& spans = traced.tracer().spans();

    // Self time per layer: a span's duration minus its children's.
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::map<std::string, double> self_ms;
    double traced_ms = 0.0;
    std::vector<double> q_handle, q_self, u_handle, u_self;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = (s.end_us - s.start_us) / 1000.0;
      const double self = dur - child_us[i] / 1000.0;
      self_ms[s.name] += self;
      if (s.parent >= 0) continue;
      traced_ms += dur;
      const bool query = prefix[static_cast<size_t>(s.line)]->kind == LineKind::kQuery;
      (query ? q_handle : u_handle).push_back(dur);
      (query ? q_self : u_self).push_back(self);
    }
    double self_sum = 0.0;
    for (const auto& [name, ms] : self_ms) self_sum += ms;
    const double coverage = untraced_ms > 0.0 ? self_sum / untraced_ms : 0.0;
    std::fprintf(stderr,
                 "perfbench: traced %zu lines: self-time sum %.1f ms vs "
                 "untraced HandleLine %.1f ms (%.1f%%)\n",
                 prefix.size(), self_sum, untraced_ms, 100.0 * coverage);
    for (const auto& [name, ms] : self_ms) {
      std::fprintf(stderr, "perfbench:   self %-22s %10.3f ms\n", name.c_str(),
                   ms);
    }
    if (std::fabs(coverage - 1.0) > 0.10) {
      std::fprintf(stderr, "perfbench: warning: layer self-times are not "
                           "within 10%% of the untraced total\n");
    }
    metrics.push_back({"protocol.parse_us", MedianOf(spans, "protocol.parse", 1.0), "us"});
    metrics.push_back({"protocol.render_us", MedianOf(spans, "protocol.render", 1.0), "us"});
    metrics.push_back({"service.handle_ms.query", Median(q_handle), "ms"});
    metrics.push_back({"service.self_ms.query", Median(q_self), "ms"});
    if (!u_handle.empty()) {
      metrics.push_back({"service.handle_ms.update", Median(u_handle), "ms"});
      metrics.push_back({"service.self_ms.update", Median(u_self), "ms"});
    }
    metrics.push_back({"service.handle_ms.untraced_total", untraced_ms, "ms"});
    metrics.push_back({"session.solve_ms", MedianOf(spans, "session.solve", 1e-3), "ms"});
    metrics.push_back({"core.evaluator_build_ms", MedianOf(spans, "core.evaluator_build", 1e-3), "ms"});
    metrics.push_back({"core.ref_mhr_ms", MedianOf(spans, "core.ref_mhr", 1e-3), "ms"});
    metrics.push_back({"trace.self_sum_ms", self_sum, "ms"});
    metrics.push_back({"trace.coverage", coverage, "ratio"});
    metrics.push_back({"trace.overhead_pct",
                       untraced_ms > 0.0 ? 100.0 * (traced_ms / untraced_ms - 1.0) : 0.0,
                       "%"});
    metrics.push_back({"trace.lines", static_cast<double>(prefix.size()), "count"});
    metrics.push_back({"plan.abs_err_ms", Median(traced.plan_errors()), "ms"});
    // Shares of the layers every workload passes through; the others are
    // in the stderr table and the span file.
    for (const char* layer : {"service.handle", "protocol.parse",
                              "core.evaluator_build", "session.solve",
                              "core.ref_mhr", "protocol.render"}) {
      metrics.push_back({std::string("trace.share.") + layer,
                         self_sum > 0.0 ? self_ms[layer] / self_sum : 0.0,
                         "fraction"});
    }
    Probe(w, args.seed, traced_env->get(), prefix, args.work_dir, &metrics);

    // Spans go to disk only now, at the end of the run.
    const std::string path =
        StrFormat("%s/%s-%llu.spans.jsonl", args.work_dir.c_str(),
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed));
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      for (const Span& s : spans) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                     "\"parent\": %d, \"line\": \"%s\"}\n",
                     s.name, s.start_us, s.end_us, s.parent,
                     prefix[static_cast<size_t>(s.line)]->id.c_str());
      }
      std::fclose(f);
    }
  }

  for (const std::string& m : checks.messages) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
  }
  PrintResult(checks.ok(), run.samples.size(), failed, metrics);
  return checks.ok() ? 0 : 1;
}

/// The steadiness self-check: the generator is a pure function of
/// (workload, seed), and two set-ups of one seed replay a prefix of the
/// timed lines to identical digests.
int SelfTest(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  bool pass = true;
  const auto expect = [&pass](bool cond, const std::string& what) {
    std::fprintf(stderr, "selftest: %s %s\n", cond ? "ok  " : "FAIL",
                 what.c_str());
    pass = pass && cond;
  };
  const auto text_digest = [](const Lines& l) {
    std::vector<std::string> all;
    for (const Line& line : l.warmup) all.push_back("w" + line.text);
    for (const Line& line : l.timed) {
      all.push_back(StrFormat("%d %.6f %s", line.conn, line.due_ms,
                              line.text.c_str()));
    }
    return Digest(all);
  };
  for (Workload w : {Workload::kColdSweep, Workload::kServeOpen,
                     Workload::kServeWarm, Workload::kUpdateMixed}) {
    const std::string name = WorkloadName(w);
    const Lines a = GenerateLines(w, 7);
    expect(text_digest(a) == text_digest(GenerateLines(w, 7)),
           name + ": same seed, same lines");
    expect(text_digest(a) != text_digest(GenerateLines(w, 8)),
           name + ": another seed, other lines");

    // A round-robin interleaving of the connections' first lines.
    std::vector<std::string> digests;
    for (int rep = 0; rep < 2; ++rep) {
      Lines lines = GenerateLines(w, 7);
      auto env = SetUp(w, 7, lines, args.work_dir, false);
      if (!env.ok()) {
        expect(false, name + ": set-up " + env.status().ToString());
        break;
      }
      BindDeletes((*env)->returned_rows, &lines.timed);
      const Spec spec = SpecFor(w);
      const size_t per_conn = w == Workload::kColdSweep ? 2 : 6;
      std::vector<std::vector<const Line*>> by_conn(
          static_cast<size_t>(spec.connections));
      for (const Line& line : lines.timed) {
        auto& list = by_conn[static_cast<size_t>(line.conn)];
        if (list.size() < per_conn) list.push_back(&line);
      }
      std::vector<const Line*> order;
      for (size_t i = 0; i < per_conn; ++i) {
        for (const auto& list : by_conn) {
          if (i < list.size()) order.push_back(list[i]);
        }
      }
      std::vector<std::string> responses;
      for (const std::string& r : (*env)->warmup_responses) {
        responses.push_back(Normalize(r));
      }
      Checks checks;
      for (const Replayed& r : SerialReplay(env->get(), order)) {
        CheckResponse(*r.line, r.response, {}, &checks);
        responses.push_back(Normalize(r.response));
      }
      expect(checks.ok(), name + ": replayed responses pass the field checks" +
                              (checks.ok() ? "" : " (" + checks.messages[0] + ")"));
      digests.push_back(Digest(responses));
    }
    expect(digests.size() == 2 && digests[0] == digests[1],
           name + ": same seed, same replay digest");
  }
  std::fprintf(stderr, "selftest: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return perfbench::SelfTest(args);
  if (args.workload.empty()) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return 2;
  }
  return perfbench::Run(args);
}
