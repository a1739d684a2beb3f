// Workload generation and serving set-up for the end-to-end benchmark.
//
// A workload is a pure function of (workload, seed): the datasets, the
// warm-up lines and the timed lines are all derived from the seed, and the
// program under test only ever sees the generated request lines.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/server.h"
#include "api/service.h"
#include "common/statusor.h"

namespace perfbench {

enum class Workload { kColdSweep, kServeOpen, kServeWarm, kUpdateMixed };

fairhms::StatusOr<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

/// Fixed shape of one workload.
struct Spec {
  Workload workload = Workload::kColdSweep;
  bool open_loop = false;
  int connections = 1;
  /// Open loop: arrival rate (lines/s) of the seeded schedule.
  double rate_per_s = 0.0;
  /// Latency limit for slo_attainment.
  double slo_ms = 0.0;
  /// Percentile reported as *_tail_ms when the sample supports it.
  double tail_pct = 90.0;
  /// Number of independent set-ups whose median is setup_s.
  int setups = 3;
};

Spec SpecFor(Workload w);

enum class LineKind { kQuery, kInsert, kDelete };

struct Line {
  std::string id;
  std::string text;  ///< The request line, without a trailing newline.
  std::string key;   ///< text minus its id: equal keys ask the same thing.
  LineKind kind = LineKind::kQuery;
  int conn = 0;        ///< Connection that sends it.
  double due_ms = 0.0; ///< Open loop: offset from the start of the phase.
  /// Closed loop: pause between the previous response on this connection
  /// and sending this line.
  double think_ms = 0.0;
  std::string dataset;
  std::string algorithm;
  int k = 0;
  uint64_t seed = 0;  ///< Query lines: the request's seed.
  int threads = 1;
  /// update_mixed deletes: index into the rows the warm-up returned.
  int delete_slot = -1;
};

struct Lines {
  std::vector<Line> warmup;  ///< Served serially in-process during set-up.
  std::vector<Line> timed;   ///< Served over TCP in the timed phase.
};

/// The generated lines; deletes are still unbound (see BindDeletes).
Lines GenerateLines(Workload w, uint64_t seed);

/// Binds each delete to a row the warm-up responses returned; deletes
/// beyond the last such row are dropped.
void BindDeletes(const std::vector<int>& returned_rows, std::vector<Line>* lines);

/// One serving stack: catalog, service and (optionally) the TCP server.
struct Env {
  std::unique_ptr<fairhms::DatasetCatalog> catalog;
  std::unique_ptr<fairhms::ProtocolService> service;
  std::unique_ptr<fairhms::Server> server;
  std::vector<std::string> warmup_responses;
  /// Rows the warm-up queries returned, first occurrence order.
  std::vector<int> returned_rows;
  double register_ms = 0.0;       ///< DatasetCatalog::Register, summed.
  double snapshot_load_ms = 0.0;  ///< DatasetCatalog::Load (update_mixed).
};

/// Builds the workload's datasets, registers them (update_mixed: writes a
/// snapshot under `work_dir` and loads it), runs the warm-up lines through
/// HandleLine, and starts a TCP server on an ephemeral loopback port when
/// `with_server`.
fairhms::StatusOr<std::unique_ptr<Env>> SetUp(Workload w, uint64_t seed,
                                              const Lines& lines,
                                              const std::string& work_dir,
                                              bool with_server);

/// The service options every environment uses (envelope v1 with seq).
fairhms::ServiceOptions BenchServiceOptions(uint64_t seed);

/// Builds the workload's primary dataset exactly as SetUp registers it
/// (used by the per-layer probes).
fairhms::Dataset PrimaryDataset(Workload w);
const char* PrimaryDatasetName(Workload w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
