// Shared infrastructure for the bench harnesses.
//
// Paper reproduction: each bench_fig*/bench_table* binary regenerates one
// table or figure of the paper: it builds the dataset cases (statistical
// replicas; load the real CSVs via data/csv.h if you have them), runs the
// algorithm roster, and prints the same rows/series the paper reports. Pass
// --full for paper-scale extremes (larger n / d); defaults keep every binary
// in the seconds-to-minutes range.
//
// Perf tracking: the speedup benches (bench_parallel_eval, bench_kernel,
// bench_session_amortization, bench_dynamic_updates, bench_snapshot,
// bench_serve, bench_planner) each print one CSV report that
// tools/bench_to_json gates and turns into a BENCH_*.json:
//
//   # bench=<name> k=v ... hardware_threads=4 simd_detected=avx2 ...
//   op,threads,ms,checksum
//   mhr_sweep,1,84.211,0.73481205...|...
//
// Column 2 is the thread or client count, or the pass number in the benches
// that compare implementations (their pass keys on the `#` line say which).
// Each checksum digests what the op produced, so identical checksums across
// column-2 values are a bit-identity check.

#ifndef FAIRHMS_BENCH_BENCH_UTIL_H_
#define FAIRHMS_BENCH_BENCH_UTIL_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "common/statusor.h"
#include "common/stopwatch.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "tools/cli_util.h"

namespace fairhms {
namespace bench {

/// Call once every flag has been read: prints the first malformed value or
/// stray positional argument, or every unknown (misspelled) flag, to stderr
/// and returns false, so a typo never silently runs the default grid.
bool CheckFlags(const cli::Flags& flags);

/// Parses `value`, the comma-separated list given to flag --`key`, into
/// positive integers; prints the bad entry and returns false on a malformed
/// one.
bool ParsePositiveInts(const std::string& key, const std::string& value,
                       std::vector<int>* out);

/// One benchmark instance: normalized data + grouping + labels.
struct DatasetCase {
  std::string name;      ///< Display name, e.g. "Adult (Gender)".
  Dataset data{1};       ///< ScaledByMax-normalized numeric attributes.
  Grouping grouping;
  std::vector<int> skyline;  ///< Global skyline (evaluation denominators).
  std::vector<int> pool;     ///< Fair candidate pool (per-group skylines).
};

/// Builds a dataset case by key:
///   lawschs:gender lawschs:race adult:gender adult:race adult:g+r
///   compas:gender compas:isRecid compas:g+ir
///   credit:job credit:housing credit:wy
///   anticor (uses n/d/c arguments)
/// Replica sizes follow Table 2 unless `n_override` > 0.
DatasetCase MakeCase(const std::string& key, uint64_t seed = 42,
                     size_t n_override = 0, int anticor_d = 6,
                     int anticor_c = 3);

/// The ten dataset/group combinations of Figs. 5, 6, 8-11.
std::vector<std::string> MultiDimCaseKeys();

/// Result row of one algorithm run.
struct RunResult {
  bool ok = false;
  double mhr = 0.0;
  double ms = 0.0;
  int violations = 0;
  std::string note;  ///< Failure reason for skipped bars ("k<d", "OOM"...).
};

/// A fair algorithm: solves FairHMS on the case under the bounds.
using FairRunner =
    std::function<StatusOr<Solution>(const DatasetCase&, const GroupBounds&)>;

/// An unconstrained HMS baseline: solves on the case's global skyline.
using PlainRunner =
    std::function<StatusOr<Solution>(const DatasetCase&, int k)>;

/// The paper's fair roster (Figs. 4-7): BiGreedy, BiGreedy+, F-Greedy,
/// G-Greedy, G-DMM, G-HS, G-Sphere; IntCov included when `with_intcov`.
std::vector<std::pair<std::string, FairRunner>> FairRoster(bool with_intcov);

/// The unconstrained roster of Fig. 3: Greedy, DMM, HS, Sphere.
std::vector<std::pair<std::string, PlainRunner>> PlainRoster();

/// Runs a fair algorithm and evaluates its solution with the reference
/// evaluator (exact 2D / exact LP / high-resolution net as appropriate).
RunResult RunFair(const FairRunner& runner, const DatasetCase& c,
                  const GroupBounds& bounds);

/// Runs an unconstrained baseline; violations are measured against `bounds`.
RunResult RunPlain(const PlainRunner& runner, const DatasetCase& c, int k,
                   const GroupBounds& bounds);

/// Unconstrained reference MHR ("price of fairness" black line): exact via
/// IntCov for d = 2, best-of-roster otherwise.
double UnconstrainedReference(const DatasetCase& c, int k);

/// Reference mhr of a solution (exact when affordable).
double ReferenceMhr(const DatasetCase& c, const std::vector<int>& rows);

/// Proportional bounds with alpha = 0.1 (the paper's default).
GroupBounds PaperBounds(const DatasetCase& c, int k);

/// Prints a table header / row with fixed-width columns.
void PrintHeader(const std::string& title, const std::string& xlabel,
                 const std::vector<std::string>& series);
void PrintRow(const std::string& x, const std::vector<std::string>& cells);

/// Formats a RunResult metric ("-" for failures with the note appended).
std::string FormatMhr(const RunResult& r);
std::string FormatMs(const RunResult& r);
std::string FormatErr(const RunResult& r);

// ---------------------------------------------------------------------------
// Perf-CSV plumbing (see the file comment).

/// Serial, order-fixed digest of a value sequence: bit-identical values
/// digest to the same string however they were computed, and the
/// position-weighted companion sum catches reorderings.
std::string Digest(const double* values, size_t count);
std::string Digest(const std::vector<double>& values);

/// Order-insensitive FNV-1a digest of a set of lines ("<count>|<hash>"):
/// the lines are sorted first, so any interleaving digests identically.
std::string DigestLines(std::vector<std::string> lines);

/// Appends one solver result to a digest stream: the selected rows, the
/// solver's mhr, the reference mhr when given, and the violation count.
void FoldResult(const SolverResult& result, std::vector<double>* digest,
                std::optional<double> reference_mhr = std::nullopt);

/// Best-of-reps wall clock: bracket the timed region of every rep with
/// Start() and Stop(); best_ms() is the fastest rep.
class BestOfReps {
 public:
  void Start() { watch_.Reset(); }
  void Stop();
  double best_ms() const { return best_ms_; }

 private:
  Stopwatch watch_;
  double best_ms_ = -1.0;
};

/// Bench-specific `key=value` pairs of a report's config line, in order.
using ConfigEntries = std::vector<std::pair<std::string, std::string>>;

/// Prints the report head: `# bench=<name> k=v ...` followed by the host
/// keys (hardware_threads, simd_detected, simd_active, compiler,
/// build_type), then the `op,threads,ms,checksum` column header.
void PrintReportHead(const std::string& name, const ConfigEntries& config);

/// Prints one data row of the report and flushes it.
void PrintResult(const std::string& op, int threads, double ms,
                 const std::string& checksum);

}  // namespace bench
}  // namespace fairhms

#endif  // FAIRHMS_BENCH_BENCH_UTIL_H_
