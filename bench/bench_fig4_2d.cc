// Regenerates Fig. 4: MHR (a-e) and running time (f-j) on two-dimensional
// datasets — Lawschs (Gender / Race) and AntiCor_2D — versus k, C and n,
// including the unconstrained-optimum black line ("price of fairness").

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace fairhms {
namespace {

using namespace bench;

void Panel(const DatasetCase& c, const std::vector<int>& ks) {
  const auto roster = FairRoster(/*with_intcov=*/true);
  std::vector<std::string> series;
  for (const auto& [name, runner] : roster) series.push_back(name);
  series.push_back("Unconstr");

  std::vector<std::vector<RunResult>> results(ks.size());
  std::vector<double> unconstrained(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    const GroupBounds bounds = PaperBounds(c, ks[i]);
    for (const auto& [name, runner] : roster) {
      results[i].push_back(RunFair(runner, c, bounds));
    }
    unconstrained[i] = UnconstrainedReference(c, ks[i]);
  }

  PrintHeader("Fig. 4 MHR: " + c.name, "k", series);
  for (size_t i = 0; i < ks.size(); ++i) {
    std::vector<std::string> cells;
    for (const auto& r : results[i]) cells.push_back(FormatMhr(r));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", unconstrained[i]);
    cells.push_back(buf);
    PrintRow(std::to_string(ks[i]), cells);
  }

  series.pop_back();
  PrintHeader("Fig. 4 time (ms): " + c.name, "k", series);
  for (size_t i = 0; i < ks.size(); ++i) {
    std::vector<std::string> cells;
    for (const auto& r : results[i]) cells.push_back(FormatMs(r));
    PrintRow(std::to_string(ks[i]), cells);
  }
}

void VaryC(uint64_t seed, size_t n, const std::vector<int>& cs, int k) {
  const auto roster = FairRoster(true);
  std::vector<std::string> series;
  for (const auto& [name, runner] : roster) series.push_back(name);

  std::vector<std::vector<std::string>> mhr_rows, time_rows;
  for (int c_num : cs) {
    const DatasetCase c = MakeCase("anticor", seed, n, 2, c_num);
    const GroupBounds bounds = PaperBounds(c, k);
    std::vector<std::string> mhr_cells, time_cells;
    for (const auto& [name, runner] : roster) {
      const RunResult r = RunFair(runner, c, bounds);
      mhr_cells.push_back(FormatMhr(r));
      time_cells.push_back(FormatMs(r));
    }
    mhr_rows.push_back(mhr_cells);
    time_rows.push_back(time_cells);
  }
  PrintHeader("Fig. 4(d) MHR: AntiCor_2D vary C (k=5)", "C", series);
  for (size_t i = 0; i < cs.size(); ++i)
    PrintRow(std::to_string(cs[i]), mhr_rows[i]);
  PrintHeader("Fig. 4(i) time (ms): AntiCor_2D vary C (k=5)", "C", series);
  for (size_t i = 0; i < cs.size(); ++i)
    PrintRow(std::to_string(cs[i]), time_rows[i]);
}

void VaryN(uint64_t seed, const std::vector<size_t>& ns, int k) {
  const auto roster = FairRoster(true);
  std::vector<std::string> series;
  for (const auto& [name, runner] : roster) series.push_back(name);

  std::vector<std::vector<std::string>> mhr_rows, time_rows;
  for (size_t n : ns) {
    const DatasetCase c = MakeCase("anticor", seed, n, 2, 3);
    const GroupBounds bounds = PaperBounds(c, k);
    std::vector<std::string> mhr_cells, time_cells;
    for (const auto& [name, runner] : roster) {
      const RunResult r = RunFair(runner, c, bounds);
      mhr_cells.push_back(FormatMhr(r));
      time_cells.push_back(FormatMs(r));
    }
    mhr_rows.push_back(mhr_cells);
    time_rows.push_back(time_cells);
  }
  PrintHeader("Fig. 4(e) MHR: AntiCor_2D vary n (k=5)", "n", series);
  for (size_t i = 0; i < ns.size(); ++i)
    PrintRow(std::to_string(ns[i]), mhr_rows[i]);
  PrintHeader("Fig. 4(j) time (ms): AntiCor_2D vary n (k=5)", "n", series);
  for (size_t i = 0; i < ns.size(); ++i)
    PrintRow(std::to_string(ns[i]), time_rows[i]);
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bool full = flags.Has("full");
  const size_t anticor_n =
      static_cast<size_t>(flags.GetInt("anticor_n", full ? 10000 : 4000));
  if (!CheckFlags(flags)) return 1;

  std::printf("=== Fig. 4: two-dimensional datasets (IntCov exact vs "
              "approximations; proportional bounds, alpha = 0.1) ===\n");

  Panel(MakeCase("lawschs:gender", seed), {2, 3, 4, 5, 6});
  Panel(MakeCase("lawschs:race", seed), {5, 6, 7, 8, 9, 10});
  Panel(MakeCase("anticor", seed, anticor_n, 2, 3), {5, 6, 7, 8, 9, 10});
  VaryC(seed, anticor_n, {2, 3, 4, 5}, 5);
  std::vector<size_t> ns = {100, 1000, 10000, 100000};
  if (full) ns.push_back(1000000);
  VaryN(seed, ns, 5);

  std::printf("\nExpected shape (paper): IntCov attains the highest MHR "
              "(exact) but is the\nslowest; BiGreedy/BiGreedy+ beat the "
              "adapted baselines; the gap between the\nunconstrained line "
              "and IntCov (price of fairness) stays within ~0.02.\n");
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
