// Regenerates Fig. 7: scalability on anti-correlated data at k = 20 —
// (a) varying dimensionality d, (b) varying group count C (d = 6),
// (c) varying cardinality n (d = 6). MHR and time per panel.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace fairhms {
namespace {

using namespace bench;

struct PanelRows {
  std::vector<std::string> xs;
  std::vector<std::vector<std::string>> mhr;
  std::vector<std::vector<std::string>> ms;
};

PanelRows Sweep(const std::vector<DatasetCase>& cases,
                const std::vector<std::string>& labels, int k,
                size_t fgreedy_pool_cap) {
  const auto roster = FairRoster(false);
  PanelRows out;
  for (size_t i = 0; i < cases.size(); ++i) {
    const DatasetCase& c = cases[i];
    const GroupBounds bounds = PaperBounds(c, k);
    std::vector<std::string> mhr_cells, ms_cells;
    for (const auto& [name, runner] : roster) {
      if (name == "F-Greedy" && c.pool.size() > fgreedy_pool_cap) {
        mhr_cells.push_back("(skip)");
        ms_cells.push_back("(skip)");
        continue;
      }
      const RunResult r = RunFair(runner, c, bounds);
      mhr_cells.push_back(FormatMhr(r));
      ms_cells.push_back(FormatMs(r));
    }
    out.xs.push_back(labels[i]);
    out.mhr.push_back(mhr_cells);
    out.ms.push_back(ms_cells);
  }
  return out;
}

void Print(const std::string& what, const PanelRows& rows,
           const std::string& xlabel) {
  const auto roster = FairRoster(false);
  std::vector<std::string> series;
  for (const auto& [name, runner] : roster) series.push_back(name);
  PrintHeader(what, xlabel, series);
  for (size_t i = 0; i < rows.xs.size(); ++i) {
    PrintRow(rows.xs[i], what.find("MHR") != std::string::npos ? rows.mhr[i]
                                                               : rows.ms[i]);
  }
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bool full = flags.Has("full");
  const size_t base_n =
      static_cast<size_t>(flags.GetInt("anticor_n", full ? 10000 : 2000));
  const int k = static_cast<int>(flags.GetInt("k", 20));
  const size_t fgreedy_cap =
      static_cast<size_t>(flags.GetInt("fgreedy_pool_cap", full ? 20000 : 6000));
  if (!CheckFlags(flags)) return 1;

  std::printf("=== Fig. 7: scalability on anti-correlated data (k = %d) ===\n",
              k);

  // (a) Vary d.
  {
    std::vector<int> ds = {2, 3, 4, 5, 6, 7, 8};
    if (full) {
      ds.push_back(10);
      ds.push_back(12);
      ds.push_back(16);
    }
    std::vector<DatasetCase> cases;
    std::vector<std::string> labels;
    for (int d : ds) {
      cases.push_back(MakeCase("anticor", seed, base_n, d, 3));
      labels.push_back(std::to_string(d));
    }
    const PanelRows rows = Sweep(cases, labels, k, fgreedy_cap);
    Print("Fig. 7(a) MHR: AntiCor vary d", rows, "d");
    Print("Fig. 7(a) time (ms): AntiCor vary d", rows, "d");
  }

  // (b) Vary C at d = 6.
  {
    const std::vector<int> cs = {2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<DatasetCase> cases;
    std::vector<std::string> labels;
    for (int c_num : cs) {
      cases.push_back(MakeCase("anticor", seed, base_n, 6, c_num));
      labels.push_back(std::to_string(c_num));
    }
    const PanelRows rows = Sweep(cases, labels, k, fgreedy_cap);
    Print("Fig. 7(b) MHR: AntiCor_6D vary C", rows, "C");
    Print("Fig. 7(b) time (ms): AntiCor_6D vary C", rows, "C");
  }

  // (c) Vary n at d = 6.
  {
    std::vector<size_t> ns = {100, 1000, 10000};
    if (full) {
      ns.push_back(100000);
      ns.push_back(1000000);
    }
    std::vector<DatasetCase> cases;
    std::vector<std::string> labels;
    for (size_t n : ns) {
      cases.push_back(MakeCase("anticor", seed, n, 6, 3));
      labels.push_back(std::to_string(n));
    }
    const PanelRows rows = Sweep(cases, labels, k, fgreedy_cap);
    Print("Fig. 7(c) MHR: AntiCor_6D vary n", rows, "n");
    Print("Fig. 7(c) time (ms): AntiCor_6D vary n", rows, "n");
  }

  std::printf("\nExpected shape (paper): MHR drops and time rises with d "
              "(curse of\ndimensionality; G-DMM exits with OOM beyond d~6); "
              "MHR drops as C grows\n(tighter constraint) while "
              "BiGreedy/BiGreedy+ widen their lead; time grows\nnear-linearly "
              "with n. (skip) marks F-Greedy runs beyond the LP budget —\n"
              "use --full to include them.\n");
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
