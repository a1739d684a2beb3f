// Regenerates Fig. 6: running time (ms) of all fair algorithms on the ten
// multi-dimensional dataset/group combinations, varying solution size k.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace fairhms {
namespace {

using namespace bench;

void Panel(const DatasetCase& c, const std::vector<int>& ks) {
  const auto roster = FairRoster(/*with_intcov=*/false);
  std::vector<std::string> series;
  for (const auto& [name, runner] : roster) series.push_back(name);
  PrintHeader("Fig. 6 time (ms): " + c.name, "k", series);
  for (int k : ks) {
    const GroupBounds bounds = PaperBounds(c, k);
    std::vector<std::string> cells;
    for (const auto& [name, runner] : roster) {
      auto sol = runner(c, bounds);
      if (!sol.ok()) {
        cells.push_back("-");
        continue;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), sol->elapsed_ms >= 100 ? "%.0f" : "%.2f",
                    sol->elapsed_ms);
      cells.push_back(buf);
    }
    PrintRow(std::to_string(k), cells);
  }
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const size_t anticor_n = static_cast<size_t>(
      flags.GetInt("anticor_n", flags.Has("full") ? 10000 : 2000));
  if (!CheckFlags(flags)) return 1;

  std::printf("=== Fig. 6: running time on multi-dimensional datasets ===\n");

  for (const std::string& key : MultiDimCaseKeys()) {
    const DatasetCase c = key == "anticor"
                              ? MakeCase(key, seed, anticor_n, 6, 3)
                              : MakeCase(key, seed);
    const std::vector<int> ks = (key == "adult:gender")
                                    ? std::vector<int>{6, 8, 10, 12, 14, 16}
                                    : std::vector<int>{10, 12, 14, 16, 18, 20};
    Panel(c, ks);
  }

  std::printf("\nExpected shape (paper): G-Sphere fastest, G-Greedy/G-HS "
              "fast, BiGreedy+\nup to ~5x faster than BiGreedy, F-Greedy "
              "slowest (one LP per skyline item\nper iteration).\n");
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
