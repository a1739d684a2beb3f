// Regenerates Fig. 3: numbers of fairness violations err(S) vs k.
//
// The fairness-unaware baselines (Greedy, DMM, HS, Sphere) run in their
// original form on the global skyline; BiGreedy/BiGreedy+ run with the
// proportional constraint (alpha = 0.1). Expected shape: baselines violate
// in almost all cases, our algorithms always report 0.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace fairhms {
namespace {

using namespace bench;

void Panel(const DatasetCase& c, const std::vector<int>& ks) {
  std::vector<std::string> series = {"BiGreedy", "BiGreedy+"};
  const auto plain = PlainRoster();
  for (const auto& [name, runner] : plain) series.push_back(name);
  PrintHeader("Fig. 3 - fairness violations err(S): " + c.name, "k", series);

  const auto fair = FairRoster(/*with_intcov=*/false);
  for (int k : ks) {
    const GroupBounds bounds = PaperBounds(c, k);
    std::vector<std::string> cells;
    // BiGreedy and BiGreedy+ (fair; err must be 0).
    for (int i = 0; i < 2; ++i) {
      cells.push_back(FormatErr(RunFair(fair[static_cast<size_t>(i)].second,
                                        c, bounds)));
    }
    for (const auto& [name, runner] : plain) {
      cells.push_back(FormatErr(RunPlain(runner, c, k, bounds)));
    }
    PrintRow(std::to_string(k), cells);
  }
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const size_t anticor_n = static_cast<size_t>(
      flags.GetInt("anticor_n", flags.Has("full") ? 10000 : 3000));
  if (!CheckFlags(flags)) return 1;

  std::printf("=== Fig. 3: fairness violations of unconstrained algorithms "
              "(proportional bounds, alpha = 0.1) ===\n");

  const std::vector<int> adult_ks = {10, 12, 14, 16, 18, 20};
  const std::vector<int> wide_ks =
      flags.Has("full") ? std::vector<int>{10, 20, 30, 40, 50}
                        : std::vector<int>{10, 20, 30};

  Panel(MakeCase("adult:gender", seed), adult_ks);
  Panel(MakeCase("adult:race", seed), adult_ks);
  Panel(MakeCase("anticor", seed, anticor_n, 6, 3), wide_ks);
  Panel(MakeCase("compas:gender", seed), wide_ks);
  Panel(MakeCase("credit:job", seed), wide_ks);

  std::printf("\nExpected shape (paper): every baseline column is > 0 almost "
              "everywhere;\nBiGreedy/BiGreedy+ are identically 0.\n");
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
