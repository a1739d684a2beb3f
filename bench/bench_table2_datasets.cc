// Regenerates Table 2: statistics of the experiment datasets — d, n, C and
// "#skylines" (the summed sizes of the per-group skylines that form the
// fair candidate pool).

#include <cstdio>

#include "bench/bench_util.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

using bench::DatasetCase;
using bench::MakeCase;

void Row(const DatasetCase& c, const char* dataset, const char* group) {
  size_t summed = 0;
  for (const auto& sky : ComputeGroupSkylines(c.data, c.grouping)) {
    summed += sky.size();
  }
  std::printf("%-16s %-10s %3d %9zu %4d %10zu\n", dataset, group,
              c.data.dim(), c.data.size(), c.grouping.num_groups, summed);
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const size_t anticor_n =
      static_cast<size_t>(flags.GetInt("anticor_n", flags.Has("full") ? 10000 : 4000));
  if (!bench::CheckFlags(flags)) return 1;

  std::printf("=== Table 2: Statistics of datasets (replica defaults) ===\n");
  std::printf("%-16s %-10s %3s %9s %4s %10s\n", "Dataset", "Group", "d", "n",
              "C", "#skylines");

  for (int d : {2, 6}) {
    for (int c_num : {3}) {
      Row(MakeCase("anticor", seed, anticor_n, d, c_num), "Anti-Correlated",
          "sum-rank");
    }
  }
  Row(MakeCase("lawschs:gender", seed), "Lawschs", "Gender");
  Row(MakeCase("lawschs:race", seed), "Lawschs", "Race");
  Row(MakeCase("adult:gender", seed), "Adult", "Gender");
  Row(MakeCase("adult:race", seed), "Adult", "Race");
  Row(MakeCase("adult:g+r", seed), "Adult", "G+R");
  Row(MakeCase("compas:gender", seed), "Compas", "Gender");
  Row(MakeCase("compas:isRecid", seed), "Compas", "isRecid");
  Row(MakeCase("compas:g+ir", seed), "Compas", "G+iR");
  Row(MakeCase("credit:housing", seed), "Credit", "Housing");
  Row(MakeCase("credit:job", seed), "Credit", "Job");
  Row(MakeCase("credit:wy", seed), "Credit", "WorkingYears");

  std::printf(
      "\nPaper reference (real files): Lawschs 19/42, Adult 130/206/339,\n"
      "Compas 195/229/296, Credit 120/126/185 summed group skylines;\n"
      "anti-correlated 0.9n-n. The replicas reproduce these scales.\n");
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
