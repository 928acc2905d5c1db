// E1 — Reproduces the paper's Table I: for every TACLe benchmark and
// initial staggering of {0, 100, 1000, 10000} nops, the number of cycles
// with zero staggering ("Zero stag") and the number of cycles SafeDM
// reports no diversity ("No div"), max over repeated runs.
//
// Expected shape (paper Section V-C): zero-staggering is infrequent, lack
// of diversity rarer still; both shrink toward zero as initial staggering
// grows; isolated benchmarks can re-synchronize (the pm timing anomaly).
//
// Every (benchmark, staggering) cell is an independent pair of MpSoc runs,
// so the whole table fans out over the bench thread pool and is printed in
// row order afterwards. The EXPERIMENTS.md E1 shape checks close the
// output, each printed as PASS or FAIL; the exit code stays 0 either way,
// so runs at larger --scale still print their table.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace safedm;
using namespace safedm::bench;

namespace {
constexpr char kUsage[] = "usage: bench_table1 [--scale=N]\n";
}

int main(int argc, char** argv) {
  unsigned scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = parse_u32("--scale", argv[i] + 8, kUsage, 1, 1024);
    } else {
      std::fprintf(stderr, "unknown option: %s\n%s", argv[i], kUsage);
      return 2;
    }
  }

  const unsigned staggers[] = {0, 100, 1000, 10000};
  std::printf("Table I: Taclebench results with different initial staggering (scale=%u, "
              "threads=%u)\n",
              scale, bench_pool().size());
  std::printf("%-16s", "Staggering");
  for (unsigned s : staggers) std::printf("| %5u nops      ", s);
  std::printf("\n%-16s", "Benchmark");
  for (unsigned i = 0; i < 4; ++i) std::printf("| ZeroStag  NoDiv ");
  std::printf("| Timeout (nops)\n");
  for (int i = 0; i < 16 + 5 * 18; ++i) std::printf("-");
  std::printf("\n");

  const auto& registry = workloads::registry();
  std::vector<assembler::Program> programs(registry.size());
  bench_pool().parallel_for(registry.size(),
                            [&](std::size_t w) { programs[w] = registry[w].build(scale); });

  // One cell per (benchmark, staggering); all independent.
  std::vector<RunOutcome> cells(registry.size() * 4);
  bench_pool().parallel_for(cells.size(), [&](std::size_t i) {
    const std::size_t w = i / 4;
    const unsigned col = static_cast<unsigned>(i % 4);
    RunSpec spec;
    spec.scale = scale;
    spec.stagger_nops = staggers[col];
    cells[i] = max_over_runs(programs[w], spec);
  });

  u64 total_zero[4] = {}, total_nodiv[4] = {}, total_instr = 0;
  for (std::size_t w = 0; w < registry.size(); ++w) {
    std::printf("%-16s", registry[w].name.c_str());
    std::string timeouts;
    for (unsigned col = 0; col < 4; ++col) {
      const RunOutcome& out = cells[w * 4 + col];
      std::printf("| %8llu %6llu ", static_cast<unsigned long long>(out.zero_stag),
                  static_cast<unsigned long long>(out.nodiv));
      total_zero[col] += out.zero_stag;
      total_nodiv[col] += out.nodiv;
      if (col == 0) total_instr += out.committed0;
      if (!out.completed) timeouts += (timeouts.empty() ? "" : ",") + std::to_string(staggers[col]);
    }
    std::printf("|%s%s\n", timeouts.empty() ? "" : " ", timeouts.c_str());
    std::fflush(stdout);
  }
  for (int i = 0; i < 16 + 5 * 18; ++i) std::printf("-");
  const double n = static_cast<double>(registry.size());
  std::printf("\n%-16s", "average");
  for (unsigned col = 0; col < 4; ++col)
    std::printf("| %8.0f %6.0f ", total_zero[col] / n, total_nodiv[col] / n);
  std::printf("\n\nAvg committed instructions per core (0-nop config): %.0f\n",
              total_instr / n);

  // EXPERIMENTS.md E1, as measured at scale 1.
  bool row_order = true, cubic_nodiv = false, prime_diverse = false;
  for (std::size_t w = 0; w < registry.size(); ++w) {
    const RunOutcome* row = &cells[w * 4];
    row_order = row_order && row[0].zero_stag >= row[0].nodiv;
    if (registry[w].name == "cubic") cubic_nodiv = row[1].nodiv > 0;
    if (registry[w].name == "prime")
      prime_diverse = row[0].nodiv == 0 && row[0].zero_stag >= 10000;
  }
  bool shrinking = true;
  for (unsigned col = 1; col < 4; ++col)
    shrinking = shrinking && total_zero[col] <= total_zero[col - 1] &&
                total_nodiv[col] <= total_nodiv[col - 1];
  const bool vanishing = total_nodiv[0] > 0 && total_zero[3] == 0 && total_nodiv[3] == 0;
  const auto check = [](bool ok, const char* what) {
    std::printf("E1 check: %-56s %s\n", what, ok ? "PASS" : "FAIL");
  };
  std::printf("\n");
  check(row_order, "zero-stag >= no-div on every row at 0 nops");
  check(shrinking, "both column averages shrink as staggering grows");
  check(vanishing, "no-div present at 0 nops; both vanish at 10000 nops");
  check(cubic_nodiv, "cubic keeps no-div cycles at 100 nops");
  check(prime_diverse, "prime at 0 nops: >= 10000 zero-stag yet 0 no-div");
  return 0;
}
