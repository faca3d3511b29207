//===- fig4_micro_speedup.cpp - Reproduces the paper's Figure 4 ------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Figure 4: execution-time speedup on the microservices, measured as the
// elapsed time until the first response (the workload is then killed,
// Sec. 7.1). Paper reference (average): cu 1.48x, method 1.17x,
// incremental id 1.02x, structural hash 1.01x, heap path 1.11x,
// cu+heap path 1.61x.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace nimg;
using namespace nimg::benchutil;

int main(int Argc, char **Argv) {
  EvalOptions Opts = defaultOptions();
  std::vector<std::string> Names = microserviceNames();
  applySmoke(smokeMode(Argc, Argv), Names, Opts, /*Keep=*/1);
  std::vector<BenchmarkEval> Evals = evaluateSuite(
      specsOf(Names, microserviceBenchmark), {SplitMode::None}, Opts)[0];

  printHeader("Figure 4 — microservice execution-time speedup",
              "time to first response on a cold page cache", Opts.Seeds);
  printFactorTable(Evals,
                   [](const VariantEval &V) { return V.Speedup; });

  std::printf("\nbaseline time to first response (model):\n");
  for (const BenchmarkEval &E : Evals)
    std::printf("  %-12s %8.2f ms  [%.2f, %.2f]\n", E.Benchmark.c_str(),
                E.Baseline.TimeNs.Mean / 1e6, E.Baseline.TimeNs.Lo / 1e6,
                E.Baseline.TimeNs.Hi / 1e6);
  return 0;
}
