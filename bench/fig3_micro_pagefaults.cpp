//===- fig3_micro_pagefaults.cpp - Reproduces the paper's Figure 3 ---------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Figure 3: page-fault reduction on the three microservice hello-world
// workloads (multi-threaded, killed after the first response; traces use
// the memory-mapped dump mode, Sec. 6.1). Paper reference (average):
// cu 2.55x, method 1.35x, incremental id 1.14x (0.99x on quarkus),
// structural hash 1.03x, heap path 1.22x, cu+heap path 1.46x; max cu
// 2.67x on micronaut, max heap path 1.26x on quarkus.
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

  printHeader("Figure 3 — microservice page-fault reduction",
              ".text faults for cu/method, .svm_heap faults for heap "
              "strategies, both for cu+heap path",
              Opts.Seeds);
  printFactorTable(Evals,
                   [](const VariantEval &V) { return V.FaultFactor; });

  std::printf("\naccessed heap-snapshot objects:\n");
  for (const BenchmarkEval &E : Evals)
    std::printf("  %-12s %5.1f%% of %zu stored objects (image %llu KiB)\n",
                E.Benchmark.c_str(), E.PctStoredObjectsTouched,
                E.SnapshotObjects,
                (unsigned long long)(E.ImageBytes / 1024));
  return 0;
}
