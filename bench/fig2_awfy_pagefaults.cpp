//===- fig2_awfy_pagefaults.cpp - Reproduces the paper's Figure 2 ----------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Figure 2: page-fault reduction achieved by the proposed ordering
// strategies on the 14 AWFY benchmarks, cold page cache, per-section fault
// counting. Paper reference (geomean): cu 1.58x, method 1.52x,
// incremental id 1.30x, structural hash 1.40x, heap path 1.41x,
// cu+heap path 1.65x; max cu 1.66x (Mandelbrot, Towers), max heap path
// 1.48x (Storage). Also prints the Sec. 7.2 claim that only a small
// percentage of heap-snapshot objects is accessed (paper: ~4 % on AWFY).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

using namespace nimg;
using namespace nimg::benchutil;

int main(int Argc, char **Argv) {
  bool Smoke = smokeMode(Argc, Argv);
  EvalOptions Opts = defaultOptions();
  std::vector<std::string> Names = awfyBenchmarkNames();
  applySmoke(Smoke, Names, Opts);
  // The same evaluation with hot/cold splitting enabled everywhere —
  // baseline and variants alike — so the split factors isolate what
  // ordering adds on top of split images (the split-vs-unsplit axis itself
  // is abl_split's job).
  std::vector<std::vector<BenchmarkEval>> Series = evaluateSuite(
      specsOf(Names, awfyBenchmark), {SplitMode::None, SplitMode::HotCold},
      Opts);
  const std::vector<BenchmarkEval> &Evals = Series[0];
  const std::vector<BenchmarkEval> &SplitEvals = Series[1];
  auto FaultFactor = [](const VariantEval &V) { return V.FaultFactor; };

  printHeader("Figure 2 — AWFY page-fault reduction",
              ".text faults for cu/method, .svm_heap faults for heap "
              "strategies, both for cu+heap path",
              Opts.Seeds);
  printFactorTable(Evals, FaultFactor);

  std::printf("\nwith --split hotcold (all images split, same factor "
              "convention):\n\n");
  printColumns();
  printFactorTable(SplitEvals, FaultFactor);

  std::printf("\nSec. 7.2 — accessed heap-snapshot objects (paper: ~4%% "
              "average on AWFY):\n");
  double Sum = 0;
  for (const BenchmarkEval &E : Evals) {
    std::printf("  %-12s %5.1f%% of %zu stored objects\n",
                E.Benchmark.c_str(), E.PctStoredObjectsTouched,
                E.SnapshotObjects);
    Sum += E.PctStoredObjectsTouched;
  }
  std::printf("  %-12s %5.1f%%\n", "average",
              Evals.empty() ? 0.0 : Sum / double(Evals.size()));

  bool Ok = benchjson::writeBenchJson(
      "BENCH_fig2.json", "fig2", [&](obs::JsonWriter &W) {
        W.member("seeds", uint64_t(Opts.Seeds));
        W.member("smoke", Smoke);
        W.key("benchmarks");
        W.beginArray();
        for (size_t I = 0; I < Evals.size(); ++I) {
          const BenchmarkEval &E = Evals[I];
          W.beginObject();
          W.member("name", E.Benchmark);
          writeFactors(W, "fault_factors", E, FaultFactor);
          writeFactors(W, "fault_factors_split", SplitEvals[I], FaultFactor);
          W.member("pct_stored_objects_touched", E.PctStoredObjectsTouched);
          W.member("snapshot_objects", uint64_t(E.SnapshotObjects));
          W.endObject();
        }
        W.endArray();
        writeGeomeans(W, "geomean_fault_factors", Evals, FaultFactor);
        writeGeomeans(W, "geomean_fault_factors_split", SplitEvals,
                      FaultFactor);
      });
  return Ok ? 0 : 1;
}
