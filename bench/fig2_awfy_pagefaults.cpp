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
  std::vector<BenchmarkEval> Evals =
      evaluateSuite(Names, /*Microservices=*/false, Opts);

  printHeader("Figure 2 — AWFY page-fault reduction",
              ".text faults for cu/method, .svm_heap faults for heap "
              "strategies, both for cu+heap path",
              Opts.Seeds);
  printFactorTable(Evals, faultFactorOf);

  // The same evaluation with hot/cold splitting enabled everywhere —
  // baseline and variants alike — so the factors isolate what ordering
  // adds on top of split images (the split-vs-unsplit axis itself is
  // abl_split's job).
  EvalOptions SplitOpts = Opts;
  SplitOpts.Build.Split = SplitMode::HotCold;
  std::vector<BenchmarkEval> SplitEvals =
      evaluateSuite(Names, /*Microservices=*/false, SplitOpts);
  std::printf("\nwith --split hotcold (all images split, same factor "
              "convention):\n\n");
  std::printf("%-12s", "benchmark");
  for (const std::string &S : strategyNames())
    std::printf(" %15s", S.c_str());
  std::printf("\n");
  printFactorTable(SplitEvals, faultFactorOf);

  std::printf("\nSec. 7.2 — accessed heap-snapshot objects (paper: ~4%% "
              "average on AWFY):\n");
  std::vector<double> Pcts;
  for (const BenchmarkEval &E : Evals) {
    std::printf("  %-12s %5.1f%% of %zu stored objects\n",
                E.Benchmark.c_str(), E.PctStoredObjectsTouched,
                E.SnapshotObjects);
    Pcts.push_back(E.PctStoredObjectsTouched);
  }
  double Sum = 0;
  for (double P : Pcts)
    Sum += P;
  std::printf("  %-12s %5.1f%%\n", "average",
              Pcts.empty() ? 0.0 : Sum / double(Pcts.size()));

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
          W.key("fault_factors");
          W.beginObject();
          for (const std::string &S : strategyNames()) {
            const VariantEval *V = E.variant(S);
            W.member(S, V ? faultFactorOf(*V) : 1.0);
          }
          W.endObject();
          W.key("fault_factors_split");
          W.beginObject();
          for (const std::string &S : strategyNames()) {
            const VariantEval *V = SplitEvals[I].variant(S);
            W.member(S, V ? faultFactorOf(*V) : 1.0);
          }
          W.endObject();
          W.member("pct_stored_objects_touched", E.PctStoredObjectsTouched);
          W.member("snapshot_objects", uint64_t(E.SnapshotObjects));
          W.endObject();
        }
        W.endArray();
        auto Geomeans = [&](const char *Key,
                            const std::vector<BenchmarkEval> &Es) {
          W.key(Key);
          W.beginObject();
          for (const std::string &S : strategyNames()) {
            std::vector<double> Fs;
            for (const BenchmarkEval &E : Es) {
              const VariantEval *V = E.variant(S);
              Fs.push_back(V ? faultFactorOf(*V) : 1.0);
            }
            W.member(S, geomean(Fs));
          }
          W.endObject();
        };
        Geomeans("geomean_fault_factors", Evals);
        Geomeans("geomean_fault_factors_split", SplitEvals);
      });
  return Ok ? 0 : 1;
}
