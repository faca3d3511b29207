//===- fig5_awfy_speedup.cpp - Reproduces the paper's Figure 5 -------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Figure 5: execution-time speedup on the 14 AWFY benchmarks (end-to-end
// time, cold page cache). Paper reference (average): cu 1.26x, method
// 1.26x, incremental id 1.07x, structural hash 1.09x, heap path 1.11x,
// cu+heap path 1.59x; minor slowdowns (0.97-0.99x) are expected only for
// heap strategies on Havlak.
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
  // Splitting rides along on every variant of the second series
  // (abl_split owns the direct split-vs-unsplit comparison; this shows
  // ordering gains survive it).
  std::vector<std::vector<BenchmarkEval>> Series = evaluateSuite(
      specsOf(Names, awfyBenchmark), {SplitMode::None, SplitMode::HotCold},
      Opts);
  const std::vector<BenchmarkEval> &Evals = Series[0];
  const std::vector<BenchmarkEval> &SplitEvals = Series[1];
  auto Speedup = [](const VariantEval &V) { return V.Speedup; };

  printHeader("Figure 5 — AWFY execution-time speedup",
              "end-to-end execution time on a cold page cache", Opts.Seeds);
  printFactorTable(Evals, Speedup);

  std::printf("\nwith --split hotcold (all images split):\n\n");
  printColumns();
  printFactorTable(SplitEvals, Speedup);

  std::printf("\nbaseline end-to-end time (model):\n");
  for (const BenchmarkEval &E : Evals)
    std::printf("  %-12s %8.2f ms  [%.2f, %.2f]\n", E.Benchmark.c_str(),
                E.Baseline.TimeNs.Mean / 1e6, E.Baseline.TimeNs.Lo / 1e6,
                E.Baseline.TimeNs.Hi / 1e6);

  bool Ok = benchjson::writeBenchJson(
      "BENCH_fig5.json", "fig5", [&](obs::JsonWriter &W) {
        W.member("seeds", uint64_t(Opts.Seeds));
        W.member("smoke", Smoke);
        W.key("benchmarks");
        W.beginArray();
        for (size_t I = 0; I < Evals.size(); ++I) {
          const BenchmarkEval &E = Evals[I];
          W.beginObject();
          W.member("name", E.Benchmark);
          W.member("baseline_time_ms", E.Baseline.TimeNs.Mean / 1e6);
          writeFactors(W, "speedups", E, Speedup);
          writeFactors(W, "speedups_split", SplitEvals[I], Speedup);
          W.endObject();
        }
        W.endArray();
        writeGeomeans(W, "geomean_speedups", Evals, Speedup);
        writeGeomeans(W, "geomean_speedups_split", SplitEvals, Speedup);
      });
  return Ok ? 0 : 1;
}
