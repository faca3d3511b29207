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
  std::vector<BenchmarkEval> Evals =
      evaluateSuite(Names, /*Microservices=*/false, Opts);

  printHeader("Figure 5 — AWFY execution-time speedup",
              "end-to-end execution time on a cold page cache", Opts.Seeds);
  printFactorTable(Evals,
                   [](const VariantEval &V) { return V.Speedup; });

  // Splitting rides along on every variant (abl_split owns the direct
  // split-vs-unsplit comparison; this shows ordering gains survive it).
  EvalOptions SplitOpts = Opts;
  SplitOpts.Build.Split = SplitMode::HotCold;
  std::vector<BenchmarkEval> SplitEvals =
      evaluateSuite(Names, /*Microservices=*/false, SplitOpts);
  std::printf("\nwith --split hotcold (all images split):\n\n");
  std::printf("%-12s", "benchmark");
  for (const std::string &S : strategyNames())
    std::printf(" %15s", S.c_str());
  std::printf("\n");
  printFactorTable(SplitEvals,
                   [](const VariantEval &V) { return V.Speedup; });

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
          W.key("speedups");
          W.beginObject();
          for (const std::string &S : strategyNames()) {
            const VariantEval *V = E.variant(S);
            W.member(S, V ? V->Speedup : 1.0);
          }
          W.endObject();
          W.key("speedups_split");
          W.beginObject();
          for (const std::string &S : strategyNames()) {
            const VariantEval *V = SplitEvals[I].variant(S);
            W.member(S, V ? V->Speedup : 1.0);
          }
          W.endObject();
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
              Fs.push_back(V ? V->Speedup : 1.0);
            }
            W.member(S, geomean(Fs));
          }
          W.endObject();
        };
        Geomeans("geomean_speedups", Evals);
        Geomeans("geomean_speedups_split", SplitEvals);
      });
  return Ok ? 0 : 1;
}
