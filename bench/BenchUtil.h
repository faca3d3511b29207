//===- BenchUtil.h - Shared helpers for the figure harnesses ----*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table printing and JSON helpers shared by the per-figure bench
/// binaries. Each binary regenerates one table/figure of the paper's
/// evaluation (Sec. 7); set NIMAGE_EVAL_SEEDS to trade precision for wall
/// time (default 3 builds per strategy; the paper uses 10).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_BENCH_BENCHUTIL_H
#define NIMG_BENCH_BENCHUTIL_H

#include "src/core/Evaluation.h"
#include "src/obs/Json.h"

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

namespace nimg {
namespace benchutil {

/// True when the driver was invoked with `--smoke`: the bench-smoke ctest
/// label runs every driver this way — a tiny configuration that exercises
/// the full code path and the BENCH_*.json emission, not a measurement.
inline bool smokeMode(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      return true;
  return false;
}

/// Shrinks a suite run to smoke size: the first \p Keep workloads, one
/// seed per strategy.
inline void applySmoke(bool Smoke, std::vector<std::string> &Names,
                       EvalOptions &Opts, size_t Keep = 2) {
  if (!Smoke)
    return;
  if (Names.size() > Keep)
    Names.resize(Keep);
  Opts.Seeds = 1;
}

inline EvalOptions defaultOptions() {
  EvalOptions Opts;
  Opts.Seeds = evalSeedsFromEnv(3);
  return Opts;
}

/// The specs of \p Names, made by \p Make (awfyBenchmark or
/// microserviceBenchmark).
inline std::vector<BenchmarkSpec>
specsOf(const std::vector<std::string> &Names,
        BenchmarkSpec (*Make)(const std::string &)) {
  std::vector<BenchmarkSpec> Specs;
  for (const std::string &Name : Names)
    Specs.push_back(Make(Name));
  return Specs;
}

/// Prints the figure's column names: every paper variant but the baseline.
inline void printColumns() {
  std::printf("%-12s", "benchmark");
  for (size_t V = 1; V < std::size(PaperVariants); ++V)
    std::printf(" %15s", PaperVariants[V].Name);
  std::printf("\n");
}

inline void printHeader(const char *Title, const char *Metric, int Seeds) {
  std::printf("%s\n", Title);
  std::printf("metric: %s; %d image builds per strategy; factors are "
              "M_baseline / M_optimized (higher is better)\n\n",
              Metric, Seeds);
  printColumns();
}

/// One row per benchmark of \p Factor over its variants, then the geomean
/// row.
template <typename FactorFn>
inline void printFactorTable(const std::vector<BenchmarkEval> &Evals,
                             FactorFn Factor) {
  std::vector<std::vector<double>> PerStrategy(std::size(PaperVariants) - 1);
  for (const BenchmarkEval &E : Evals) {
    std::printf("%-12s", E.Benchmark.c_str());
    for (size_t S = 0; S < E.Variants.size(); ++S) {
      double F = Factor(E.Variants[S]);
      PerStrategy[S].push_back(F);
      std::printf(" %15.2f", F);
    }
    std::printf("\n");
  }
  std::printf("%-12s", "geomean");
  for (const std::vector<double> &Fs : PerStrategy)
    std::printf(" %15.2f", geomean(Fs));
  std::printf("\n");
}

/// Writes {variant name: Factor(variant)} for one benchmark.
template <typename FactorFn>
inline void writeFactors(obs::JsonWriter &W, const char *Key,
                         const BenchmarkEval &E, FactorFn Factor) {
  W.key(Key);
  W.beginObject();
  for (const VariantEval &V : E.Variants)
    W.member(V.Name, Factor(V));
  W.endObject();
}

/// Writes {variant name: geomean of Factor(variant) over \p Evals}.
template <typename FactorFn>
inline void writeGeomeans(obs::JsonWriter &W, const char *Key,
                          const std::vector<BenchmarkEval> &Evals,
                          FactorFn Factor) {
  W.key(Key);
  W.beginObject();
  for (size_t S = 1; S < std::size(PaperVariants); ++S) {
    std::vector<double> Fs;
    for (const BenchmarkEval &E : Evals)
      Fs.push_back(Factor(E.Variants[S - 1]));
    W.member(PaperVariants[S].Name, geomean(Fs));
  }
  W.endObject();
}

} // namespace benchutil
} // namespace nimg

#endif // NIMG_BENCH_BENCHUTIL_H
