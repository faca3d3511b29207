//===- Evaluation.h - Paper-evaluation measurement harness -----*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the measurement protocol of Sec. 7.1: per benchmark, collect
/// one profile, build several images per strategy (the paper builds 10;
/// the seed plays the role of build-to-build nondeterminism), run each on
/// a cold page cache, and report factors M_baseline / M_optimized with 95%
/// confidence intervals. Code strategies are scored on .text faults, heap
/// strategies on .svm_heap faults, the combined strategy on both — exactly
/// the figures' conventions. AWFY workloads measure end-to-end time;
/// microservices measure elapsed time until the first response and are
/// then killed.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_CORE_EVALUATION_H
#define NIMG_CORE_EVALUATION_H

#include "src/core/Builder.h"
#include "src/workloads/Workloads.h"

#include <string>
#include <vector>

namespace nimg {

/// One column of the paper's figures, or the baseline: a code strategy, a
/// heap strategy, or both.
struct PaperVariant {
  const char *Name;
  CodeStrategy Code;
  bool UseHeap;
  HeapStrategy Heap;
};

/// The baseline, then the seven columns of Fig. 2 in figure order.
inline constexpr PaperVariant PaperVariants[] = {
    {"baseline", CodeStrategy::None, false, HeapStrategy::HeapPath},
    {"cu", CodeStrategy::CuOrder, false, HeapStrategy::HeapPath},
    {"method", CodeStrategy::MethodOrder, false, HeapStrategy::HeapPath},
    {"cluster", CodeStrategy::Cluster, false, HeapStrategy::HeapPath},
    {"incremental id", CodeStrategy::None, true, HeapStrategy::IncrementalId},
    {"structural hash", CodeStrategy::None, true,
     HeapStrategy::StructuralHash},
    {"heap path", CodeStrategy::None, true, HeapStrategy::HeapPath},
    {"cu+heap path", CodeStrategy::CuOrder, true, HeapStrategy::HeapPath},
};

/// \p Base with \p V's orderings wired to \p Prof: the code profile of its
/// code strategy, the heap profile of its heap strategy, and the block
/// profile when \p Base asks for a split.
BuildConfig variantConfig(const PaperVariant &V, BuildConfig Base,
                          const CollectedProfiles &Prof);

struct EvalOptions {
  /// Images built per strategy (paper: 10), with build seeds 1..Seeds.
  /// Runs are deterministic given a build, so one measured run per image
  /// suffices.
  int Seeds = 3;
};

/// Mean with a 95% confidence interval over build seeds.
struct Stat {
  double Mean = 0;
  double Lo = 0;
  double Hi = 0;

  bool operator==(const Stat &) const = default;
};

Stat statOf(const std::vector<double> &Samples);

/// Measurements for one strategy (or the baseline).
struct VariantEval {
  std::string Name;
  Stat TextFaults;
  Stat HeapFaults;
  Stat TotalFaults;
  Stat TimeNs;
  // Factors versus the baseline (higher is better, Sec. 7.1).
  /// On the figures' fault axis for this variant: .text faults for a code
  /// strategy, .svm_heap faults for a heap strategy, all faults for both.
  double FaultFactor = 1.0;
  double Speedup = 1.0;

  bool operator==(const VariantEval &) const = default;
};

struct BenchmarkEval {
  std::string Benchmark;
  bool Microservice = false;
  VariantEval Baseline;
  /// The seven figure columns, in PaperVariants order.
  std::vector<VariantEval> Variants;

  /// Fraction of stored snapshot objects the baseline run touches
  /// (Sec. 7.2 reports ~4 % on AWFY).
  double PctStoredObjectsTouched = 0;
  size_t SnapshotObjects = 0;
  uint64_t ImageBytes = 0;

  /// Sec. 7.4 profiling overheads: instrumented time / baseline time.
  double CuOverhead = 1.0;
  double MethodOverhead = 1.0;
  double HeapOverhead = 1.0;

  bool operator==(const BenchmarkEval &) const = default;
};

/// Runs the full evaluation of every benchmark in \p Specs once per split
/// mode in \p Series; every image of a series, baseline included, is built
/// with that split. Each benchmark is compiled and profiled once for all
/// of its series. Benchmarks fan out over the shared pool and merge in
/// index order, so the result is the same at any worker count; progress
/// goes to stderr in index order. Returns Out[Series][Benchmark].
std::vector<std::vector<BenchmarkEval>>
evaluateSuite(const std::vector<BenchmarkSpec> &Specs,
              const std::vector<SplitMode> &Series, const EvalOptions &Opts);

/// Geometric mean (the figures' summary statistic).
double geomean(const std::vector<double> &Factors);

/// Reads NIMAGE_EVAL_SEEDS from the environment (default \p Default);
/// lets bench binaries trade precision for wall time.
int evalSeedsFromEnv(int Default);

} // namespace nimg

#endif // NIMG_CORE_EVALUATION_H
