//===- Builder.h - The Native-Image build pipeline ---------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end build pipeline of the paper's Fig. 1:
///
///   points-to analysis -> compile (inline, form CUs) -> [code ordering]
///   -> run static initializers -> snapshot the heap (+ identifier
///   assignment) -> [heap ordering] -> lay out the image.
///
/// A *profiling build* (Instrumented = true) carries tracing probes (which
/// perturb inlining via code size) and keeps per-object identifiers for
/// all three strategies. An *optimizing build* consumes a code profile
/// and/or a heap profile; it recomputes identifiers for its own snapshot
/// to match against the profile, and does not store them in the image.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_CORE_BUILDER_H
#define NIMG_CORE_BUILDER_H

#include "src/image/NativeImage.h"
#include "src/ordering/ClusterLayout.h"
#include "src/ordering/Orderers.h"
#include "src/profiling/Aggregate.h"
#include "src/profiling/Analyses.h"
#include "src/runtime/ExecEngine.h"

namespace nimg {

struct BuildConfig {
  /// Build seed: permutes build-time class initialization and (with the
  /// inline fingerprint) drives PEA elision — the paper's build-to-build
  /// nondeterminism.
  uint64_t Seed = 1;
  bool Instrumented = false;

  ImageOptions Image;

  bool EnablePea = true;

  /// Structural-hash recursion bound (Sec. 7.1 uses 2).
  int StructuralMaxDepth = DefaultStructuralMaxDepth;

  /// Cluster-ordering page budget (bytes per cluster; 0 = unlimited).
  /// Consumed by collectProfiles when it derives the cluster profile from
  /// the cu-mode trace; the optimizing build just ingests the CSV.
  uint32_t ClusterPageBudget = DefaultClusterPageBudget;

  // Ordering strategies of the optimizing build.
  CodeStrategy CodeOrder = CodeStrategy::None;
  HeapStrategy HeapOrder = HeapStrategy::IncrementalId;
  bool UseHeapOrder = false;
  const CodeProfile *CodeProf = nullptr;
  const HeapProfile *HeapProf = nullptr;

  /// Fleet aggregation (--profiles a.csv,b.csv / --profile-dir): when
  /// non-null and nonempty, the members are merged (under the default
  /// MergeOptions gates, with the build's own fingerprint as the skew
  /// reference) into the code profile and CodeProf is ignored. The
  /// quarantine manifest lands on the built image's ProfileDiag.Merge; a
  /// merge that quarantines every member degrades to the default cu-order
  /// layout, never fails the build.
  const std::vector<MemberProfile> *CodeMembers = nullptr;

  /// Monotonic generation stamp collectProfiles() writes into every
  /// produced profile header (v2 cell 7); 0 = unstamped, exempt from the
  /// merge staleness gate.
  uint64_t ProfileGeneration = 0;

  /// Capture strategy of collectProfiles()/collectProfileSet()
  /// (--profile-mode): Instrumented traces every transition through an
  /// instrumented build; Sampled runs an *uninstrumented* build (the
  /// production geometry — no probe-inflated inlining) and records a
  /// periodic sample of the executing method/CU, from which cu- and
  /// method-granularity profiles are both reconstructed. Heap ordering
  /// always needs instrumentation and keeps its instrumented run.
  CaptureKind ProfileCapture = CaptureKind::Instrumented;
  /// Sampled capture only (--sample-period): model-clock instructions
  /// between samples.
  uint64_t SamplePeriod = TraceOptions::DefaultSamplePeriod;

  /// Hot/cold CU splitting (--split hotcold), orthogonal to the code
  /// strategy. Ignored for instrumented builds (the profiling build must
  /// keep the geometry the traces describe). Missing/unusable block
  /// profiles degrade every CU to unsplit with an
  /// insufficient_block_profile diagnostic; the build still succeeds.
  SplitMode Split = SplitMode::None;
  const BlockProfile *BlockProf = nullptr;
};

/// Runs the full pipeline over \p P. Asserts the program has a main
/// method; a failed build (trapping initializer) is reported through the
/// returned image's Built.Failed.
///
/// Profiles are validated before use (load error, trace mode vs. code
/// strategy, heap strategy, program fingerprint). An invalid or stale
/// profile never fails the build: the affected ordering degrades to the
/// default layout and the rejection is recorded in the returned image's
/// ProfileDiag.
NativeImage buildNativeImage(Program &P, const BuildConfig &Cfg);

/// All ordering profiles obtained from one instrumented image, plus the
/// instrumented runs' stats (the profiling-overhead experiment of
/// Sec. 7.4 reads these).
struct CollectedProfiles {
  CodeProfile Cu;
  CodeProfile Method;
  /// Call-graph cluster ordering, derived from the same cu-mode trace as
  /// Cu (no extra instrumented run); a permutation of Cu's CU set.
  CodeProfile Cluster;
  /// Per-block execution counts, derived from the same method-order trace
  /// as Method (no extra instrumented run); feeds --split hotcold.
  BlockProfile Blocks;
  HeapProfile IncrementalId;
  HeapProfile StructuralHash;
  HeapProfile HeapPath;
  RunStats CuRun;
  RunStats MethodRun;
  RunStats HeapRun;
  /// What trace salvage dropped from each instrumented run's capture.
  SalvageStats CuSalvage;
  SalvageStats MethodSalvage;
  SalvageStats HeapSalvage;
  /// Diagnostics from the cluster analysis (EmptyTransitionGraph when the
  /// cu trace carried no CU transitions and the profile degraded to plain
  /// cu ordering) plus what the greedy pass did.
  std::vector<ProfileIssue> ClusterIssues;
  ClusterStats ClusterLayoutStats;
  /// Instrumented runs re-executed because the first attempt produced an
  /// empty capture (retried once, in the memory-mapped dump mode).
  int RetriedRuns = 0;

  /// The code profile a code strategy builds from (Cu for None).
  const CodeProfile &forCode(CodeStrategy S) const {
    switch (S) {
    case CodeStrategy::MethodOrder:
      return Method;
    case CodeStrategy::Cluster:
      return Cluster;
    default:
      return Cu;
    }
  }

  const HeapProfile &forStrategy(HeapStrategy S) const {
    switch (S) {
    case HeapStrategy::IncrementalId:
      return IncrementalId;
    case HeapStrategy::StructuralHash:
      return StructuralHash;
    case HeapStrategy::HeapPath:
      return HeapPath;
    }
    return HeapPath;
  }
};

/// Builds an instrumented image from \p InstrumentedCfg and runs it once
/// with the cu, method and heap tracers attached (runImageTraced; a
/// sampled capture runs the sampler and the heap tracer separately),
/// post-processing each trace into its ordering profile. A mode whose
/// capture comes back empty is rerun alone in the memory-mapped dump mode. \p RunCfg controls workload execution (microservices
/// set StopAtFirstResponse and use the memory-mapped dump mode, Sec. 6.1).
CollectedProfiles collectProfiles(Program &P, const BuildConfig &InstrumentedCfg,
                                  const RunConfig &RunCfg);

/// Captures one cu-order member profile per named instance from a single
/// instrumented build — the fleet-side producer of the aggregation
/// pipeline. Instrumented members share one run (one cu tracer each);
/// sampled members run one by one at staggered phases. Generations are stamped monotonically from
/// InstrumentedCfg.ProfileGeneration. A duplicate instance name within
/// the set is rejected with a typed DuplicateMember member (no run is
/// spent on it) instead of silently overwriting the earlier capture;
/// \p IssuesOut (optional) collects one ProfileIssue per rejection.
std::vector<MemberProfile>
collectProfileSet(Program &P, const BuildConfig &InstrumentedCfg,
                  const RunConfig &RunCfg,
                  const std::vector<std::string> &InstanceNames,
                  std::vector<ProfileIssue> *IssuesOut = nullptr);

} // namespace nimg

#endif // NIMG_CORE_BUILDER_H
