//===- ClusterLayout.h - C3-style call-graph cluster ordering ---*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cluster` code-ordering strategy: a deterministic C3-style greedy
/// pass over the dynamic CU transition graph (src/profiling/CallGraph.h).
/// Edges are processed by descending weight; merging appends the callee's
/// cluster after the caller's (caller precedes callee), ties broken by the
/// endpoints' first-seen order, and a cluster stops growing at a
/// page-budget knob so one hot chain cannot swallow the whole section.
/// The result is emitted as a regular cu-mode CodeProfile, so the builder
/// ingests it through the exact same CSV interchange and validation path
/// as the paper's cu/method profiles.
///
/// Degradation: an empty or malformed transition graph (no edges, wrong
/// trace mode) falls back to plain first-seen (cu) ordering and records a
/// ProfileError::EmptyTransitionGraph issue — never a failed build.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_ORDERING_CLUSTERLAYOUT_H
#define NIMG_ORDERING_CLUSTERLAYOUT_H

#include "src/compiler/Inliner.h"
#include "src/profiling/Analyses.h"
#include "src/profiling/CallGraph.h"

#include <cstdint>
#include <vector>

namespace nimg {

/// Default cluster size cap: one readahead cluster of the paging simulator
/// (4 pages x 4 KiB) — the unit the device fetches on a fault, so packing
/// beyond it buys nothing on the first touch.
inline constexpr uint32_t DefaultClusterPageBudget = 16384;

struct ClusterOptions {
  /// Maximum byte size (sum of member CU code sizes) a cluster may reach
  /// through merging. 0 means unlimited.
  uint32_t PageBudgetBytes = DefaultClusterPageBudget;
  /// Multi-size page budget (--huge-pages): number of 2 MiB huge pages the
  /// image will map at the front of `.text`. When nonzero, the solver runs
  /// a packing phase after the greedy merges: clusters are promoted into
  /// the huge region in startup (MinRank) order while they fit — a cluster
  /// too big for the remaining huge budget is deferred behind later,
  /// smaller promotions (first-fit packing, minimal internal
  /// fragmentation) and tails onto 4 KiB pages. With every executed
  /// cluster fitting the budget, the emitted order is the identity of the
  /// single-size pass.
  uint32_t HugePages = 0;
};

/// What the greedy pass did; surfaced through nimg.order.cluster.* too.
struct ClusterStats {
  size_t Nodes = 0;            ///< CU roots in the graph.
  size_t Edges = 0;            ///< Aggregated transition edges.
  size_t Merges = 0;           ///< Accepted cluster merges.
  size_t BudgetRejections = 0; ///< Merges refused by the page budget.
  size_t Clusters = 0;         ///< Final cluster count.
  bool FellBack = false;       ///< Empty graph: emitted cu ordering.
  // Multi-size packing phase (all zero when ClusterOptions::HugePages is 0).
  size_t HugePromotedClusters = 0; ///< Clusters packed into the huge region.
  size_t HugeDeferredClusters = 0; ///< Clusters too big for the remaining
                                   ///< huge budget, tailed onto 4 KiB pages.
  uint64_t HugePackedBytes = 0;    ///< Code bytes promoted into the region.
  /// Huge pages the promoted bytes actually fill (ceil). Less than the
  /// requested budget => HugeBudgetUnfillable degradation.
  uint32_t HugePagesJustified = 0;
  bool HugeBudgetUnfillable = false;
  /// Order-sensitive fold of every promotion decision; the builder mixes
  /// this into the image's DecisionFingerprint so multi-size packing is
  /// part of the build identity. 0 when the packing phase did not run.
  uint64_t PackFingerprint = 0;
};

/// Runs the greedy clustering over \p G and returns CU root methods in
/// .text placement order (a permutation of G.FirstSeen). CU byte sizes
/// come from \p CP (the profiling build's compiled program); a root
/// missing from \p CP counts as size 0. Pure and sequential — determinism
/// does not depend on the worker count.
std::vector<MethodId> clusterLayout(const CuTransitionGraph &G,
                                    const CompiledProgram &CP,
                                    const ClusterOptions &Opts,
                                    ClusterStats *Stats = nullptr);

/// Clusters the transition graph \p G and emits the ordering as a cu-mode
/// CodeProfile. An empty graph degrades to first-seen (cu) ordering,
/// appending a ProfileError::EmptyTransitionGraph issue to \p Issues.
/// \p LayoutStats reports the greedy pass (optional).
CodeProfile analyzeClusterOrder(const Program &P, const CuTransitionGraph &G,
                                const CompiledProgram &CP,
                                const ClusterOptions &Opts = {},
                                std::vector<ProfileIssue> *Issues = nullptr,
                                ClusterStats *LayoutStats = nullptr);

/// End-to-end cluster analysis: extracts the transition graph from a
/// CuOrder-mode \p Capture (analyzeCuTransitions) and clusters it as
/// above. \p Stats reports trace salvage (optional).
CodeProfile analyzeClusterOrder(const Program &P, const TraceCapture &Capture,
                                const CompiledProgram &CP,
                                const ClusterOptions &Opts = {},
                                SalvageStats *Stats = nullptr,
                                std::vector<ProfileIssue> *Issues = nullptr,
                                ClusterStats *LayoutStats = nullptr);

} // namespace nimg

#endif // NIMG_ORDERING_CLUSTERLAYOUT_H
