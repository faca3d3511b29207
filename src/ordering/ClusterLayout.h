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
/// as the paper's cu/method profiles. The order is a pure function of the
/// transition graph, the CU sizes and the page budget; a build's huge-page
/// budget is a layout-time overlay (ImageLayout.h) and never reaches it.
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
};

/// What the greedy pass did; surfaced through nimg.order.cluster.* too.
struct ClusterStats {
  size_t Nodes = 0;            ///< CU roots in the graph.
  size_t Edges = 0;            ///< Aggregated transition edges.
  size_t Merges = 0;           ///< Accepted cluster merges.
  size_t BudgetRejections = 0; ///< Merges refused by the page budget.
  size_t Clusters = 0;         ///< Final cluster count.
  bool FellBack = false;       ///< Empty graph: emitted cu ordering.

  bool operator==(const ClusterStats &) const = default;
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
