//===- CallGraph.h - Dynamic CU transition graph from traces ----*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extracts a weighted dynamic call/transition graph between compilation
/// units from CuOrder-mode traces. An edge A -> B with weight W means the
/// first run transitioned from a CU rooted at A directly to a CU rooted at
/// B (temporal adjacency within one thread) W times. The graph feeds the
/// C3-style cluster orderer (src/ordering/ClusterLayout.h), which packs
/// hot caller/callee pairs onto shared pages — the layout family of BOLT
/// and Meta's function-layout work, beyond the paper's purely
/// first-execution-time cu/method strategies (Sec. 4).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_CALLGRAPH_H
#define NIMG_PROFILING_CALLGRAPH_H

#include "src/profiling/Analyses.h"
#include "src/profiling/Trace.h"
#include "src/profiling/TraceSalvage.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace nimg {

/// The weighted CU transition graph of one profiling run. Nodes are CU
/// root methods in first-entry order (threads concatenated in creation
/// order, Sec. 7.1 — identical to the cu ordering profile); edges are
/// aggregated per (From, To) pair with self-transitions dropped.
struct CuTransitionGraph {
  struct Edge {
    MethodId From = -1;
    MethodId To = -1;
    uint64_t Weight = 0;
  };
  /// CU roots in first-seen order; doubles as the cu-ordering fallback
  /// when the graph carries no edges.
  std::vector<MethodId> FirstSeen;
  std::vector<Edge> Edges;

  bool empty() const { return Edges.empty(); }
};

/// Sink accumulating first-seen order and temporal-adjacency edge weights
/// from CU-entry events. Adjacency never spans two threads: the previous
/// CU resets at every thread boundary.
class CallGraphAnalysis : public OrderingAnalysis {
public:
  void onThreadBegin() override { Prev = -1; }
  void onCuEnter(MethodId Root) override;
  /// The graph, edges sorted by (From, To).
  CuTransitionGraph finish() const;

private:
  MethodId Prev = -1;
  FirstSeenOrder<MethodId> Nodes;
  /// (From << 32 | To) -> weight. Key packing is valid because MethodId is
  /// a non-negative int32 for every decoded CU record.
  std::unordered_map<uint64_t, uint64_t> Weights;
};

/// Builds the CU transition graph from a CuOrder-mode capture through
/// replayTrace(). A capture in the wrong mode yields an empty graph (and
/// sets Stats->ModeMismatch) instead of asserting — trace files are
/// external input.
CuTransitionGraph analyzeCuTransitions(const Program &P,
                                       const TraceCapture &Capture,
                                       SalvageStats *Stats = nullptr);

} // namespace nimg

#endif // NIMG_PROFILING_CALLGRAPH_H
