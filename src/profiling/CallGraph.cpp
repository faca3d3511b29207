//===- CallGraph.cpp - Dynamic CU transition graph from traces --------------===//

#include "src/profiling/CallGraph.h"

#include "src/obs/Metrics.h"

#include <algorithm>

using namespace nimg;

void CallGraphAnalysis::onCuEnter(MethodId Root) {
  Nodes.note(Root);
  // Self-transitions (a CU re-entered directly after itself) carry no
  // layout signal — the unit already shares its own pages — and would
  // otherwise dominate the weights on loop-heavy workloads.
  if (Prev != -1 && Prev != Root)
    ++Weights[(uint64_t(uint32_t(Prev)) << 32) | uint64_t(uint32_t(Root))];
  Prev = Root;
}

CuTransitionGraph CallGraphAnalysis::finish() const {
  CuTransitionGraph G;
  G.FirstSeen = Nodes.Order;
  G.Edges.reserve(Weights.size());
  for (const auto &[Key, W] : Weights) {
    CuTransitionGraph::Edge E;
    E.From = MethodId(int32_t(Key >> 32));
    E.To = MethodId(int32_t(Key & 0xffffffffu));
    E.Weight = W;
    G.Edges.push_back(E);
  }
  // The map's iteration order is unspecified; fix a deterministic edge
  // order here so every consumer sees the same graph.
  std::sort(G.Edges.begin(), G.Edges.end(),
            [](const CuTransitionGraph::Edge &A,
               const CuTransitionGraph::Edge &B) {
              if (A.From != B.From)
                return A.From < B.From;
              return A.To < B.To;
            });
  NIMG_COUNTER_ADD("nimg.order.cluster.graph_nodes", G.FirstSeen.size());
  NIMG_COUNTER_ADD("nimg.order.cluster.graph_edges", G.Edges.size());
  return G;
}

CuTransitionGraph nimg::analyzeCuTransitions(const Program &P,
                                             const TraceCapture &Capture,
                                             SalvageStats *StatsOut) {
  CallGraphAnalysis A;
  SalvageStats Stats;
  PathGraphCache Paths(P); // Unused for cu records but required by replay.
  if (captureInMode(Capture, TraceMode::CuOrder, Stats))
    replayTrace(P, Capture, Paths, {&A}, &Stats);
  if (StatsOut)
    *StatsOut = Stats;
  return A.finish();
}
