//===- ClusterLayout.cpp - C3-style call-graph cluster ordering -------------===//

#include "src/ordering/ClusterLayout.h"

#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"

#include <algorithm>
#include <unordered_map>

using namespace nimg;

namespace {

/// Union-find over graph nodes with the per-cluster state the greedy pass
/// needs: the member sequence (in placement order) and the byte size.
/// Sequences are intrusive singly-linked chains through NextNode — a merge
/// is one O(1) pointer splice with no per-merge allocation or element
/// copying (the old per-rep vectors re-copied every absorbed member).
struct ClusterSet {
  static constexpr size_t Npos = size_t(-1);

  explicit ClusterSet(size_t N)
      : Parent(N), Bytes(N, 0), NextNode(N, Npos), Head(N), Tail(N),
        MinRank(N) {
    for (size_t I = 0; I < N; ++I) {
      Parent[I] = I;
      Head[I] = Tail[I] = I;
      MinRank[I] = I;
    }
  }

  size_t find(size_t I) {
    while (Parent[I] != I) {
      Parent[I] = Parent[Parent[I]];
      I = Parent[I];
    }
    return I;
  }

  /// Appends cluster \p Callee after cluster \p Caller (both reps).
  void merge(size_t Caller, size_t Callee) {
    Parent[Callee] = Caller;
    Bytes[Caller] += Bytes[Callee];
    NextNode[Tail[Caller]] = Head[Callee];
    Tail[Caller] = Tail[Callee];
    MinRank[Caller] = std::min(MinRank[Caller], MinRank[Callee]);
  }

  std::vector<size_t> Parent;
  std::vector<uint64_t> Bytes;
  std::vector<size_t> NextNode; ///< Chain link; Npos terminates.
  std::vector<size_t> Head, Tail; ///< Chain ends, valid on reps only.
  std::vector<size_t> MinRank; ///< Earliest first-seen rank of any member.
};

} // namespace

std::vector<MethodId> nimg::clusterLayout(const CuTransitionGraph &G,
                                          const CompiledProgram &CP,
                                          const ClusterOptions &Opts,
                                          ClusterStats *StatsOut) {
  NIMG_SPAN("order", "clusterLayout");
  ClusterStats Stats;
  Stats.Nodes = G.FirstSeen.size();

  // Nodes are addressed by first-seen rank: the deterministic tie-break
  // key and the fallback placement order in one.
  std::unordered_map<MethodId, size_t> Rank;
  Rank.reserve(G.FirstSeen.size());
  for (size_t I = 0; I < G.FirstSeen.size(); ++I)
    Rank.emplace(G.FirstSeen[I], I);

  ClusterSet Set(G.FirstSeen.size());
  for (size_t I = 0; I < G.FirstSeen.size(); ++I) {
    MethodId Root = G.FirstSeen[I];
    int32_t Cu = size_t(Root) < CP.CuOfMethod.size()
                     ? CP.CuOfMethod[size_t(Root)]
                     : -1;
    Set.Bytes[I] = Cu >= 0 ? CP.CUs[size_t(Cu)].CodeSize : 0;
  }

  // Greedy C3: heaviest edges first; equal weights resolve by the
  // endpoints' first-seen ranks, so the pass is a pure function of the
  // graph.
  struct RankedEdge {
    uint64_t Weight;
    size_t From, To;
  };
  std::vector<RankedEdge> Edges;
  Edges.reserve(G.Edges.size());
  for (const CuTransitionGraph::Edge &E : G.Edges) {
    auto F = Rank.find(E.From), T = Rank.find(E.To);
    if (F == Rank.end() || T == Rank.end() || F->second == T->second)
      continue; // Defensive: every traced endpoint is in FirstSeen.
    Edges.push_back({E.Weight, F->second, T->second});
  }
  Stats.Edges = Edges.size();
  std::sort(Edges.begin(), Edges.end(),
            [](const RankedEdge &A, const RankedEdge &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              if (A.From != B.From)
                return A.From < B.From;
              return A.To < B.To;
            });

  for (const RankedEdge &E : Edges) {
    size_t Caller = Set.find(E.From);
    size_t Callee = Set.find(E.To);
    if (Caller == Callee)
      continue;
    if (Opts.PageBudgetBytes != 0 &&
        Set.Bytes[Caller] + Set.Bytes[Callee] > Opts.PageBudgetBytes) {
      ++Stats.BudgetRejections;
      continue;
    }
    Set.merge(Caller, Callee);
    ++Stats.Merges;
  }

  // Clusters are placed by the earliest first-seen rank of any member:
  // startup order between clusters, call-graph affinity within one.
  std::vector<size_t> Reps;
  for (size_t I = 0; I < G.FirstSeen.size(); ++I)
    if (Set.find(I) == I)
      Reps.push_back(I);
  std::sort(Reps.begin(), Reps.end(),
            [&](size_t A, size_t B) { return Set.MinRank[A] < Set.MinRank[B]; });
  Stats.Clusters = Reps.size();

  std::vector<MethodId> Order;
  Order.reserve(G.FirstSeen.size());
  for (size_t Rep : Reps)
    for (size_t Node = Set.Head[Rep]; Node != ClusterSet::Npos;
         Node = Set.NextNode[Node])
      Order.push_back(G.FirstSeen[Node]);

  NIMG_COUNTER_ADD("nimg.order.cluster.merges", Stats.Merges);
  NIMG_COUNTER_ADD("nimg.order.cluster.budget_rejections",
                   Stats.BudgetRejections);
  NIMG_COUNTER_ADD("nimg.order.cluster.clusters", Stats.Clusters);
  if (StatsOut)
    *StatsOut = Stats;
  return Order;
}

CodeProfile nimg::analyzeClusterOrder(const Program &P,
                                      const CuTransitionGraph &G,
                                      const CompiledProgram &CP,
                                      const ClusterOptions &Opts,
                                      std::vector<ProfileIssue> *Issues,
                                      ClusterStats *LayoutStats) {
  NIMG_COUNTER_ADD("nimg.order.cluster.runs", 1);
  CodeProfile Out;
  // Cluster ordering consumes the same CuOrder-mode trace as cu ordering
  // and is ingested by the builder under the same cu-mode header.
  Out.Header.Mode = TraceMode::CuOrder;

  std::vector<MethodId> Order;
  ClusterStats LStats;
  if (G.empty()) {
    // No transitions to cluster (empty capture, single CU, or a capture
    // in the wrong mode): fall back to plain first-seen order, which is
    // exactly the cu ordering, and say so through the typed diagnostic.
    Order = G.FirstSeen;
    LStats.Nodes = G.FirstSeen.size();
    LStats.Clusters = G.FirstSeen.size();
    LStats.FellBack = true;
    if (Issues)
      Issues->push_back({ProfileError::EmptyTransitionGraph, 0,
                         "transition graph has no edges; emitted cu "
                         "ordering instead"});
    NIMG_COUNTER_ADD("nimg.order.cluster.fallback", 1);
  } else {
    Order = clusterLayout(G, CP, Opts, &LStats);
  }

  Out.Sigs.reserve(Order.size());
  for (MethodId M : Order)
    Out.Sigs.push_back(P.method(M).Sig);
  if (LayoutStats)
    *LayoutStats = LStats;
  return Out;
}

CodeProfile nimg::analyzeClusterOrder(const Program &P,
                                      const TraceCapture &Capture,
                                      const CompiledProgram &CP,
                                      const ClusterOptions &Opts,
                                      SalvageStats *Stats,
                                      std::vector<ProfileIssue> *Issues,
                                      ClusterStats *LayoutStats) {
  return analyzeClusterOrder(P, analyzeCuTransitions(P, Capture, Stats), CP,
                             Opts, Issues, LayoutStats);
}
