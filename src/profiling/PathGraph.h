//===- PathGraph.h - Ball-Larus path numbering with path cutting -*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-method path numbering for the tracing profiler (Sec. 6.1). The
/// method's CFG is segmented at frame-pushing call sites (so trace records
/// of callees interleave correctly with the caller's path records) and
/// loop back edges; both are *cut* edges in the Ball-Larus sense: they are
/// replaced by a dummy edge to Exit (where the running path value is
/// emitted) and a dummy edge from Entry (where the path value restarts).
/// Every acyclic Entry-to-Exit path in the resulting DAG has a unique id.
///
/// Each path id statically determines (a) whether the path starts at the
/// method entry (a method-entry event for *method ordering*, Sec. 4.2) and
/// (b) the ordered heap-access sites it contains and therefore exactly how
/// many object-identifier operands follow the path record in the trace
/// buffer (Sec. 6.1).
///
/// When the path count of a method would exceed PathLimit, the paper's
/// path-cutting optimization kicks in: we conservatively cut *every* edge,
/// making each segment its own unit-length path. This bounds the id space
/// while keeping decoding exact.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_PATHGRAPH_H
#define NIMG_PROFILING_PATHGRAPH_H

#include "src/ir/Program.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace nimg {

/// Decoded static content of one path.
struct PathEvents {
  bool MethodEntry = false;
  /// (siteId, operand count) of heap-access sites in path order.
  std::vector<std::pair<uint32_t, uint16_t>> Sites;
  uint32_t OperandCount = 0;
  /// Basic blocks the path visits, in path order, consecutive duplicates
  /// collapsed (a block's segments are one visit). This is the per-block
  /// execution evidence the hot/cold splitter consumes (Sec. 4 extension).
  std::vector<BlockId> Blocks;
};

/// The runtime action attached to a traversed CFG edge.
struct PathEdgeAction {
  bool Cut = false;
  uint64_t Add = 0;     ///< Non-cut: add to the running path value.
  uint64_t EmitAdd = 0; ///< Cut: emit (pathVal + EmitAdd) ...
  uint64_t Reset = 0;   ///< ... then restart pathVal at Reset.
};

class PathGraph {
public:
  /// Paths per method are capped at 2^20 so a path id always fits the
  /// trace-record field.
  static constexpr uint64_t PathLimit = 1u << 20;

  static std::unique_ptr<PathGraph> build(const Program &P, MethodId M);

  uint64_t numPaths() const { return TotalPaths; }
  bool fullyCut() const { return AllCut; }

  /// Path value when the method is entered.
  uint64_t entryValue() const { return EntryVal; }

  /// Action for the terminator edge from block \p From to block \p To.
  const PathEdgeAction &branchAction(BlockId From, BlockId To) const;

  /// Action for the (always cut) call edge at \p SiteId.
  const PathEdgeAction &callAction(uint32_t SiteId) const;

  /// EmitAdd for the Ret terminator of block \p Block.
  uint64_t retEmitAdd(BlockId Block) const;

  /// Decodes a path id into its static events. Ids come from traces, so an
  /// out-of-range id returns empty events rather than asserting.
  PathEvents decode(uint64_t PathId) const;

  /// Scratch-reusing variant of decode(): clears and refills \p Events in
  /// place, so a replay loop decoding one record per trace word keeps one
  /// PathEvents instead of reallocating its vectors per record.
  void decodeInto(uint64_t PathId, PathEvents &Events) const;

private:
  PathGraph() = default;

  struct Node {
    BlockId Block;
    uint32_t SegIdx;
    /// Heap-access sites (siteId, operands) within this segment.
    std::vector<std::pair<uint32_t, uint16_t>> Sites;
    /// Outgoing edges: (head node index or -1 for Exit, value).
    std::vector<std::pair<int32_t, uint64_t>> Edges;
    uint64_t NumPaths = 0;
  };

  /// Entry's outgoing edges: (head node, value, isRealEntry).
  struct EntryEdge {
    int32_t Head;
    uint64_t Val;
    bool Real;
  };

  std::vector<Node> Nodes;
  std::vector<EntryEdge> EntryEdges;
  uint64_t TotalPaths = 0;
  uint64_t EntryVal = 0;
  bool AllCut = false;

  std::unordered_map<uint64_t, PathEdgeAction> BranchActions; // (from<<32)|to
  std::unordered_map<uint32_t, PathEdgeAction> CallActions;   // siteId
  std::unordered_map<int32_t, uint64_t> RetEmit;              // block

  friend class PathGraphBuilder;
};

/// Lazily built per-program cache of path graphs: one slot per MethodId,
/// sized on first use (a cache may be made before its program is
/// compiled) and grown when the program gains methods. The returned
/// reference stays valid for the cache's lifetime. Not thread-safe: every
/// user — one traced run, one capture's replay — owns its cache or shares
/// it on one thread.
class PathGraphCache {
public:
  explicit PathGraphCache(const Program &P) : P(P) {}

  /// Throws std::out_of_range for a method id the program does not have.
  const PathGraph &of(MethodId M) {
    if (size_t(M) >= Slots.size() && size_t(M) < P.numMethods())
      Slots.resize(P.numMethods());
    std::unique_ptr<PathGraph> &Slot = Slots.at(size_t(M));
    if (!Slot)
      Slot = PathGraph::build(P, M);
    return *Slot;
  }

private:
  const Program &P;
  std::vector<std::unique_ptr<PathGraph>> Slots;
};

} // namespace nimg

#endif // NIMG_PROFILING_PATHGRAPH_H
