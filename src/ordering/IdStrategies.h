//===- IdStrategies.h - Object-identity strategies (Alg. 1-3) --*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three 64-bit object-identity strategies of Sec. 5, used to match
/// heap-snapshot objects between the profiling build and the optimized
/// build:
///
///  - *incremental id* (Alg. 1): per-type counters in encounter order;
///    the high 32 bits identify the type, the low 32 bits count instances
///    of that type, so divergence only perturbs ids within one type.
///  - *structural hash* (Alg. 2): MurmurHash3 over a recursive,
///    depth-bounded byte encoding of the object's type, fields, and
///    neighbours (MAX_DEPTH trades collisions against cross-build
///    matchability; the paper settles on 2).
///  - *heap path* (Alg. 3): MurmurHash3 over the first path from a heap
///    root to the object plus the root's heap-inclusion reason; interned
///    strings hash their contents instead.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_ORDERING_IDSTRATEGIES_H
#define NIMG_ORDERING_IDSTRATEGIES_H

#include "src/heap/Snapshot.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace nimg {

enum class HeapStrategy : uint8_t { IncrementalId, StructuralHash, HeapPath };

const char *heapStrategyName(HeapStrategy S);

/// Default MAX_DEPTH for the structural hash (Sec. 7.1: "we set MAX_DEPTH
/// to 2, experimentally determined as a good trade-off").
inline constexpr int DefaultStructuralMaxDepth = 2;

/// Identity tables for every snapshot entry (elided entries get id 0: they
/// are not stored in the image and are never matched).
struct IdTable {
  std::vector<uint64_t> IncrementalIds;
  std::vector<uint64_t> StructuralHashes;
  std::vector<uint64_t> HeapPathHashes;

  const std::vector<uint64_t> &of(HeapStrategy S) const {
    switch (S) {
    case HeapStrategy::IncrementalId:
      return IncrementalIds;
    case HeapStrategy::StructuralHash:
      return StructuralHashes;
    case HeapStrategy::HeapPath:
      return HeapPathHashes;
    }
    return IncrementalIds;
  }
};

/// Computes Alg. 2's structural hash of one cell.
uint64_t structuralHashOf(const Program &P, const Heap &H, CellIdx Cell,
                          int MaxDepth = DefaultStructuralMaxDepth);

/// Computes Alg. 3's heap-path hash of one snapshot entry.
uint64_t heapPathHashOf(const Program &P, const Heap &H,
                        const HeapSnapshot &Snap, int32_t EntryIdx);

/// The identity rows of one build base that no layout moves
/// (ImageBase::IdRows), computed once when the base is made and immutable
/// after. Each equals what a memo-free computeIdTable gives an entry when
/// it is stored:
///  - Alg. 2's root hash is a pure function of (heap, cell, MaxDepth), and
///    the base key includes MaxDepth;
///  - Alg. 1's type is one per cell;
///  - Alg. 3's unmasked hash of a tail entry is the same in every walk: the
///    walk passes through elided objects, so the PEA fingerprint moves only
///    which entries are masked to 0.
struct BaseIdRows {
  /// Alg. 2 hash per cell of the build heap (0 for cells no walk reaches).
  std::vector<uint64_t> StructuralHashes;
  /// Alg. 1 type per cell, as a dense index: each distinct 32-bit type id
  /// (a hash of the type name) has one, so a build's per-type counters are
  /// a flat array.
  std::vector<uint32_t> Types;
  std::vector<uint32_t> TypeIds; ///< 32-bit type id per dense type.
  /// Unmasked Alg. 3 hash per tail entry (SnapshotPlan::Tail).
  std::vector<uint64_t> TailHeapPaths;
};

/// Computes the identity rows of \p Plan's base at \p MaxDepth.
BaseIdRows computeBaseIds(const Program &P, const Heap &H,
                          const SnapshotPlan &Plan, int MaxDepth);

/// The unmasked Alg. 3 hashes of the entries reached from code: the one
/// part of a base's identity rows its code order moves, kept per exact
/// order (ImageBase::CodePaths). Alg. 3 does not read MaxDepth.
struct CodePathMemo {
  /// Code orders kept: a sweep of one base walks the default, cu and method
  /// orders, plus one for a cluster order. Fixed, not a setting.
  static constexpr size_t MaxCodeOrders = 4;

  using Rows = std::shared_ptr<const std::vector<uint64_t>>;
  struct Kept {
    std::vector<int32_t> CuOrder;
    Rows Hashes;
  };

  /// The rows of \p Snap's entries [0, CodeEntries), kept under the code
  /// order the snapshot records (HeapSnapshot::CuOrder), or computed
  /// outside Mu and kept under it: threads racing on one order compute
  /// equal rows, and the first to publish wins. \p Snap must be a walk of
  /// the memo's base over \p H.
  Rows rowsOf(const Program &P, const Heap &H, const HeapSnapshot &Snap);

  std::mutex Mu;
  std::vector<Kept> Orders; ///< Most recently used first.
};

/// The identity tables of \p Snap, a walk of its base's plan, from the
/// base's rows and the code rows of its order (CodePathMemo::rowsOf): one
/// pass that skips elided entries (id 0), counts Alg. 1 ids in entry order
/// with flat per-type counters and takes every hash from the rows. Equals
/// computeIdTable at the depth \p Rows were computed at.
IdTable idTableFromBase(const HeapSnapshot &Snap, const BaseIdRows &Rows,
                        const std::vector<uint64_t> &CodeHeapPaths);

/// Computes all three identity tables for a snapshot from scratch.
/// Incremental ids are assigned in entry (traversal) order, matching
/// Alg. 1's "object encounter order when traversing the heap object
/// graph". The reference for idTableFromBase.
IdTable computeIdTable(const Program &P, const Heap &H,
                       const HeapSnapshot &Snap,
                       int MaxDepth = DefaultStructuralMaxDepth);

} // namespace nimg

#endif // NIMG_ORDERING_IDSTRATEGIES_H
