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

/// What the builds that share one build base keep for each other
/// (ImageBase::IdMemo): the snapshot entries every walk of the base shares
/// and the identity rows no layout changes. A kept row equals a fresh one:
///  - Alg. 2's root hash is a pure function of (heap, cell, MaxDepth);
///  - Alg. 3's unmasked hash of an entry (the hash it gets when it is
///    stored) is a pure function of the base and the code order the
///    snapshot was walked in: the walk passes through elided objects, so
///    the PEA fingerprint moves only which entries are masked to 0.
/// Only the entries reached from code depend on the order
/// (HeapSnapshot::CodeEntries, a few percent of them). The rest, the
/// tail, are kept once per base with their rows and Alg. 1 types; the
/// code rows of the MaxCodeOrders most recently used orders are kept,
/// keyed by the exact order. Everything is computed outside Mu and
/// published under it, the tail in one step; the rows belong to one
/// MaxDepth, and a build at another depth starts the memo over.
struct BaseIdMemo {
  /// Code orders kept: a sweep of one base walks the default, cu and method
  /// orders, plus one for a cluster order. Fixed, not a setting.
  static constexpr size_t MaxCodeOrders = 4;

  /// Unmasked Alg. 2 and Alg. 3 hashes of a run of entries.
  struct Rows {
    std::vector<uint64_t> StructuralHashes;
    std::vector<uint64_t> HeapPathHashes;
  };
  /// The entries from HeapSnapshot::CodeEntries on with no PEA applied
  /// (Elided false), which walkSnapshotPlan copies, their rows and their
  /// Alg. 1 types. A type is a dense index: each distinct 32-bit type id
  /// (a hash of the type name) has one, so a build's per-type counters are
  /// a flat array. TypeOfSlot maps the type of every cell a walk of the
  /// base reaches to its dense type, by slot: strings, then objects by
  /// class, then arrays by array type, among the NumClasses classes the
  /// program had when the tail was kept (the build heap's cells all have
  /// types that existed then; later types are never looked up).
  struct KeptTail : Rows {
    std::vector<SnapshotEntry> Entries;
    std::vector<uint32_t> Types;
    size_t NumClasses = 0;
    std::vector<uint32_t> TypeOfSlot;
    std::vector<uint32_t> TypeIds; ///< Per dense type.
  };
  struct CodeRows {
    std::vector<int32_t> CuOrder;
    std::shared_ptr<const Rows> Hashes;
  };

  /// The kept tail, or null before the base's first identity stage.
  std::shared_ptr<const KeptTail> tail() {
    std::lock_guard<std::mutex> G(Mu);
    return Tail;
  }

  std::mutex Mu;
  int MaxDepth = 0;
  std::vector<CodeRows> Orders; ///< Most recently used first.
  std::shared_ptr<const KeptTail> Tail;
};

/// Computes all three identity tables for a snapshot. Incremental ids are
/// assigned in entry (traversal) order, matching Alg. 1's "object
/// encounter order when traversing the heap object graph". With \p Memo,
/// the structural and heap-path hashes and the tail's types come from it,
/// or are computed and kept there under the code order \p Snap records
/// (HeapSnapshot::CuOrder), and the first call keeps \p Snap's tail
/// entries there too; each build masks its own elided entries and counts
/// its own ids. A memo must only ever be used with \p H and with complete
/// snapshots walked from its base's plan.
IdTable computeIdTable(const Program &P, const Heap &H,
                       const HeapSnapshot &Snap,
                       int MaxDepth = DefaultStructuralMaxDepth,
                       BaseIdMemo *Memo = nullptr);

} // namespace nimg

#endif // NIMG_ORDERING_IDSTRATEGIES_H
