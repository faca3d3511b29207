//===- Snapshot.h - Heap-snapshot construction ------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the heap snapshot stored in the image's .svm_heap section by
/// traversing the build heap "in a well-defined order, starting from the
/// required static fields of the reachable classes, as well as constants in
/// the code section" (Sec. 2). Each object records its heap-inclusion
/// reason and the first path that reached it — the inputs of the heap-path
/// identity strategy (Sec. 5.3, Alg. 3).
///
/// A PEA-style pass elides eligible objects from the snapshot: in the real
/// system, different inlining enables partial escape analysis to
/// scalar-replace or constant-fold objects so they need not be stored
/// (Sec. 2). Elision decisions key off the build's inline fingerprint, so
/// the instrumented and optimized snapshots legitimately differ — the
/// object-matching problem the paper's Sec. 5 exists to solve.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_HEAP_SNAPSHOT_H
#define NIMG_HEAP_SNAPSHOT_H

#include "src/compiler/Inliner.h"
#include "src/heap/BuildHeap.h"
#include "src/heap/Heap.h"

#include <bit>
#include <string>
#include <string_view>
#include <vector>

namespace nimg {

/// Why a root object was included in the heap snapshot (Sec. 5.3 lists
/// exactly these five reasons).
enum class InclusionReasonKind : uint8_t {
  StaticField,    ///< Stored in a static field of a reachable class.
  Method,         ///< Referenced by a constant pointer embedded in a method.
  InternedString, ///< A Java-style interned string.
  DataSection,    ///< Stored in the data section (class metadata).
  Resource,       ///< An embedded resource.
};

struct InclusionReason {
  InclusionReasonKind Kind = InclusionReasonKind::DataSection;
  std::string Detail; ///< Field/method signature or resource name.

  /// Renders the reason as the string Alg. 3 hashes: prefix(), then
  /// detail().
  std::string str() const;
  /// The kind's name, with the ':' before the detail for kinds that have
  /// one.
  std::string_view prefix() const;
  /// Detail for kinds that have one (field, method, resource), else empty.
  std::string_view detail() const;
};

/// One object in the snapshot traversal.
struct SnapshotEntry {
  CellIdx Cell = -1;
  uint32_t SizeBytes = 0;
  bool IsRoot = false;
  InclusionReason Reason; ///< Valid when IsRoot.
  /// First path that reached the object (BFS parent); -1 for roots.
  int32_t ParentEntry = -1;
  /// Slot in the parent through which this object was first reached:
  /// a field layout index (object parent) or element index (array parent).
  int32_t ParentSlot = -1;
  /// True when the PEA-style pass removed the object from the stored
  /// snapshot (it is materialized at run time instead and costs no I/O).
  bool Elided = false;
};

struct HeapSnapshot {
  /// Entries in traversal (default placement) order.
  std::vector<SnapshotEntry> Entries;
  /// Cell -> entry index, dense over the build heap's cells (-1: the cell
  /// is not in the snapshot). Cells beyond the table (allocated at run
  /// time) are never in it.
  std::vector<int32_t> EntryOfCell;
  /// The code order the snapshot was walked in (SnapshotConfig::CuOrder).
  /// With the build base it determines the entries, first paths and
  /// reasons, so it keys what a base keeps of them (BaseIdMemo).
  std::vector<int32_t> CuOrder;
  /// Entries [0, CodeEntries) were reached from constants in code. The
  /// rest are the same, entry for entry, in every walk of one base: by the
  /// time the walk leaves the code roots it has reached the same cells
  /// whatever their order, and the other roots come in a fixed order.
  /// CuOrder and CodeEntries are not stored in the image: a loaded
  /// snapshot leaves them empty.
  uint32_t CodeEntries = 0;

  int32_t entryOf(CellIdx Cell) const {
    return Cell >= 0 && size_t(Cell) < EntryOfCell.size()
               ? EntryOfCell[size_t(Cell)]
               : -1;
  }
  size_t numStored() const;
  uint64_t storedBytes() const;
};

struct SnapshotConfig {
  /// When set, elide roughly one in four eligible objects.
  bool EnablePea = true;
  /// Seeds elision decisions; derived from the build's inline fingerprint
  /// and build seed so snapshots differ across builds.
  uint64_t PeaFingerprint = 0;
  /// Placement order of CUs in .text (indices into CompiledProgram::CUs);
  /// empty means the default order. The traversal enumerates code-constant
  /// roots in this order, because "objects are ordered according to the
  /// order of the CUs in the .text section" (Sec. 2).
  std::vector<int32_t> CuOrder;
};

/// Everything a snapshot walk reads besides the code order and the PEA
/// fingerprint: the root candidates and the PEA content keys. All of
/// it is a function of the build base (program, reachability, CUs, build
/// heap), so ImageBase keeps one plan per base; it is immutable once built,
/// and concurrent builds read it without a lock.
struct SnapshotPlan {
  /// A root candidate. Owner and Field name its reason's detail, which is
  /// rendered only when the root becomes an entry: the CU root method
  /// (Method), the class and its static field (StaticField), the index in
  /// Program::Resources (Resource); -1 for kinds without a detail.
  struct Root {
    CellIdx Cell = -1;
    InclusionReasonKind Kind = InclusionReasonKind::DataSection;
    int32_t Owner = -1;
    int32_t Field = -1;
  };
  /// The code-constant roots of CU I are Roots[CuRootBegin[I],
  /// CuRootBegin[I + 1]), deduplicated within the CU in first-instruction
  /// order. From CuRootBegin.back() on follow the static-field,
  /// class-metadata and resource roots, in enumeration order.
  std::vector<Root> Roots;
  std::vector<uint32_t> CuRootBegin;
  /// Cells every walk reaches: the roots are one set in any code order, so
  /// the entries are too, and only their order moves.
  uint32_t NumEntries = 0;
  /// The PEA content keys of the reached cells PEA may elide, in cell
  /// order. A key hashes the object's type and contents; the build's PEA
  /// fingerprint is mixed with it. Bit Cell % 64 of PeaCells[Cell / 64]
  /// marks the cells that have one, and PeaRank[W] counts the keys of the
  /// cells before word W: a fraction of a byte per cell.
  std::vector<uint64_t> PeaKeys;
  std::vector<uint64_t> PeaCells;
  std::vector<uint32_t> PeaRank;

  /// \p Cell's PEA content key, or null when PEA may not elide it.
  const uint64_t *peaKey(CellIdx Cell) const {
    size_t Word = size_t(Cell) / 64;
    uint64_t Bit = uint64_t(1) << (size_t(Cell) % 64);
    if (!(PeaCells[Word] & Bit))
      return nullptr;
    return &PeaKeys[PeaRank[Word] + std::popcount(PeaCells[Word] & (Bit - 1))];
  }
};

/// Builds the plan of one build base.
SnapshotPlan buildSnapshotPlan(const Program &P, const Heap &H,
                               const BuildHeapResult &Built,
                               const CompiledProgram &CP,
                               const ReachabilityResult &Reach);

/// Traverses the build heap from \p Plan's roots and produces the snapshot.
/// Root enumeration order: (1) constants embedded in compiled code, per CU
/// in .text order, (2) static reference fields of reachable classes, (3)
/// class metadata, (4) resources. Objects reachable from earlier CUs
/// therefore precede objects of later CUs, matching the paper's default
/// object order. \p H must be the heap the plan was built over.
///
/// The walk passes through elided objects, so the entries, first paths and
/// reasons depend only on the plan and Config.CuOrder; the PEA fingerprint
/// moves only the Elided flags.
HeapSnapshot walkSnapshotPlan(const SnapshotPlan &Plan, const Heap &H,
                              const SnapshotConfig &Config);

/// buildSnapshotPlan, then walkSnapshotPlan: the snapshot of a build that
/// has no plan at hand.
///
/// The heap is only read: every string literal of the compiled code must
/// already be interned (initializeBuildHeap interns those of all reachable
/// methods), so snapshots of different layouts can share one build heap.
HeapSnapshot buildSnapshot(const Program &P, const Heap &H,
                           const BuildHeapResult &Built,
                           const CompiledProgram &CP,
                           const ReachabilityResult &Reach,
                           const SnapshotConfig &Config);

} // namespace nimg

#endif // NIMG_HEAP_SNAPSHOT_H
