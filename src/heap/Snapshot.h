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

#include <string>
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

  /// Renders the reason as the string Alg. 3 hashes.
  std::string str() const;
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

/// Traverses the build heap and produces the snapshot. Root enumeration
/// order: (1) constants embedded in compiled code, per CU in .text order,
/// (2) static reference fields of reachable classes, (3) class metadata,
/// (4) resources. Objects reachable from earlier CUs therefore precede
/// objects of later CUs, matching the paper's default object order.
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
