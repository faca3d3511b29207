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
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
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

/// The kind's name as Alg. 3 hashes it, with the ':' before the detail for
/// kinds that have one (field, method, resource).
std::string_view reasonPrefix(InclusionReasonKind Kind);
/// Whether roots of \p Kind name a field, method or resource as detail.
bool reasonHasDetail(InclusionReasonKind Kind);

/// Why an entry is in the snapshot: the kind of its root reason and, for a
/// root of a kind with a detail, the index of that detail in the
/// snapshot's ReasonTable (0: no detail). Four bytes, so that entries and
/// plan roots are flat records.
struct EntryReason {
  InclusionReasonKind Kind : 8 = InclusionReasonKind::DataSection;
  uint32_t Detail : 24 = 0;
};
static_assert(sizeof(EntryReason) == 4);

/// The reason details of a snapshot's roots (a field's Class.field, a
/// method signature, a resource name), indexed by EntryReason::Detail and
/// stored back to back in one buffer. Index 0 is the empty detail.
class ReasonTable {
public:
  /// Details a table can hold: EntryReason::Detail has 24 bits.
  static constexpr size_t MaxDetails = size_t(1) << 24;

  /// Appends the detail made of \p Pieces and returns its index. The
  /// table must hold fewer than MaxDetails.
  uint32_t add(std::initializer_list<std::string_view> Pieces);
  std::string_view detail(uint32_t I) const {
    return std::string_view(Chars).substr(Ends[I], Ends[I + 1] - Ends[I]);
  }
  /// Details held, the empty one included.
  size_t size() const { return Ends.size() - 1; }

private:
  std::string Chars;
  /// Detail I is Chars[Ends[I], Ends[I + 1]).
  std::vector<size_t> Ends = {0, 0};
};

/// One object in the snapshot traversal: a trivially copyable record, so
/// that a build copies the entries every walk of its base shares (the
/// plan's tail, see SnapshotPlan) with one memcpy.
struct SnapshotEntry {
  CellIdx Cell = -1;
  uint32_t SizeBytes = 0;
  /// First path that reached the object (BFS parent); -1 for roots.
  int32_t ParentEntry = -1;
  /// Slot in the parent through which this object was first reached:
  /// a field layout index (object parent) or element index (array parent).
  int32_t ParentSlot = -1;
  EntryReason Reason; ///< Valid when IsRoot.
  bool IsRoot = false;
  /// True when the PEA-style pass removed the object from the stored
  /// snapshot (it is materialized at run time instead and costs no I/O).
  bool Elided = false;
};
static_assert(sizeof(SnapshotEntry) == 24 &&
              std::is_trivially_copyable_v<SnapshotEntry>);

struct HeapSnapshot {
  /// Entries in traversal (default placement) order.
  std::vector<SnapshotEntry> Entries;
  /// Cell -> entry index, dense over the build heap's cells (-1: the cell
  /// is not in the snapshot). Cells beyond the table (allocated at run
  /// time) are never in it.
  std::vector<int32_t> EntryOfCell;
  /// The details the entries' reasons index: a built snapshot shares its
  /// base's (SnapshotPlan::Reasons), a loaded one owns what its loader
  /// read. Null only in a snapshot assembled by hand, whose entries have
  /// no detail.
  std::shared_ptr<const ReasonTable> Reasons;
  /// The code order the snapshot was walked in (SnapshotConfig::CuOrder).
  /// With the build base it determines the entries, first paths and
  /// reasons of the entries reached from code, so it keys the heap-path
  /// rows a base keeps of them (CodePathMemo).
  std::vector<int32_t> CuOrder;
  /// Entries [0, CodeEntries) were reached from constants in code; the
  /// rest are the plan's tail (SnapshotPlan::Tail). CuOrder and
  /// CodeEntries are not stored in the image: a loaded snapshot leaves
  /// them empty.
  uint32_t CodeEntries = 0;

  int32_t entryOf(CellIdx Cell) const {
    return Cell >= 0 && size_t(Cell) < EntryOfCell.size()
               ? EntryOfCell[size_t(Cell)]
               : -1;
  }
  size_t numStored() const;
  uint64_t storedBytes() const;

  /// \p E's reason as Alg. 3 hashes it: prefix(), then detail().
  static std::string_view prefix(const SnapshotEntry &E) {
    return reasonPrefix(E.Reason.Kind);
  }
  std::string_view detail(const SnapshotEntry &E) const {
    return Reasons ? Reasons->detail(E.Reason.Detail) : std::string_view();
  }
  std::string str(const SnapshotEntry &E) const;
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
/// fingerprint: the code roots, the entries after them and the PEA content
/// keys. All of it is a function of the build base (program, reachability,
/// CUs, build heap), so ImageBase keeps one plan per base; it is immutable
/// once built, and concurrent builds read it without a lock.
struct SnapshotPlan {
  /// A code root: its cell and the reason an entry it becomes records. The
  /// detail of the Method roots of one CU (its root method) is rendered
  /// into Reasons once per plan.
  struct Root {
    CellIdx Cell = -1;
    EntryReason Reason;
  };
  /// The code-constant roots of CU I are Roots[CuRootBegin[I],
  /// CuRootBegin[I + 1]), deduplicated within the CU in first-instruction
  /// order.
  std::vector<Root> Roots;
  std::vector<uint32_t> CuRootBegin;
  std::shared_ptr<const ReasonTable> Reasons;
  /// Entries the code roots reach: the roots are one set in any code
  /// order, so their entries are too, and only their order moves.
  uint32_t CodeEntries = 0;
  /// The entries after the code roots' in a walk in the default code
  /// order, with no PEA applied (Elided false): the static-field,
  /// class-metadata and resource roots in enumeration order and what they
  /// reach. Every walk of the base has them, entry for entry, from
  /// CodeEntries on: by the time a walk leaves the code roots it has
  /// reached the same cells whatever their order, the other roots come in
  /// a fixed order, and their parents lie among them (the code roots'
  /// traversals drain before the first other root is added).
  std::vector<SnapshotEntry> Tail;
  /// The PEA content keys of the reached cells PEA may elide, in cell
  /// order. A key hashes the object's type and contents; the build's PEA
  /// fingerprint is mixed with it. Bit Cell % 64 of PeaCells[Cell / 64]
  /// marks the cells that have one, and PeaRank[W] counts the keys of the
  /// cells before word W: a fraction of a byte per cell.
  std::vector<uint64_t> PeaKeys;
  std::vector<uint64_t> PeaCells;
  std::vector<uint32_t> PeaRank;

  /// Entries of every walk of the plan.
  size_t numEntries() const { return CodeEntries + Tail.size(); }

  /// \p Cell's PEA content key, or null when PEA may not elide it.
  const uint64_t *peaKey(CellIdx Cell) const {
    size_t Word = size_t(Cell) / 64;
    uint64_t Bit = uint64_t(1) << (size_t(Cell) % 64);
    if (!(PeaCells[Word] & Bit))
      return nullptr;
    return &PeaKeys[PeaRank[Word] + std::popcount(PeaCells[Word] & (Bit - 1))];
  }
};

/// Builds the plan of one build base: one breadth-first walk in the default
/// code order. Root enumeration order: (1) constants embedded in compiled
/// code, per CU in .text order, (2) static reference fields of reachable
/// classes, (3) class metadata, (4) resources. Objects reachable from
/// earlier CUs therefore precede objects of later CUs, matching the
/// paper's default object order.
SnapshotPlan buildSnapshotPlan(const Program &P, const Heap &H,
                               const BuildHeapResult &Built,
                               const CompiledProgram &CP,
                               const ReachabilityResult &Reach);

/// Produces the snapshot of one layout of \p Plan's base: walks the code
/// roots in Config.CuOrder, appends the plan's tail and applies the PEA
/// fingerprint to every entry. \p H must be the heap the plan was built
/// over. The walk passes through elided objects, so the entries, first
/// paths and reasons depend only on the plan and Config.CuOrder; the PEA
/// fingerprint moves only the Elided flags.
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
