//===- Snapshot.cpp - Heap-snapshot construction ----------------------------===//

#include "src/heap/Snapshot.h"

#include "src/support/Murmur3.h"
#include "src/support/SplitMix64.h"

using namespace nimg;

std::string_view nimg::reasonPrefix(InclusionReasonKind Kind) {
  switch (Kind) {
  case InclusionReasonKind::StaticField:
    return "StaticField:";
  case InclusionReasonKind::Method:
    return "Method:";
  case InclusionReasonKind::InternedString:
    return "InternedString";
  case InclusionReasonKind::DataSection:
    return "DataSection";
  case InclusionReasonKind::Resource:
    return "Resource:";
  }
  return "?";
}

bool nimg::reasonHasDetail(InclusionReasonKind Kind) {
  return Kind == InclusionReasonKind::StaticField ||
         Kind == InclusionReasonKind::Method ||
         Kind == InclusionReasonKind::Resource;
}

uint32_t ReasonTable::add(std::initializer_list<std::string_view> Pieces) {
  assert(size() < MaxDetails && "reason table full");
  for (std::string_view Piece : Pieces)
    Chars += Piece;
  Ends.push_back(Chars.size());
  return uint32_t(size() - 1);
}

std::string HeapSnapshot::str(const SnapshotEntry &E) const {
  std::string S(prefix(E));
  S += detail(E);
  return S;
}

size_t HeapSnapshot::numStored() const {
  size_t N = 0;
  for (const SnapshotEntry &E : Entries)
    N += !E.Elided;
  return N;
}

uint64_t HeapSnapshot::storedBytes() const {
  uint64_t N = 0;
  for (const SnapshotEntry &E : Entries)
    if (!E.Elided)
      N += E.SizeBytes;
  return N;
}

namespace {

/// Whether PEA may elide \p Cell: a small non-metadata object whose
/// references all point to strings.
bool peaEligible(const Heap &H, CellIdx Cell, ClassId MetaClass) {
  const HeapCell &C = H.cell(Cell);
  if (C.Kind != CellKind::Object || C.Class == MetaClass)
    return false;
  std::span<const Value> Slots = H.slots(Cell);
  if (Slots.size() > 4)
    return false;
  for (const Value &V : Slots)
    if (V.isRef() && H.cell(V.asRef()).Kind != CellKind::String)
      return false;
  return true;
}

/// The content key of an eligible object: its class name, then each slot's
/// kind and value (strings by contents), so equal objects of different
/// builds share it.
uint64_t peaKey(const Program &P, const Heap &H, CellIdx Cell) {
  Murmur3Stream S;
  S.appendSizedString(P.classDef(H.cell(Cell).Class).Name);
  for (const Value &V : H.slots(Cell)) {
    S.appendU8(uint8_t(V.Kind));
    if (V.isRef())
      S.appendSizedString(H.str(V.asRef()));
    else
      S.appendI64(V.I);
  }
  return S.digest().Lo;
}

/// Adds \p Cell as a root entry with \p Reason, unless an earlier root
/// reached it (the first inclusion reason wins), and appends the entries
/// its breadth-first traversal reaches first. A root's queue is exactly
/// the entries appended since it (every child is appended as it is
/// queued), so the traversal is one cursor over the entries, and it drains
/// before the next root. Returns whether \p Cell became an entry.
bool walkFrom(const Heap &H, HeapSnapshot &Snap, CellIdx Cell,
              EntryReason Reason) {
  std::vector<SnapshotEntry> &Entries = Snap.Entries;
  std::vector<int32_t> &EntryOfCell = Snap.EntryOfCell;
  if (EntryOfCell[size_t(Cell)] != -1)
    return false;
  size_t Next = Entries.size();
  EntryOfCell[size_t(Cell)] = int32_t(Next);
  SnapshotEntry &Root = Entries.emplace_back();
  Root.Cell = Cell;
  Root.SizeBytes = H.cellSizeBytes(Cell);
  Root.Reason = Reason;
  Root.IsRoot = true;
  for (; Next < Entries.size(); ++Next) {
    std::span<const Value> Slots = H.slots(Entries[Next].Cell);
    for (size_t Slot = 0; Slot < Slots.size(); ++Slot) {
      const Value &V = Slots[Slot];
      // Elided objects are rematerialized at run time, but whatever they
      // reference must still live in the image (real PEA keeps the
      // referenced constants); traverse through them so elision changes
      // only the elided object's own type population, not — e.g. — the
      // String population (Alg. 1's per-type counters are the point).
      if (!V.isRef() || EntryOfCell[size_t(V.asRef())] != -1)
        continue;
      EntryOfCell[size_t(V.asRef())] = int32_t(Entries.size());
      SnapshotEntry &E = Entries.emplace_back();
      E.Cell = V.asRef();
      E.SizeBytes = H.cellSizeBytes(E.Cell);
      E.ParentEntry = int32_t(Next);
      E.ParentSlot = int32_t(Slot);
    }
  }
  return true;
}

/// Walks \p Plan's code roots into \p Snap, CU by CU in \p CuOrder (empty:
/// the default order).
void walkCodeRoots(const SnapshotPlan &Plan, const Heap &H,
                   const std::vector<int32_t> &CuOrder, HeapSnapshot &Snap) {
  assert(!Plan.CuRootBegin.empty() && "not a built plan");
  auto WalkCu = [&](size_t Cu) {
    for (uint32_t I = Plan.CuRootBegin[Cu]; I < Plan.CuRootBegin[Cu + 1]; ++I)
      walkFrom(H, Snap, Plan.Roots[I].Cell, Plan.Roots[I].Reason);
  };
  if (CuOrder.empty())
    for (size_t Cu = 0; Cu + 1 < Plan.CuRootBegin.size(); ++Cu)
      WalkCu(Cu);
  else
    for (int32_t Cu : CuOrder)
      WalkCu(size_t(Cu));
  Snap.CodeEntries = uint32_t(Snap.Entries.size());
}

/// Deterministic per-build PEA decision keyed on the inline fingerprint
/// and the object's content: one in four eligible objects goes.
bool elided(uint64_t PeaFingerprint, uint64_t Key) {
  return mix64(PeaFingerprint, Key) % 4 == 0;
}

} // namespace

SnapshotPlan nimg::buildSnapshotPlan(const Program &P, const Heap &H,
                                     const BuildHeapResult &Built,
                                     const CompiledProgram &CP,
                                     const ReachabilityResult &Reach) {
  SnapshotPlan Plan;
  ReasonTable Reasons;

  // (1) Constants embedded in compiled code. Within a CU only a cell's
  // first occurrence can become an entry, so the later ones are dropped.
  std::vector<uint32_t> SeenInCu(H.numCells(), 0);
  Plan.CuRootBegin.reserve(CP.CUs.size() + 1);
  for (size_t Cu = 0; Cu < CP.CUs.size(); ++Cu) {
    Plan.CuRootBegin.push_back(uint32_t(Plan.Roots.size()));
    const CompilationUnit &CU = CP.CUs[Cu];
    uint32_t Stamp = uint32_t(Cu) + 1;
    uint32_t MethodDetail = 0; // The CU root's signature, once it is needed.
    auto Add = [&](CellIdx Cell, InclusionReasonKind Kind) {
      if (SeenInCu[size_t(Cell)] == Stamp)
        return;
      SeenInCu[size_t(Cell)] = Stamp;
      SnapshotPlan::Root &R = Plan.Roots.emplace_back();
      R.Cell = Cell;
      R.Reason.Kind = Kind;
      if (Kind == InclusionReasonKind::Method) {
        if (!MethodDetail)
          MethodDetail = Reasons.add({P.method(CU.Root).Sig});
        R.Reason.Detail = MethodDetail;
      }
    };
    for (const InlineCopy &Copy : CU.Copies) {
      const Method &Meth = P.method(Copy.Method);
      for (const BasicBlock &BB : Meth.Blocks) {
        for (const Instr &In : BB.Instrs) {
          if (In.Op == Opcode::ConstString) {
            CellIdx Cell = H.internedCell(P.string(In.Aux));
            assert(Cell != -1 && "string literal missing from the build heap");
            if (Cell != -1)
              Add(Cell, InclusionReasonKind::InternedString);
          } else if (In.Op == Opcode::NewObject) {
            // Allocation embeds a constant pointer to the class metadata.
            CellIdx Meta = Built.ClassMetaCells[size_t(In.Aux)];
            if (Meta != -1)
              Add(Meta, InclusionReasonKind::Method);
          }
        }
      }
    }
  }
  Plan.CuRootBegin.push_back(uint32_t(Plan.Roots.size()));
  // The plan lives as long as its base: keep no growth slack (a copy
  // allocates exactly what it holds).
  Plan.Roots.shrink_to_fit();

  // The default-order walk, with the other roots after the code roots. The
  // detail of a root that becomes an entry is rendered here, once per base.
  HeapSnapshot Walk;
  Walk.EntryOfCell.assign(H.numCells(), -1);
  walkCodeRoots(Plan, H, {}, Walk);
  auto AddRoot = [&](CellIdx Cell, InclusionReasonKind Kind,
                     std::initializer_list<std::string_view> Detail) {
    EntryReason Reason;
    Reason.Kind = Kind;
    size_t Root = Walk.Entries.size();
    if (walkFrom(H, Walk, Cell, Reason) && Detail.size())
      Walk.Entries[Root].Reason.Detail = Reasons.add(Detail);
  };
  // (2) Static reference fields of reachable classes.
  for (size_t C = 0; C < P.numClasses(); ++C) {
    if (C < Reach.ReachableClasses.size() && !Reach.ReachableClasses[C])
      continue;
    if (size_t(C) >= Built.Statics.size())
      continue;
    const ClassDef &Def = P.classDef(ClassId(C));
    for (size_t F = 0; F < Def.StaticFields.size(); ++F) {
      const Value &V = Built.Statics[C][F];
      if (V.isRef())
        AddRoot(V.asRef(), InclusionReasonKind::StaticField,
                {Def.Name, ".", Def.StaticFields[F].Name});
    }
  }
  // (3) Class metadata.
  for (CellIdx Meta : Built.ClassMetaCells)
    if (Meta != -1)
      AddRoot(Meta, InclusionReasonKind::DataSection, {});
  // (4) Resources, as declared on the program.
  for (size_t R = 0; R < P.Resources.size(); ++R) {
    auto It = Built.ResourceCells.find(P.Resources[R].first);
    if (It != Built.ResourceCells.end())
      AddRoot(It->second, InclusionReasonKind::Resource,
              {P.Resources[R].first});
  }
  // Copies, like the tail below, allocate exactly what they hold.
  Plan.Reasons = std::make_shared<const ReasonTable>(Reasons);
  Plan.CodeEntries = Walk.CodeEntries;
  Plan.Tail.assign(Walk.Entries.begin() + Walk.CodeEntries,
                   Walk.Entries.end());

  ClassId MetaClass = P.findClass("Class");
  size_t Words = (H.numCells() + 63) / 64;
  Plan.PeaCells.assign(Words, 0);
  Plan.PeaRank.assign(Words, 0);
  for (size_t Cell = 0; Cell < H.numCells(); ++Cell) {
    if (Cell % 64 == 0)
      Plan.PeaRank[Cell / 64] = uint32_t(Plan.PeaKeys.size());
    if (Walk.EntryOfCell[Cell] != -1 &&
        peaEligible(H, CellIdx(Cell), MetaClass)) {
      Plan.PeaCells[Cell / 64] |= uint64_t(1) << (Cell % 64);
      Plan.PeaKeys.push_back(peaKey(P, H, CellIdx(Cell)));
    }
  }
  return Plan;
}

HeapSnapshot nimg::walkSnapshotPlan(const SnapshotPlan &Plan, const Heap &H,
                                    const SnapshotConfig &Config) {
  HeapSnapshot Snap;
  std::vector<SnapshotEntry> &Entries = Snap.Entries;
  Snap.EntryOfCell.assign(H.numCells(), -1);
  Entries.reserve(Plan.numEntries());
  Snap.Reasons = Plan.Reasons;
  Snap.CuOrder = Config.CuOrder;
  walkCodeRoots(Plan, H, Config.CuOrder, Snap);
  assert(Snap.CodeEntries == Plan.CodeEntries &&
         "the code roots reached other cells than in the plan's walk");
  Entries.insert(Entries.end(), Plan.Tail.begin(), Plan.Tail.end());
  for (size_t I = Snap.CodeEntries; I < Entries.size(); ++I)
    Snap.EntryOfCell[size_t(Entries[I].Cell)] = int32_t(I);
  if (Config.EnablePea)
    for (SnapshotEntry &E : Entries)
      if (const uint64_t *Key = Plan.peaKey(E.Cell))
        E.Elided = elided(Config.PeaFingerprint, *Key);
  return Snap;
}

HeapSnapshot nimg::buildSnapshot(const Program &P, const Heap &H,
                                 const BuildHeapResult &Built,
                                 const CompiledProgram &CP,
                                 const ReachabilityResult &Reach,
                                 const SnapshotConfig &Config) {
  return walkSnapshotPlan(buildSnapshotPlan(P, H, Built, CP, Reach), H,
                          Config);
}
