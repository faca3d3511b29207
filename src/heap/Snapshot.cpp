//===- Snapshot.cpp - Heap-snapshot construction ----------------------------===//

#include "src/heap/Snapshot.h"

#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"
#include "src/support/SplitMix64.h"

#include <deque>

using namespace nimg;

std::string InclusionReason::str() const {
  switch (Kind) {
  case InclusionReasonKind::StaticField:
    return "StaticField:" + Detail;
  case InclusionReasonKind::Method:
    return "Method:" + Detail;
  case InclusionReasonKind::InternedString:
    return "InternedString";
  case InclusionReasonKind::DataSection:
    return "DataSection";
  case InclusionReasonKind::Resource:
    return "Resource:" + Detail;
  }
  return "?";
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

class SnapshotBuilder {
public:
  SnapshotBuilder(const Program &P, const Heap &H, const BuildHeapResult &Built,
                  const CompiledProgram &CP, const ReachabilityResult &Reach,
                  const SnapshotConfig &Config)
      : P(P), H(H), Built(Built), CP(CP), Reach(Reach), Config(Config) {
    MetaClass = P.findClass("Class");
  }

  HeapSnapshot run() {
    Snap.EntryOfCell.assign(H.numCells(), -1);
    enumerateCodeConstantRoots();
    enumerateStaticFieldRoots();
    enumerateClassMetadataRoots();
    enumerateResourceRoots();
    return std::move(Snap);
  }

private:
  // --- Root enumeration ------------------------------------------------------

  void enumerateCodeConstantRoots() {
    std::vector<int32_t> Order = Config.CuOrder;
    if (Order.empty())
      for (size_t I = 0; I < CP.CUs.size(); ++I)
        Order.push_back(int32_t(I));
    for (int32_t CuIdx : Order) {
      const CompilationUnit &CU = CP.CUs[size_t(CuIdx)];
      const std::string &RootSig = P.method(CU.Root).Sig;
      for (const InlineCopy &Copy : CU.Copies) {
        const Method &Meth = P.method(Copy.Method);
        for (const BasicBlock &BB : Meth.Blocks) {
          for (const Instr &In : BB.Instrs) {
            if (In.Op == Opcode::ConstString) {
              CellIdx Cell = H.internedCell(P.string(In.Aux));
              assert(Cell != -1 && "string literal missing from the build heap");
              if (Cell != -1)
                addRoot(Cell, {InclusionReasonKind::InternedString, ""});
            } else if (In.Op == Opcode::NewObject) {
              // Allocation embeds a constant pointer to the class metadata.
              CellIdx Meta = Built.ClassMetaCells[size_t(In.Aux)];
              if (Meta != -1)
                addRoot(Meta, {InclusionReasonKind::Method, RootSig});
            }
          }
        }
      }
    }
  }

  void enumerateStaticFieldRoots() {
    for (size_t C = 0; C < P.numClasses(); ++C) {
      if (C < Reach.ReachableClasses.size() && !Reach.ReachableClasses[C])
        continue;
      if (size_t(C) >= Built.Statics.size())
        continue;
      const ClassDef &Def = P.classDef(ClassId(C));
      for (size_t F = 0; F < Def.StaticFields.size(); ++F) {
        const Value &V = Built.Statics[C][F];
        if (!V.isRef())
          continue;
        addRoot(V.asRef(), {InclusionReasonKind::StaticField,
                            Def.Name + "." + Def.StaticFields[F].Name});
      }
    }
  }

  void enumerateClassMetadataRoots() {
    for (size_t C = 0; C < Built.ClassMetaCells.size(); ++C)
      if (Built.ClassMetaCells[C] != -1)
        addRoot(Built.ClassMetaCells[C],
                {InclusionReasonKind::DataSection, ""});
  }

  void enumerateResourceRoots() {
    // Deterministic order: as declared on the program.
    for (const auto &[Name, Contents] : P.Resources) {
      (void)Contents;
      auto It = Built.ResourceCells.find(Name);
      if (It != Built.ResourceCells.end())
        addRoot(It->second, {InclusionReasonKind::Resource, Name});
    }
  }

  // --- Traversal ----------------------------------------------------------------

  void addRoot(CellIdx Cell, InclusionReason Reason) {
    if (Snap.EntryOfCell[size_t(Cell)] != -1)
      return; // First inclusion reason wins.
    int32_t Entry = addEntry(Cell, /*IsRoot=*/true, std::move(Reason), -1, -1);
    traverseFrom(Entry);
  }

  int32_t addEntry(CellIdx Cell, bool IsRoot, InclusionReason Reason,
                   int32_t ParentEntry, int32_t ParentSlot) {
    SnapshotEntry E;
    E.Cell = Cell;
    E.SizeBytes = H.cellSizeBytes(Cell);
    E.IsRoot = IsRoot;
    E.Reason = std::move(Reason);
    E.ParentEntry = ParentEntry;
    E.ParentSlot = ParentSlot;
    E.Elided = shouldElide(Cell);
    int32_t Idx = int32_t(Snap.Entries.size());
    Snap.Entries.push_back(std::move(E));
    Snap.EntryOfCell[size_t(Cell)] = Idx;
    return Idx;
  }

  void traverseFrom(int32_t RootEntry) {
    std::deque<int32_t> Queue{RootEntry};
    while (!Queue.empty()) {
      int32_t EntryIdx = Queue.front();
      Queue.pop_front();
      CellIdx Cell = Snap.Entries[size_t(EntryIdx)].Cell;
      std::span<const Value> Slots = H.slots(Cell);
      for (size_t Slot = 0; Slot < Slots.size(); ++Slot) {
        const Value &V = Slots[Slot];
        if (!V.isRef())
          continue;
        CellIdx Child = V.asRef();
        if (Snap.EntryOfCell[size_t(Child)] != -1)
          continue;
        // Elided objects are rematerialized at run time, but whatever they
        // reference must still live in the image (real PEA keeps the
        // referenced constants); traverse through them so elision changes
        // only the elided object's own type population, not — e.g. — the
        // String population (Alg. 1's per-type counters are the point).
        int32_t ChildEntry = addEntry(Child, /*IsRoot=*/false, {}, EntryIdx,
                                      int32_t(Slot));
        Queue.push_back(ChildEntry);
      }
    }
  }

  // --- PEA-style elision ------------------------------------------------------

  bool shouldElide(CellIdx Cell) {
    if (!Config.EnablePea)
      return false;
    const HeapCell &C = H.cell(Cell);
    if (C.Kind != CellKind::Object || C.Class == MetaClass)
      return false;
    std::span<const Value> Slots = H.slots(Cell);
    if (Slots.size() > 4)
      return false;
    for (const Value &V : Slots)
      if (V.isRef() && H.cell(V.asRef()).Kind != CellKind::String)
        return false;
    // Deterministic per-build decision keyed on the inline fingerprint and
    // the object's content: one in four eligible objects goes.
    ByteBuffer B;
    B.appendSizedString(P.classDef(C.Class).Name);
    for (const Value &V : Slots) {
      B.appendU8(uint8_t(V.Kind));
      if (V.isRef())
        B.appendSizedString(H.str(V.asRef()));
      else
        B.appendI64(V.I);
    }
    uint64_t Key = mix64(Config.PeaFingerprint, murmurHash3(B.bytes()));
    return Key % 4 == 0;
  }

  const Program &P;
  const Heap &H;
  const BuildHeapResult &Built;
  const CompiledProgram &CP;
  const ReachabilityResult &Reach;
  const SnapshotConfig &Config;
  ClassId MetaClass = -1;
  HeapSnapshot Snap;
};

} // namespace

HeapSnapshot nimg::buildSnapshot(const Program &P, const Heap &H,
                                 const BuildHeapResult &Built,
                                 const CompiledProgram &CP,
                                 const ReachabilityResult &Reach,
                                 const SnapshotConfig &Config) {
  return SnapshotBuilder(P, H, Built, CP, Reach, Config).run();
}
