//===- IdStrategies.cpp - Object-identity strategies (Alg. 1-3) -----------===//

#include "src/ordering/IdStrategies.h"

#include "src/obs/Metrics.h"
#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

using namespace nimg;

const char *nimg::heapStrategyName(HeapStrategy S) {
  switch (S) {
  case HeapStrategy::IncrementalId:
    return "incremental id";
  case HeapStrategy::StructuralHash:
    return "structural hash";
  case HeapStrategy::HeapPath:
    return "heap path";
  }
  return "?";
}

namespace {

/// 32-bit type identifier stable across builds: a hash of the fully
/// qualified type name (Alg. 1: "types can be uniquely identified by their
/// fully qualified names even between compilations").
uint32_t typeId32(const std::string &Name) {
  return uint32_t(murmurHash3(Name, /*Seed=*/0x717e5));
}

/// Alg. 1's types as dense indices: each distinct typeId32 gets the next
/// index the first time a cell of its type is seen, so per-type counters
/// are a flat array. Each type name is hashed once.
class TypeIndex {
public:
  TypeIndex(const Program &P, const Heap &H)
      : NumClasses(P.numClasses()),
        OfSlot(1 + P.numClasses() + P.numTypes(), Unset), H(H) {}

  uint32_t of(CellIdx Cell) {
    uint32_t &Type = OfSlot[slot(Cell)];
    if (Type == Unset) {
      auto [It, New] = Dense.try_emplace(typeId32(H.cellTypeName(Cell)),
                                         uint32_t(TypeIds.size()));
      if (New)
        TypeIds.push_back(It->first);
      Type = It->second;
    }
    return Type;
  }

  /// typeId32 per dense type.
  std::vector<uint32_t> TypeIds;

private:
  static constexpr uint32_t Unset = ~0u;

  /// \p Cell's type among the program's: strings, then objects by class,
  /// then arrays by array type.
  size_t slot(CellIdx Cell) const {
    const HeapCell &C = H.cell(Cell);
    switch (C.Kind) {
    case CellKind::Object:
      return 1 + size_t(C.Class);
    case CellKind::Array:
      return 1 + NumClasses + size_t(C.ArrayType);
    case CellKind::String:
      break;
    }
    return 0;
  }

  size_t NumClasses;
  /// Dense type per type slot (Unset for types not seen).
  std::vector<uint32_t> OfSlot;
  const Heap &H;
  std::unordered_map<uint32_t, uint32_t> Dense;
};

/// Implements Alg. 2's encodeToBytes over heap cells. A "field entity" is
/// a (declared type, runtime value) pair.
class StructuralEncoder {
public:
  StructuralEncoder(const Program &P, const Heap &H, int MaxDepth)
      : P(P), H(H), MaxDepth(MaxDepth) {}

  void encodeValue(ByteBuffer &Out, const Value &V, int Depth) {
    if (V.isNull()) {
      Out.appendU8(0);
      return;
    }
    switch (V.Kind) {
    case ValueKind::Int:
      Out.appendString("int");
      Out.appendI64(V.I);
      return;
    case ValueKind::Double:
      Out.appendString("double");
      Out.appendF64(V.D);
      return;
    case ValueKind::Bool:
      Out.appendString("boolean");
      Out.appendU8(V.I ? 1 : 0);
      return;
    case ValueKind::Ref:
      encodeCell(Out, V.asRef(), Depth);
      return;
    case ValueKind::Null:
      Out.appendU8(0);
      return;
    }
  }

  void encodeCell(ByteBuffer &Out, CellIdx Cell, int Depth) {
    const HeapCell &C = H.cell(Cell);
    Out.appendString(H.cellTypeName(Cell));
    bool ShouldRecurse = Depth < MaxDepth;

    if (C.Kind == CellKind::String) {
      Out.appendString(H.str(Cell));
      return;
    }

    std::span<const Value> Slots = H.slots(Cell);
    if (C.Kind == CellKind::Object) {
      const std::vector<Field> &Layout = P.layout(C.Class);
      for (size_t K = 0; K < Slots.size(); ++K) {
        const Value &FieldVal = Slots[K];
        if (ShouldRecurse || isPrimitiveOrString(FieldVal)) {
          Out.appendString(P.typeName(Layout[K].Type));
          encodeValue(Out, FieldVal, Depth + 1);
        }
      }
      return;
    }

    // Array.
    const TypeInfo &ArrTy = P.type(C.ArrayType);
    const TypeInfo &ElemTy = P.type(ArrTy.Elem);
    Out.appendString(ElemTy.Name);
    Out.appendU32(uint32_t(Slots.size()));
    bool ElemPrimitiveOrString = ElemTy.Kind == TypeKind::Int ||
                                 ElemTy.Kind == TypeKind::Double ||
                                 ElemTy.Kind == TypeKind::Bool ||
                                 ElemTy.Kind == TypeKind::String;
    if (ShouldRecurse || ElemPrimitiveOrString) {
      for (size_t K = 0; K < Slots.size(); ++K) {
        Out.appendU32(uint32_t(K));
        encodeValue(Out, Slots[K], Depth + 1);
      }
    }
  }

private:
  bool isPrimitiveOrString(const Value &V) const {
    if (V.Kind == ValueKind::Int || V.Kind == ValueKind::Double ||
        V.Kind == ValueKind::Bool)
      return true;
    return V.isRef() && H.cell(V.asRef()).Kind == CellKind::String;
  }

  const Program &P;
  const Heap &H;
  int MaxDepth;
};

} // namespace

uint64_t nimg::structuralHashOf(const Program &P, const Heap &H, CellIdx Cell,
                                int MaxDepth) {
  ByteBuffer Bytes;
  StructuralEncoder(P, H, MaxDepth).encodeCell(Bytes, Cell, 0);
  return murmurHash3(Bytes.bytes());
}

uint64_t nimg::heapPathHashOf(const Program &P, const Heap &H,
                              const HeapSnapshot &Snap, int32_t EntryIdx) {
  assert(EntryIdx >= 0 && size_t(EntryIdx) < Snap.Entries.size() &&
         "invalid snapshot entry");
  // Alg. 3, streamed piece by piece as the path is walked (the digest
  // equals hashing the concatenated pieces), with no allocation: reasons
  // stream as prefix plus detail, field descriptors "owner.name:type" as
  // their five pieces. Elision is not looked at.
  const SnapshotEntry &E = Snap.Entries[size_t(EntryIdx)];
  Murmur3Stream Bytes;
  // Interned-string roots hash their contents: the heap path would be the
  // same for all interned strings (Alg. 3, lines 4-5).
  if (E.IsRoot && E.Reason.Kind == InclusionReasonKind::InternedString) {
    Bytes.appendString(H.str(E.Cell));
    return Bytes.digest().Lo;
  }
  for (int32_t Cur = EntryIdx;;) {
    const SnapshotEntry &CurE = Snap.Entries[size_t(Cur)];
    Bytes.appendString(H.cellTypeName(CurE.Cell));
    if (CurE.IsRoot) {
      Bytes.appendString(Snap.prefix(CurE));
      Bytes.appendString(Snap.detail(CurE));
      break;
    }
    assert(CurE.ParentEntry >= 0 && "non-root entry without parent");
    const HeapCell &Parent =
        H.cell(Snap.Entries[size_t(CurE.ParentEntry)].Cell);
    if (Parent.Kind == CellKind::Array) {
      Bytes.appendU32(uint32_t(CurE.ParentSlot));
    } else {
      const Field &F = P.layout(Parent.Class)[size_t(CurE.ParentSlot)];
      Bytes.appendString(P.classDef(F.Owner).Name);
      Bytes.appendString(".");
      Bytes.appendString(F.Name);
      Bytes.appendString(":");
      Bytes.appendString(P.typeName(F.Type));
    }
    Cur = CurE.ParentEntry;
  }
  return Bytes.digest().Lo;
}

BaseIdRows nimg::computeBaseIds(const Program &P, const Heap &H,
                                const SnapshotPlan &Plan, int MaxDepth) {
  // The tail's heap paths are read from a walk (PEA off, though Alg. 3
  // ignores elision).
  SnapshotConfig Default;
  Default.EnablePea = false;
  HeapSnapshot Snap = walkSnapshotPlan(Plan, H, Default);
  size_t N = Snap.Entries.size(), Code = Snap.CodeEntries;
  NIMG_COUNTER_ADD("nimg.ids.structural_computed", N);
  BaseIdRows Rows;
  TypeIndex Types(P, H);
  Rows.StructuralHashes.assign(H.numCells(), 0);
  Rows.Types.assign(H.numCells(), 0);
  Rows.TailHeapPaths.resize(N - Code);
  for (size_t I = 0; I < N; ++I) {
    CellIdx Cell = Snap.Entries[I].Cell;
    Rows.StructuralHashes[size_t(Cell)] =
        structuralHashOf(P, H, Cell, MaxDepth);
    Rows.Types[size_t(Cell)] = Types.of(Cell);
    if (I >= Code)
      Rows.TailHeapPaths[I - Code] = heapPathHashOf(P, H, Snap, int32_t(I));
  }
  Rows.TypeIds = std::move(Types.TypeIds);
  Rows.TypeIds.shrink_to_fit();
  return Rows;
}

CodePathMemo::Rows CodePathMemo::rowsOf(const Program &P, const Heap &H,
                                        const HeapSnapshot &Snap) {
  auto Find = [&] {
    for (auto It = Orders.begin(); It != Orders.end(); ++It)
      if (It->CuOrder == Snap.CuOrder) {
        std::rotate(Orders.begin(), It, It + 1);
        return Orders.front().Hashes;
      }
    return Rows();
  };
  {
    std::lock_guard<std::mutex> G(Mu);
    if (Rows Kept = Find()) {
      NIMG_COUNTER_ADD("nimg.ids.heap_path_reused", 1);
      return Kept;
    }
  }
  NIMG_COUNTER_ADD("nimg.ids.heap_path_computed", 1);
  auto Fresh = std::make_shared<std::vector<uint64_t>>(Snap.CodeEntries);
  for (size_t I = 0; I < Snap.CodeEntries; ++I)
    (*Fresh)[I] = heapPathHashOf(P, H, Snap, int32_t(I));
  std::lock_guard<std::mutex> G(Mu);
  if (Rows Kept = Find())
    return Kept; // A concurrent build of this order kept its rows first.
  Orders.insert(Orders.begin(), {Snap.CuOrder, Fresh});
  if (Orders.size() > MaxCodeOrders)
    Orders.pop_back();
  return Fresh;
}

IdTable nimg::idTableFromBase(const HeapSnapshot &Snap, const BaseIdRows &Rows,
                              const std::vector<uint64_t> &CodeHeapPaths) {
  IdTable T;
  size_t N = Snap.Entries.size(), Code = Snap.CodeEntries;
  assert(CodeHeapPaths.size() == Code &&
         Code + Rows.TailHeapPaths.size() == N &&
         "rows of another base or code order");
  T.IncrementalIds.assign(N, 0);
  T.StructuralHashes.assign(N, 0);
  T.HeapPathHashes.assign(N, 0);
  std::vector<uint32_t> Counters(Rows.TypeIds.size(), 0);
  for (size_t I = 0; I < N; ++I) {
    const SnapshotEntry &E = Snap.Entries[I];
    if (E.Elided)
      continue;
    uint32_t Type = Rows.Types[size_t(E.Cell)];
    T.IncrementalIds[I] =
        (uint64_t(Rows.TypeIds[Type]) << 32) | ++Counters[Type];
    T.StructuralHashes[I] = Rows.StructuralHashes[size_t(E.Cell)];
    T.HeapPathHashes[I] =
        I < Code ? CodeHeapPaths[I] : Rows.TailHeapPaths[I - Code];
  }
  return T;
}

IdTable nimg::computeIdTable(const Program &P, const Heap &H,
                             const HeapSnapshot &Snap, int MaxDepth) {
  IdTable T;
  size_t N = Snap.Entries.size();
  T.IncrementalIds.assign(N, 0);
  T.StructuralHashes.assign(N, 0);
  T.HeapPathHashes.assign(N, 0);

  // Alg. 1: per-type counters in encounter order. Inherently sequential
  // (each id depends on how many same-type entries precede it); elided
  // entries are not counted.
  TypeIndex Types(P, H);
  std::vector<uint32_t> Counters;
  uint64_t Stored = 0;
  for (size_t I = 0; I < N; ++I) {
    const SnapshotEntry &E = Snap.Entries[I];
    if (E.Elided)
      continue;
    uint32_t Type = Types.of(E.Cell);
    if (Type == Counters.size())
      Counters.push_back(0);
    T.IncrementalIds[I] =
        (uint64_t(Types.TypeIds[Type]) << 32) | ++Counters[Type];
    T.StructuralHashes[I] = structuralHashOf(P, H, E.Cell, MaxDepth);
    T.HeapPathHashes[I] = heapPathHashOf(P, H, Snap, int32_t(I));
    ++Stored;
  }
  NIMG_COUNTER_ADD("nimg.ids.structural_computed", Stored);
  return T;
}
