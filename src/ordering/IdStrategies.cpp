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

/// The slot of \p Cell's type among those of a program with \p NumClasses
/// classes: strings, then objects by class, then arrays by array type.
size_t typeSlot(size_t NumClasses, const Heap &H, CellIdx Cell) {
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

/// Alg. 1's types as dense indices: each distinct typeId32 gets the next
/// index the first time a cell of its type is seen, so per-type counters
/// are a flat array. Each type name is hashed once.
class TypeIndex {
public:
  static constexpr uint32_t Unset = ~0u;

  TypeIndex(const Program &P, const Heap &H)
      : NumClasses(P.numClasses()),
        OfSlot(1 + P.numClasses() + P.numTypes(), Unset), H(H) {}

  uint32_t of(CellIdx Cell) {
    uint32_t &Type = OfSlot[typeSlot(NumClasses, H, Cell)];
    if (Type == Unset) {
      auto [It, New] = Dense.try_emplace(typeId32(H.cellTypeName(Cell)),
                                         uint32_t(TypeIds.size()));
      if (New)
        TypeIds.push_back(It->first);
      Type = It->second;
    }
    return Type;
  }

  /// The program's classes when the index was made: the slot layout.
  size_t NumClasses;
  /// Dense type per type slot (Unset for types not seen).
  std::vector<uint32_t> OfSlot;
  /// typeId32 per dense type.
  std::vector<uint32_t> TypeIds;

private:
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

namespace {

using RowsPtr = std::shared_ptr<const BaseIdMemo::Rows>;
using TailPtr = std::shared_ptr<const BaseIdMemo::KeptTail>;

/// The unmasked hashes of \p Snap's entries [Begin, End) into \p R.
void hashRows(const Program &P, const Heap &H, const HeapSnapshot &Snap,
              size_t Begin, size_t End, int MaxDepth, BaseIdMemo::Rows &R) {
  NIMG_COUNTER_ADD("nimg.ids.structural_computed", End - Begin);
  R.StructuralHashes.resize(End - Begin);
  R.HeapPathHashes.resize(End - Begin);
  for (size_t I = Begin; I < End; ++I) {
    R.StructuralHashes[I - Begin] =
        structuralHashOf(P, H, Snap.Entries[I].Cell, MaxDepth);
    R.HeapPathHashes[I - Begin] = heapPathHashOf(P, H, Snap, int32_t(I));
  }
}

/// \p Snap's tail: its entries from CodeEntries on with no PEA applied,
/// their rows and the types of all of its entries.
TailPtr tailOf(const Program &P, const Heap &H, const HeapSnapshot &Snap,
               int MaxDepth) {
  auto Tail = std::make_shared<BaseIdMemo::KeptTail>();
  size_t Split = Snap.CodeEntries, N = Snap.Entries.size();
  Tail->Entries.assign(Snap.Entries.begin() + Split, Snap.Entries.end());
  for (SnapshotEntry &E : Tail->Entries)
    E.Elided = false;
  hashRows(P, H, Snap, Split, N, MaxDepth, *Tail);
  // Every entry's type, so that the index covers the code cells too.
  TypeIndex Types(P, H);
  Tail->Types.resize(N - Split);
  for (size_t I = 0; I < N; ++I) {
    uint32_t Type = Types.of(Snap.Entries[I].Cell);
    if (I >= Split)
      Tail->Types[I - Split] = Type;
  }
  Tail->NumClasses = Types.NumClasses;
  Tail->TypeOfSlot = std::move(Types.OfSlot);
  Tail->TypeIds = std::move(Types.TypeIds);
  return Tail;
}

/// The rows of \p Snap from \p Memo, or computed and kept there: those of
/// the entries reached from code under the snapshot's code order, the tail
/// once per base. Sets \p Reused to which came from the memo.
std::pair<RowsPtr, TailPtr> memoizedRows(const Program &P, const Heap &H,
                                         BaseIdMemo &Memo,
                                         const HeapSnapshot &Snap,
                                         int MaxDepth,
                                         std::pair<bool, bool> &Reused) {
  auto Find = [&] {
    auto &Kept = Memo.Orders;
    for (auto It = Kept.begin(); It != Kept.end(); ++It)
      if (It->CuOrder == Snap.CuOrder) {
        std::rotate(Kept.begin(), It, It + 1);
        return Kept.front().Hashes;
      }
    return RowsPtr();
  };
  RowsPtr Code;
  TailPtr Tail;
  {
    std::lock_guard<std::mutex> G(Memo.Mu);
    if (Memo.MaxDepth != MaxDepth) {
      Memo.MaxDepth = MaxDepth;
      Memo.Orders.clear();
      Memo.Tail.reset();
    }
    Code = Find();
    Tail = Memo.Tail;
  }
  Reused = {bool(Code), bool(Tail)};
  if (Code && Tail) {
    NIMG_COUNTER_ADD("nimg.ids.heap_path_reused", 1);
    return {Code, Tail};
  }
  if (!Code) {
    auto Fresh = std::make_shared<BaseIdMemo::Rows>();
    hashRows(P, H, Snap, 0, Snap.CodeEntries, MaxDepth, *Fresh);
    Code = std::move(Fresh);
  }
  if (!Tail)
    Tail = tailOf(P, H, Snap, MaxDepth);
  NIMG_COUNTER_ADD("nimg.ids.heap_path_computed", 1);
  std::lock_guard<std::mutex> G(Memo.Mu);
  // A build at another depth may have started the memo over meanwhile;
  // then this build keeps its rows to itself.
  if (Memo.MaxDepth != MaxDepth)
    return {Code, Tail};
  // A concurrent build of the base may have kept its (equal) rows first.
  if (!Reused.first) {
    if (RowsPtr Kept = Find()) {
      Code = Kept;
    } else {
      Memo.Orders.insert(Memo.Orders.begin(), {Snap.CuOrder, Code});
      if (Memo.Orders.size() > BaseIdMemo::MaxCodeOrders)
        Memo.Orders.pop_back();
    }
  }
  if (!Memo.Tail)
    Memo.Tail = Tail;
  return {Code, Memo.Tail};
}

} // namespace

IdTable nimg::computeIdTable(const Program &P, const Heap &H,
                             const HeapSnapshot &Snap, int MaxDepth,
                             BaseIdMemo *Memo) {
  IdTable T;
  size_t N = Snap.Entries.size();
  T.IncrementalIds.assign(N, 0);
  T.StructuralHashes.assign(N, 0);
  T.HeapPathHashes.assign(N, 0);

  // Alg. 1: per-type counters in encounter order. Inherently sequential
  // (each id depends on how many same-type entries precede it); elided
  // entries are not counted.
  if (!Memo) {
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

  // Builds of one base share the rows of the entries after the code roots,
  // and builds in one code order share all of them: the unmasked Alg. 2
  // and Alg. 3 hashes and the tail's types. Each build masks its own
  // elided entries and counts its own ids, in one pass.
  std::pair<bool, bool> Reused;
  auto [Code, Tail] = memoizedRows(P, H, *Memo, Snap, MaxDepth, Reused);
  size_t Split = Snap.CodeEntries;
  assert(Code->HeapPathHashes.size() == Split &&
         Split + Tail->HeapPathHashes.size() == N &&
         "memo kept for another snapshot");
  std::vector<uint32_t> Counters(Tail->TypeIds.size(), 0);
  uint64_t Stored[2] = {0, 0};
  auto Put = [&](size_t I, uint32_t Type, const BaseIdMemo::Rows &R,
                 size_t Row) {
    T.IncrementalIds[I] =
        (uint64_t(Tail->TypeIds[Type]) << 32) | ++Counters[Type];
    T.StructuralHashes[I] = R.StructuralHashes[Row];
    T.HeapPathHashes[I] = R.HeapPathHashes[Row];
  };
  for (size_t I = 0; I < Split; ++I) {
    const SnapshotEntry &E = Snap.Entries[I];
    if (E.Elided)
      continue;
    size_t Slot = typeSlot(Tail->NumClasses, H, E.Cell);
    assert(Slot < Tail->TypeOfSlot.size() &&
           Tail->TypeOfSlot[Slot] != TypeIndex::Unset &&
           "a cell the kept tail's walk did not reach");
    Put(I, Tail->TypeOfSlot[Slot], *Code, I);
    ++Stored[0];
  }
  for (size_t I = Split; I < N; ++I) {
    if (Snap.Entries[I].Elided)
      continue;
    Put(I, Tail->Types[I - Split], *Tail, I - Split);
    ++Stored[1];
  }
  NIMG_COUNTER_ADD("nimg.ids.structural_reused",
                   (Reused.first ? Stored[0] : 0) +
                       (Reused.second ? Stored[1] : 0));
  return T;
}
