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

/// Memoizes typeId32 per class / array type so a snapshot with a million
/// instances of som.Vector hashes "som.Vector" once, not a million times.
/// Used only by the sequential incremental-id pass.
class TypeIdCache {
public:
  TypeIdCache(const Program &P, const Heap &H)
      : H(H), ClassIds(P.numClasses(), Unset), TypeIds(P.numTypes(), Unset) {}

  uint32_t of(CellIdx Cell) {
    const HeapCell &C = H.cell(Cell);
    switch (C.Kind) {
    case CellKind::Object:
      return cached(ClassIds, size_t(C.Class), Cell);
    case CellKind::Array:
      return cached(TypeIds, size_t(C.ArrayType), Cell);
    case CellKind::String:
      if (StringId == Unset)
        StringId = typeId32(H.cellTypeName(Cell));
      return uint32_t(StringId);
    }
    return typeId32(H.cellTypeName(Cell));
  }

private:
  static constexpr uint64_t Unset = ~0ull;

  uint32_t cached(std::vector<uint64_t> &Slots, size_t Key, CellIdx Cell) {
    if (Slots[Key] == Unset)
      Slots[Key] = typeId32(H.cellTypeName(Cell));
    return uint32_t(Slots[Key]);
  }

  const Heap &H;
  std::vector<uint64_t> ClassIds, TypeIds;
  uint64_t StringId = Unset;
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
      Bytes.appendString(CurE.Reason.prefix());
      Bytes.appendString(CurE.Reason.detail());
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

using PathTable = std::shared_ptr<const std::vector<uint64_t>>;

/// The unmasked heap-path hashes of \p Snap's entries [Begin, End).
PathTable hashPaths(const Program &P, const Heap &H, const HeapSnapshot &Snap,
                    size_t Begin, size_t End) {
  auto Out = std::make_shared<std::vector<uint64_t>>(End - Begin);
  for (size_t I = Begin; I < End; ++I)
    (*Out)[I - Begin] = heapPathHashOf(P, H, Snap, int32_t(I));
  return Out;
}

/// The unmasked heap-path hashes of \p Snap, from \p Memo, or computed and
/// kept there: those of the entries reached from code under the snapshot's
/// code order, those of the rest once per base.
std::pair<PathTable, PathTable> memoizedHeapPaths(const Program &P,
                                                  const Heap &H,
                                                  BaseIdMemo &Memo,
                                                  const HeapSnapshot &Snap) {
  auto Find = [&] {
    auto &Kept = Memo.HeapPaths;
    for (auto It = Kept.begin(); It != Kept.end(); ++It)
      if (It->CuOrder == Snap.CuOrder) {
        std::rotate(Kept.begin(), It, It + 1);
        return Kept.front().Hashes;
      }
    return PathTable();
  };
  PathTable Code, Shared;
  {
    std::lock_guard<std::mutex> G(Memo.Mu);
    Code = Find();
    Shared = Memo.SharedHeapPaths;
  }
  if (Code && Shared) {
    NIMG_COUNTER_ADD("nimg.ids.heap_path_reused", 1);
    return {Code, Shared};
  }
  size_t Split = Snap.CodeEntries, N = Snap.Entries.size();
  PathTable FreshCode = Code ? nullptr : hashPaths(P, H, Snap, 0, Split);
  PathTable FreshShared = Shared ? nullptr : hashPaths(P, H, Snap, Split, N);
  NIMG_COUNTER_ADD("nimg.ids.heap_path_computed", 1);
  std::lock_guard<std::mutex> G(Memo.Mu);
  // A concurrent build of the base may have kept its (equal) hashes first.
  if (!Code && !(Code = Find())) {
    Code = FreshCode;
    Memo.HeapPaths.insert(Memo.HeapPaths.begin(), {Snap.CuOrder, Code});
    if (Memo.HeapPaths.size() > BaseIdMemo::MaxCodeOrders)
      Memo.HeapPaths.pop_back();
  }
  if (!Memo.SharedHeapPaths)
    Memo.SharedHeapPaths = FreshShared;
  return {Code, Memo.SharedHeapPaths};
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
  // (each id depends on how many same-type entries precede it), but cheap
  // once the per-type typeId32 is cached.
  TypeIdCache TypeIds(P, H);
  std::unordered_map<uint32_t, uint32_t> Counters;
  for (size_t I = 0; I < N; ++I) {
    const SnapshotEntry &E = Snap.Entries[I];
    if (E.Elided)
      continue;
    uint32_t TypeId = TypeIds.of(E.Cell);
    uint32_t Count = ++Counters[TypeId];
    T.IncrementalIds[I] = (uint64_t(TypeId) << 32) | Count;
  }

  // Alg. 2: a root hash depends only on (H, cell, MaxDepth), so builds
  // sharing H take it from the memo; only cells no earlier build of this
  // depth stored are encoded.
  uint64_t Computed = 0, Reused = 0;
  {
    std::unique_lock<std::mutex> Lock;
    if (Memo) {
      Lock = std::unique_lock<std::mutex>(Memo->Mu);
      if (Memo->MaxDepth != MaxDepth || Memo->Known.size() != H.numCells()) {
        Memo->MaxDepth = MaxDepth;
        Memo->StructuralHashes.assign(H.numCells(), 0);
        Memo->Known.assign(H.numCells(), 0);
      }
    }
    for (size_t I = 0; I < N; ++I) {
      const SnapshotEntry &E = Snap.Entries[I];
      if (E.Elided)
        continue;
      size_t Cell = size_t(E.Cell);
      if (Memo && Memo->Known[Cell]) {
        T.StructuralHashes[I] = Memo->StructuralHashes[Cell];
        ++Reused;
      } else {
        T.StructuralHashes[I] = structuralHashOf(P, H, E.Cell, MaxDepth);
        ++Computed;
        if (Memo) {
          Memo->StructuralHashes[Cell] = T.StructuralHashes[I];
          Memo->Known[Cell] = 1;
        }
      }
    }
  }
  NIMG_COUNTER_ADD("nimg.ids.structural_computed", Computed);
  NIMG_COUNTER_ADD("nimg.ids.structural_reused", Reused);

  // Alg. 3: builds of one base share the first paths of the entries after
  // the code roots, and builds in one code order share all of them, so
  // they take the unmasked hashes from the memo and mask their own elided
  // entries.
  std::pair<PathTable, PathTable> Kept;
  if (Memo)
    Kept = memoizedHeapPaths(P, H, *Memo, Snap);
  const std::vector<uint64_t> *Code = Kept.first.get();
  const std::vector<uint64_t> *Shared = Kept.second.get();
  size_t Split = Snap.CodeEntries;
  assert((!Memo || (Code->size() == Split && Split + Shared->size() == N)) &&
         "memo kept for another snapshot");
  for (size_t I = 0; I < N; ++I) {
    if (Snap.Entries[I].Elided)
      continue;
    if (!Memo)
      T.HeapPathHashes[I] = heapPathHashOf(P, H, Snap, int32_t(I));
    else
      T.HeapPathHashes[I] = I < Split ? (*Code)[I] : (*Shared)[I - Split];
  }
  return T;
}
