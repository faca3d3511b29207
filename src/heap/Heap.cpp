//===- Heap.cpp - Runtime values and heap cells ----------------------------===//

#include "src/heap/Heap.h"

#include <algorithm>
#include <cstring>

using namespace nimg;

Value Heap::zeroValue(const TypeInfo &T) {
  switch (T.Kind) {
  case TypeKind::Int:
    return Value::makeInt(0);
  case TypeKind::Double:
    return Value::makeDouble(0.0);
  case TypeKind::Bool:
    return Value::makeBool(false);
  default:
    return Value::makeNull();
  }
}

std::span<Value> Heap::appendCell(CellKind Kind, ClassId Class,
                                  TypeId ArrayTy, uint32_t NumSlots,
                                  std::string_view Str) {
  HeapCell Cell;
  Cell.Kind = Kind;
  Cell.Class = Class;
  Cell.ArrayType = ArrayTy;
  assert(Slots.size() + NumSlots <= UINT32_MAX && "value arena full");
  Cell.SlotBegin = uint32_t(Slots.size());
  Cell.NumSlots = NumSlots;
  Slots.resize(Slots.size() + NumSlots);
  if (!Str.empty()) {
    assert(Str.size() <= UINT32_MAX && "string too long");
    // Str may view this arena (a substring, a re-interned cell), which the
    // resize below can move: copy from its offset, not its address.
    const char *Base = Chars.data();
    bool Own = std::less_equal<const char *>()(Base, Str.data()) &&
               std::less<const char *>()(Str.data(), Base + Chars.size());
    size_t From = Own ? size_t(Str.data() - Base) : 0;
    Cell.StrBegin = Chars.size();
    Cell.StrLen = uint32_t(Str.size());
    Chars.resize(Chars.size() + Str.size());
    std::memcpy(Chars.data() + Cell.StrBegin,
                Own ? Chars.data() + From : Str.data(), Str.size());
  }
  Cells.push_back(Cell);
  return {Slots.data() + Cell.SlotBegin, NumSlots};
}

CellIdx Heap::allocObject(ClassId C) {
  assert(!Prog.classDef(C).IsAbstract && "allocating an abstract class");
  const std::vector<Field> &L = Prog.layout(C);
  std::span<Value> Fields =
      appendCell(CellKind::Object, C, -1, uint32_t(L.size()), {});
  for (size_t K = 0; K < L.size(); ++K)
    Fields[K] = zeroValue(Prog.type(L[K].Type));
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::allocArray(TypeId ArrayTy, int64_t Len) {
  assert(Len >= 0 && Len <= int64_t(UINT32_MAX) && "array length out of range");
  const TypeInfo &T = Prog.type(ArrayTy);
  assert(T.Kind == TypeKind::Array && "allocArray with non-array type");
  std::span<Value> Elems =
      appendCell(CellKind::Array, -1, ArrayTy, uint32_t(Len), {});
  Value Zero = zeroValue(Prog.type(T.Elem));
  if (!Zero.isNull())
    std::fill(Elems.begin(), Elems.end(), Zero);
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::allocString(std::string_view S) {
  appendCell(CellKind::String, -1, -1, 0, S);
  return CellIdx(Cells.size() - 1);
}

size_t Heap::findSlot(std::string_view S, uint32_t Hash) const {
  size_t Mask = Interned.size() - 1;
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    const InternSlot &B = Interned[I];
    if (B.Cell == -1 || (B.Hash == Hash && str(B.Cell) == S))
      return I;
  }
}

void Heap::insertInterned(CellIdx C, uint32_t Hash) {
  if (2 * (NumInterned + 1) > Interned.size()) {
    std::vector<InternSlot> Old = std::move(Interned);
    Interned.assign(std::max<size_t>(64, 2 * Old.size()), InternSlot());
    size_t Mask = Interned.size() - 1;
    for (const InternSlot &B : Old) {
      if (B.Cell == -1)
        continue;
      size_t I = B.Hash & Mask;
      while (Interned[I].Cell != -1)
        I = (I + 1) & Mask;
      Interned[I] = B;
    }
  }
  Interned[findSlot(str(C), Hash)] = {C, Hash};
  ++NumInterned;
}

CellIdx Heap::internedCell(std::string_view S) const {
  if (Interned.empty())
    return -1;
  return Interned[findSlot(S, hashOf(S))].Cell;
}

CellIdx Heap::internString(std::string_view S) {
  uint32_t Hash = hashOf(S);
  if (!Interned.empty())
    if (CellIdx C = Interned[findSlot(S, Hash)].Cell; C != -1)
      return C;
  CellIdx C = allocString(S);
  insertInterned(C, Hash);
  return C;
}

void Heap::registerInterned(CellIdx C) {
  assert(cell(C).Kind == CellKind::String && "interning a non-string");
  std::string_view S = str(C);
  if (internedCell(S) == -1)
    insertInterned(C, hashOf(S));
}

bool Heap::isInterned(CellIdx C) const {
  return cell(C).Kind == CellKind::String && internedCell(str(C)) == C;
}

std::vector<CellIdx> Heap::collectGarbage(const std::vector<CellIdx> &Roots) {
  std::vector<bool> Live(Cells.size(), false);
  std::vector<CellIdx> Work;
  auto Mark = [&](CellIdx C) {
    if (C >= 0 && !Live[size_t(C)]) {
      Live[size_t(C)] = true;
      Work.push_back(C);
    }
  };
  for (CellIdx R : Roots)
    Mark(R);
  for (const InternSlot &B : Interned)
    Mark(B.Cell);
  while (!Work.empty()) {
    CellIdx C = Work.back();
    Work.pop_back();
    for (const Value &V : slots(C))
      if (V.isRef())
        Mark(V.Ref);
  }

  std::vector<CellIdx> NewIdx(Cells.size(), -1);
  CellIdx Next = 0;
  for (size_t C = 0; C < Cells.size(); ++C)
    if (Live[C])
      NewIdx[C] = Next++;
  // Survivors keep their order, so each one's ranges move down to the end
  // of the survivors before it: compact every table in place.
  size_t SlotEnd = 0, CharEnd = 0;
  for (size_t C = 0; C < Cells.size(); ++C) {
    if (!Live[C])
      continue;
    HeapCell Cell = Cells[C];
    if (Cell.NumSlots > 0)
      std::memmove(Slots.data() + SlotEnd, Slots.data() + Cell.SlotBegin,
                   Cell.NumSlots * sizeof(Value));
    Cell.SlotBegin = uint32_t(SlotEnd);
    SlotEnd += Cell.NumSlots;
    for (Value &V : std::span<Value>(Slots.data() + Cell.SlotBegin,
                                     Cell.NumSlots))
      if (V.isRef())
        V.Ref = NewIdx[size_t(V.Ref)];
    if (Cell.StrLen > 0)
      std::memmove(Chars.data() + CharEnd, Chars.data() + Cell.StrBegin,
                   Cell.StrLen);
    Cell.StrBegin = CharEnd;
    CharEnd += Cell.StrLen;
    Cells[size_t(NewIdx[C])] = Cell;
  }
  Cells.resize(size_t(Next));
  Slots.resize(SlotEnd);
  Chars.resize(CharEnd);
  Cells.shrink_to_fit();
  Slots.shrink_to_fit();
  Chars.shrink_to_fit();
  // Interned cells are roots, so every bucket's cell survived; contents and
  // thus hashes are unchanged, so each bucket stays where it is.
  for (InternSlot &B : Interned)
    if (B.Cell != -1)
      B.Cell = NewIdx[size_t(B.Cell)];
  return NewIdx;
}

uint32_t Heap::cellSizeBytes(CellIdx C) const {
  const HeapCell &Cell = cell(C);
  if (Cell.Kind == CellKind::String)
    return 24 + ((Cell.StrLen + 7) & ~7u);
  return 16 + 8 * Cell.NumSlots;
}

const std::string &Heap::cellTypeName(CellIdx C) const {
  const HeapCell &Cell = cell(C);
  switch (Cell.Kind) {
  case CellKind::Object:
    return Prog.classDef(Cell.Class).Name;
  case CellKind::Array:
    return Prog.typeName(Cell.ArrayType);
  case CellKind::String:
    return Prog.typeName(Prog.stringType());
  }
  // Unreachable; keep the compiler satisfied.
  return Prog.typeName(Prog.stringType());
}
