//===- Heap.cpp - Runtime values and heap cells ----------------------------===//

#include "src/heap/Heap.h"

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

CellIdx Heap::allocObject(ClassId C) {
  assert(!Prog.classDef(C).IsAbstract && "allocating an abstract class");
  HeapCell Cell;
  Cell.Kind = CellKind::Object;
  Cell.Class = C;
  const std::vector<Field> &L = Prog.layout(C);
  Cell.Slots.reserve(L.size());
  for (const Field &F : L)
    Cell.Slots.push_back(zeroValue(Prog.type(F.Type)));
  Cells.push_back(std::move(Cell));
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::allocArray(TypeId ArrayTy, int64_t Len) {
  assert(Len >= 0 && "negative array length");
  const TypeInfo &T = Prog.type(ArrayTy);
  assert(T.Kind == TypeKind::Array && "allocArray with non-array type");
  HeapCell Cell;
  Cell.Kind = CellKind::Array;
  Cell.ArrayType = ArrayTy;
  Cell.Slots.assign(size_t(Len), zeroValue(Prog.type(T.Elem)));
  Cells.push_back(std::move(Cell));
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::allocString(std::string S) {
  HeapCell Cell;
  Cell.Kind = CellKind::String;
  Cell.Str = std::move(S);
  Cells.push_back(std::move(Cell));
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::internString(const std::string &S) {
  auto It = InternTable.find(S);
  if (It != InternTable.end())
    return It->second;
  CellIdx C = allocString(S);
  InternTable.emplace(S, C);
  return C;
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
  for (const auto &[S, C] : InternTable)
    Mark(C);
  while (!Work.empty()) {
    CellIdx C = Work.back();
    Work.pop_back();
    for (const Value &V : Cells[size_t(C)].Slots)
      if (V.isRef())
        Mark(V.Ref);
  }

  std::vector<CellIdx> NewIdx(Cells.size(), -1);
  CellIdx Next = 0;
  for (size_t C = 0; C < Cells.size(); ++C)
    if (Live[C])
      NewIdx[C] = Next++;
  std::vector<HeapCell> Kept;
  Kept.reserve(size_t(Next));
  for (size_t C = 0; C < Cells.size(); ++C) {
    if (!Live[C])
      continue;
    HeapCell &Cell = Cells[C];
    for (Value &V : Cell.Slots)
      if (V.isRef())
        V.Ref = NewIdx[size_t(V.Ref)];
    Kept.push_back(std::move(Cell));
  }
  Cells = std::move(Kept);
  for (auto &[S, C] : InternTable)
    C = NewIdx[size_t(C)];
  return NewIdx;
}

bool Heap::isInterned(CellIdx C) const {
  const HeapCell &Cell = cell(C);
  if (Cell.Kind != CellKind::String)
    return false;
  auto It = InternTable.find(Cell.Str);
  return It != InternTable.end() && It->second == C;
}

uint32_t Heap::cellSizeBytes(CellIdx C) const {
  const HeapCell &Cell = cell(C);
  if (Cell.Kind == CellKind::String) {
    uint32_t Bytes = uint32_t(Cell.Str.size());
    return 24 + ((Bytes + 7) & ~7u);
  }
  return 16 + 8 * uint32_t(Cell.Slots.size());
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
