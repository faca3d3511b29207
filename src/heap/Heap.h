//===- Heap.h - Runtime values and heap cells -------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tagged runtime values and the heap used both at build time (to execute
/// static initializers and snapshot the resulting object graph, Sec. 2
/// "Heap Snapshotting") and at run time (the image heap plus runtime
/// allocations). Cells carry a snapshot index: cells with a nonnegative
/// index live in the image's .svm_heap section and their first access
/// faults pages; cells with index -1 are runtime-allocated (RAM only).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_HEAP_HEAP_H
#define NIMG_HEAP_HEAP_H

#include "src/ir/Program.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace nimg {

using CellIdx = int32_t;

enum class ValueKind : uint8_t { Null, Int, Double, Bool, Ref };

/// A tagged runtime value. Strings are heap cells, so references cover
/// objects, arrays, and strings uniformly.
struct Value {
  ValueKind Kind = ValueKind::Null;
  union {
    int64_t I;
    double D;
    CellIdx Ref;
  };

  Value() : I(0) {}

  static Value makeNull() { return Value(); }
  static Value makeInt(int64_t V) {
    Value R;
    R.Kind = ValueKind::Int;
    R.I = V;
    return R;
  }
  static Value makeDouble(double V) {
    Value R;
    R.Kind = ValueKind::Double;
    R.D = V;
    return R;
  }
  static Value makeBool(bool V) {
    Value R;
    R.Kind = ValueKind::Bool;
    R.I = V ? 1 : 0;
    return R;
  }
  static Value makeRef(CellIdx C) {
    Value R;
    R.Kind = ValueKind::Ref;
    R.Ref = C;
    return R;
  }

  bool isNull() const { return Kind == ValueKind::Null; }
  bool isRef() const { return Kind == ValueKind::Ref; }
  int64_t asInt() const {
    assert(Kind == ValueKind::Int && "value is not an int");
    return I;
  }
  double asDouble() const {
    assert(Kind == ValueKind::Double && "value is not a double");
    return D;
  }
  bool asBool() const {
    assert(Kind == ValueKind::Bool && "value is not a bool");
    return I != 0;
  }
  CellIdx asRef() const {
    assert(Kind == ValueKind::Ref && "value is not a reference");
    return Ref;
  }

  friend bool operator==(const Value &A, const Value &B) {
    if (A.Kind != B.Kind)
      return false;
    switch (A.Kind) {
    case ValueKind::Null:
      return true;
    case ValueKind::Double:
      return A.D == B.D;
    default:
      return A.I == B.I;
    }
  }
};

enum class CellKind : uint8_t { Object, Array, String };

/// One heap cell: an object (fields), an array (elements), or a string.
struct HeapCell {
  CellKind Kind = CellKind::Object;
  ClassId Class = -1;      ///< For objects: the dynamic class.
  TypeId ArrayType = -1;   ///< For arrays: the array type (element derivable).
  std::vector<Value> Slots; ///< Fields (layout order) or elements.
  std::string Str;          ///< For strings.
  /// Position in the image heap snapshot; -1 when runtime-allocated or
  /// elided from the snapshot by the PEA-style pass (Sec. 2 "Heap
  /// Snapshotting": stack-allocated / constant-folded objects).
  int32_t SnapshotIndex = -1;
};

/// The heap: an append-only cell store plus a string intern table.
class Heap {
public:
  explicit Heap(const Program &P) : Prog(P) {}

  /// Allocates an object of class \p C with zero-initialized fields.
  CellIdx allocObject(ClassId C);
  /// Allocates an array of \p Len elements of array type \p ArrayTy.
  CellIdx allocArray(TypeId ArrayTy, int64_t Len);
  /// Allocates a (non-interned) string cell.
  CellIdx allocString(std::string S);
  /// Returns the interned cell for \p S, allocating it on first use.
  /// Interned strings become InternedString heap roots (Sec. 5.3).
  CellIdx internString(const std::string &S);
  /// Returns the interned cell for \p S, or -1 when \p S was never
  /// interned. The read-only lookup for code that must not grow the heap.
  CellIdx internedCell(const std::string &S) const {
    auto It = InternTable.find(S);
    return It == InternTable.end() ? -1 : It->second;
  }
  /// Returns true if \p C is an interned string cell.
  bool isInterned(CellIdx C) const;
  /// Registers an existing string cell as the interned instance for its
  /// contents. Used when deserializing a heap; the first registration for
  /// a given content wins.
  void registerInterned(CellIdx C) {
    assert(cell(C).Kind == CellKind::String && "interning a non-string");
    InternTable.emplace(cell(C).Str, C);
  }

  /// Drops every cell that neither \p Roots nor the intern table reaches
  /// and renumbers the survivors densely, in their original order. Returns
  /// the old-to-new index map (-1 for dropped cells) so the caller can
  /// remap references held outside the heap.
  std::vector<CellIdx> collectGarbage(const std::vector<CellIdx> &Roots);

  HeapCell &cell(CellIdx C) {
    assert(C >= 0 && size_t(C) < Cells.size() && "invalid cell index");
    return Cells[size_t(C)];
  }
  const HeapCell &cell(CellIdx C) const {
    assert(C >= 0 && size_t(C) < Cells.size() && "invalid cell index");
    return Cells[size_t(C)];
  }
  size_t numCells() const { return Cells.size(); }

  const Program &program() const { return Prog; }

  /// Returns the modeled size in bytes of \p C in the image heap:
  /// a 16-byte header plus 8 bytes per slot; strings round their bytes up
  /// to 8.
  uint32_t cellSizeBytes(CellIdx C) const;

  /// Returns the fully qualified type name of the value in \p C
  /// ("som.Vector", "int[]", "String").
  const std::string &cellTypeName(CellIdx C) const;

  /// Returns the zero value for a declared type.
  static Value zeroValue(const TypeInfo &T);

private:
  const Program &Prog;
  std::vector<HeapCell> Cells;
  std::unordered_map<std::string, CellIdx> InternTable;
};

} // namespace nimg

#endif // NIMG_HEAP_HEAP_H
