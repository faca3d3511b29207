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
/// allocations). Cells do not record whether they are in the image: the
/// snapshot maps build-heap cells to its entries (HeapSnapshot::EntryOfCell,
/// read through `entryOf`). A cell whose entry is stored lives in the
/// image's .svm_heap section and its first access faults pages; cells
/// whose entry the PEA-style pass elided, and cells allocated at run time,
/// live in RAM only.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_HEAP_HEAP_H
#define NIMG_HEAP_HEAP_H

#include "src/ir/Program.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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
/// Trivially copyable: the slots and characters live in the owning heap's
/// arenas, and the cell names them by range. Objects and arrays have no
/// characters; strings have no slots.
struct HeapCell {
  CellKind Kind = CellKind::Object;
  ClassId Class = -1;      ///< For objects: the dynamic class.
  TypeId ArrayType = -1;   ///< For arrays: the array type (element derivable).
  uint32_t SlotBegin = 0; ///< First slot in the heap's value arena.
  uint32_t NumSlots = 0;  ///< Fields (layout order) or elements.
  uint32_t StrLen = 0;    ///< For strings: the length in bytes.
  uint64_t StrBegin = 0;  ///< For strings: the first byte in the char arena.
};

/// The heap: an append-only cell table over one value arena and one char
/// arena, plus a string intern table of cell indices hashed by content.
/// Slot counts are fixed at allocation and strings are immutable, so each
/// cell's ranges never move within their arena; copying a heap copies four
/// flat vectors.
///
/// The spans and views the accessors return point into the arenas, which
/// an allocation may move: never hold one across an allocation (allocObject,
/// allocArray, allocString, internString, appendCell) on the same heap.
class Heap {
public:
  explicit Heap(const Program &P) : Prog(P) {}

  /// Allocates an object of class \p C with zero-initialized fields.
  CellIdx allocObject(ClassId C);
  /// Allocates an array of \p Len elements of array type \p ArrayTy.
  CellIdx allocArray(TypeId ArrayTy, int64_t Len);
  /// Allocates a (non-interned) string cell. \p S may view this heap's own
  /// characters (a substring of another cell).
  CellIdx allocString(std::string_view S);
  /// Returns the interned cell for \p S, allocating it on first use.
  /// Interned strings become InternedString heap roots (Sec. 5.3).
  CellIdx internString(std::string_view S);
  /// Returns the interned cell for \p S, or -1 when \p S was never
  /// interned. The read-only lookup for code that must not grow the heap.
  CellIdx internedCell(std::string_view S) const;
  /// Returns true if \p C is an interned string cell.
  bool isInterned(CellIdx C) const;
  /// Registers an existing string cell as the interned instance for its
  /// contents. Used when deserializing a heap; the first registration for
  /// a given content wins.
  void registerInterned(CellIdx C);

  /// Appends a cell as given, without the checks and zero values of the
  /// alloc* calls: \p NumSlots null slots, returned for the caller to fill
  /// in before its next allocation, and a copy of \p Str. The image loader
  /// builds cells this way after validating them.
  std::span<Value> appendCell(CellKind Kind, ClassId Class, TypeId ArrayTy,
                              uint32_t NumSlots, std::string_view Str);
  /// Reserves room for \p NumCells more cells.
  void reserveCells(size_t NumCells) {
    Cells.reserve(Cells.size() + NumCells);
  }

  /// Drops every cell that neither \p Roots nor the intern table reaches
  /// and renumbers the survivors densely, in their original order, with
  /// the arenas compacted to match. Returns the old-to-new index map (-1
  /// for dropped cells) so the caller can remap references held outside
  /// the heap.
  std::vector<CellIdx> collectGarbage(const std::vector<CellIdx> &Roots);

  const HeapCell &cell(CellIdx C) const {
    assert(C >= 0 && size_t(C) < Cells.size() && "invalid cell index");
    return Cells[size_t(C)];
  }
  /// The fields or elements of \p C (empty for strings).
  std::span<Value> slots(CellIdx C) {
    const HeapCell &Cell = cell(C);
    return {Slots.data() + Cell.SlotBegin, Cell.NumSlots};
  }
  std::span<const Value> slots(CellIdx C) const {
    const HeapCell &Cell = cell(C);
    return {Slots.data() + Cell.SlotBegin, Cell.NumSlots};
  }
  /// The characters of string cell \p C (empty for objects and arrays).
  std::string_view str(CellIdx C) const {
    const HeapCell &Cell = cell(C);
    return {Chars.data() + Cell.StrBegin, Cell.StrLen};
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
  /// One intern-table bucket: an interned string cell and its content hash.
  struct InternSlot {
    CellIdx Cell = -1; ///< -1 when the bucket is empty.
    uint32_t Hash = 0;
  };

  static uint32_t hashOf(std::string_view S) {
    return uint32_t(std::hash<std::string_view>()(S));
  }
  /// Returns the bucket holding \p S, or the empty bucket where it belongs.
  size_t findSlot(std::string_view S, uint32_t Hash) const;
  /// Records string cell \p C, whose content the table does not hold yet.
  void insertInterned(CellIdx C, uint32_t Hash);

  const Program &Prog;
  std::vector<HeapCell> Cells;
  std::vector<Value> Slots;
  std::vector<char> Chars;
  /// Open addressing with linear probing; the size is zero or a power of
  /// two at most half full.
  std::vector<InternSlot> Interned;
  size_t NumInterned = 0;
};

static_assert(std::is_trivially_copyable_v<Value> &&
              std::is_trivially_copyable_v<HeapCell>);

} // namespace nimg

#endif // NIMG_HEAP_HEAP_H
