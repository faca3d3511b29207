//===- BuildHeap.h - Build-time heap initialization -------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the static initializers of all reachable classes at image build
/// time and produces the build heap that the snapshot is taken from
/// (Sec. 2, "Heap Snapshotting"). Initialization order is a seeded
/// permutation of the reachable classes — this models the paper's
/// observation that "class initializers may be executed in parallel during
/// the build process", making compilation nondeterministic: different
/// builds stamp different initSeq values into class metadata and may
/// produce differently-shaped heaps.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_HEAP_BUILDHEAP_H
#define NIMG_HEAP_BUILDHEAP_H

#include "src/compiler/Reachability.h"
#include "src/heap/Heap.h"
#include "src/ir/Program.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace nimg {

/// Registers the builtin `Class` metadata class (name, id, initSeq fields)
/// in \p P if absent. Must run before reachability analysis so id spaces
/// are stable. Returns the class id.
ClassId ensureClassMetaClass(Program &P);

/// The result of running build-time initialization.
struct BuildHeapResult {
  /// Immutable once initialization returns, so every image of one build
  /// base shares it (each run executes on its own copy).
  std::shared_ptr<const Heap> BuildHeap;
  /// Static-field values after initialization (indexed like
  /// Interpreter::statics()).
  std::vector<std::vector<Value>> Statics;
  /// Classes in initialization-completion order.
  std::vector<ClassId> InitOrder;
  /// Class metadata cell per class id (-1 for unreachable classes).
  std::vector<CellIdx> ClassMetaCells;
  /// Resource name -> string cell (inclusion reason "Resource").
  std::unordered_map<std::string, CellIdx> ResourceCells;
  /// Output printed by static initializers (usually empty).
  std::string BuildOutput;
  /// True when an initializer trapped; the build should be aborted.
  bool Failed = false;
  std::string FailureMessage;
};

/// Runs all reachable static initializers in a \p Seed-permuted order
/// (lazy dependency triggering preserved), creates class-metadata objects
/// and resource cells, and returns the populated heap — without the cells
/// no static, metadata object, resource or interned string reaches.
BuildHeapResult initializeBuildHeap(Program &P,
                                    const ReachabilityResult &Reach,
                                    uint64_t Seed);

} // namespace nimg

#endif // NIMG_HEAP_BUILDHEAP_H
