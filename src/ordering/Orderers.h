//===- Orderers.h - Code and heap ordering steps -----------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ordering steps of the optimizing build. Code ordering (Sec. 4)
/// permutes compilation units by the first-execution position of their
/// root (cu ordering) or of any contained method (method ordering),
/// approximating Property 1. Heap ordering (Sec. 5) matches this build's
/// snapshot objects against the profile's 64-bit ids and places matched
/// objects first, in profile order; unmatched objects keep the default
/// order behind them.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_ORDERING_ORDERERS_H
#define NIMG_ORDERING_ORDERERS_H

#include "src/compiler/Inliner.h"
#include "src/heap/Snapshot.h"
#include "src/ordering/IdStrategies.h"
#include "src/profiling/Analyses.h"

#include <span>
#include <vector>

namespace nimg {

enum class CodeStrategy : uint8_t { None, CuOrder, MethodOrder, Cluster };

const char *codeStrategyName(CodeStrategy S);

/// Returns CU indices in .text placement order. Profiled CUs come first in
/// profile position; unprofiled CUs follow in the default (alphabetical)
/// order. MethodOrder ranks a CU by the minimum profile position over its
/// root and all inlined methods; CuOrder and Cluster rank by the root
/// alone (a cluster profile is a permutation of the cu profile's CU set,
/// already arranged by the call-graph solver — see
/// src/ordering/ClusterLayout.h).
///
/// Signatures match by their 64-bit hashes, then by their strings, so a
/// collision reorders nothing. \p SigHashes holds methodSigHashes(P),
/// which a caller that orders many times keeps (the builder keeps it per
/// program version); the overload without it hashes every signature.
std::vector<int32_t> orderCusWithProfile(const Program &P,
                                         const CompiledProgram &CP,
                                         const CodeProfile &Profile,
                                         CodeStrategy Strategy,
                                         std::span<const uint64_t> SigHashes);
std::vector<int32_t> orderCusWithProfile(const Program &P,
                                         const CompiledProgram &CP,
                                         const CodeProfile &Profile,
                                         CodeStrategy Strategy);

/// The signature hash orderCusWithProfile matches by, of every method of
/// \p P, indexed by method id.
std::vector<uint64_t> methodSigHashes(const Program &P);

/// Statistics of a heap-matching pass.
struct HeapMatchStats {
  size_t ProfileIds = 0;  ///< Ids in the profile.
  size_t Matched = 0;     ///< Profile ids matched to a snapshot object.
  size_t Stored = 0;      ///< Stored objects in this build's snapshot.
};

/// Returns stored snapshot entry indices in .svm_heap placement order:
/// profile-matched objects first (profile order), then the rest in default
/// traversal order. Ids may collide or repeat; each profile id consumes
/// the first not-yet-placed object bearing that id.
std::vector<int32_t> orderObjectsWithProfile(const HeapSnapshot &Snap,
                                             const IdTable &Ids,
                                             HeapStrategy Strategy,
                                             const HeapProfile &Profile,
                                             HeapMatchStats *Stats = nullptr);

} // namespace nimg

#endif // NIMG_ORDERING_ORDERERS_H
