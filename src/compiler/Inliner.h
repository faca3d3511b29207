//===- Inliner.h - Size-driven inlining into compilation units -*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forms compilation units (CUs): every compiled method becomes the root of
/// one CU, and callees are inlined greedily under size budgets (Sec. 2: "A
/// CU consists of a root method, and all the methods that were inlined into
/// that root method"). Virtual call sites inline only when the reachability
/// analysis proves them monomorphic (guarded at run time by the execution
/// engine, mirroring guarded devirtualization).
///
/// The instrumented build computes sizes including tracing probes, so its
/// inlining decisions — and therefore its CU set and default heap-snapshot
/// order — diverge from the optimized build's. That divergence is exactly
/// the cross-build object-matching problem of Sec. 5.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_COMPILER_INLINER_H
#define NIMG_COMPILER_INLINER_H

#include "src/compiler/Reachability.h"
#include "src/ir/Program.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace nimg {

/// One inlined method body placed inside a CU. Copy 0 is the root method.
struct InlineCopy {
  MethodId Method = -1;
  int32_t ParentCopy = -1;  ///< Copy whose call site this was inlined into.
  uint32_t SiteId = 0;      ///< Call site (makeSiteId) in the parent copy.
  uint32_t CodeOffset = 0;  ///< Byte offset within the CU's code blob.
  uint32_t CodeSize = 0;    ///< Byte size of this copy.
};

/// A compilation unit: the unit of code placement in .text.
struct CompilationUnit {
  MethodId Root = -1;
  std::vector<InlineCopy> Copies;
  uint32_t CodeSize = 0;
  /// (siteKey(ParentCopy, SiteId), copy) for every inlined copy, sorted by
  /// key, with the lowest copy index kept for a repeated key. Derived from
  /// Copies by buildInlineMap(); never serialized.
  std::vector<std::pair<uint64_t, int32_t>> InlineMap;

  static uint64_t siteKey(int32_t Copy, uint32_t SiteId) {
    return (uint64_t(uint32_t(Copy)) << 32) | SiteId;
  }

  /// Rebuilds InlineMap from Copies.
  void buildInlineMap() {
    InlineMap.clear();
    InlineMap.reserve(Copies.size());
    for (size_t K = 1; K < Copies.size(); ++K)
      InlineMap.emplace_back(siteKey(Copies[K].ParentCopy, Copies[K].SiteId),
                             int32_t(K));
    std::sort(InlineMap.begin(), InlineMap.end());
    InlineMap.erase(std::unique(InlineMap.begin(), InlineMap.end(),
                                [](const auto &A, const auto &B) {
                                  return A.first == B.first;
                                }),
                    InlineMap.end());
  }

  /// Returns the inlined copy index for a call from \p Copy at \p SiteId
  /// targeting \p Target, or -1 when the call is not inlined (or the
  /// devirtualization guard fails).
  int32_t inlinedCopyFor(int32_t Copy, uint32_t SiteId,
                         MethodId Target) const {
    uint64_t Key = siteKey(Copy, SiteId);
    auto It = std::lower_bound(
        InlineMap.begin(), InlineMap.end(), Key,
        [](const std::pair<uint64_t, int32_t> &E, uint64_t K) {
          return E.first < K;
        });
    if (It == InlineMap.end() || It->first != Key)
      return -1;
    return Copies[size_t(It->second)].Method == Target ? It->second : -1;
  }
};

struct InlinerConfig {
  uint32_t TrivialSize = 48;  ///< Always inline bodies at or below this.
  uint32_t SmallSize = 180;   ///< Inline up to this when depth allows.
  uint32_t MaxCuSize = 2400;  ///< CU code-size budget in bytes.
  int MaxDepth = 4;
};

/// The compiled program: CU per compiled method, in the default (.text
/// alphabetical-by-root-signature) order.
struct CompiledProgram {
  bool Instrumented = false;
  std::vector<CompilationUnit> CUs;
  std::vector<int32_t> CuOfMethod; ///< MethodId -> CU index or -1.
  /// Hash over all inlining decisions; PEA-style snapshot elision keys off
  /// it so snapshot contents follow inlining divergence (Sec. 2).
  uint64_t InlineFingerprint = 0;
  /// Roots whose compile task threw: each degraded to a root-only CU (no
  /// inlining, no fingerprint contribution) instead of failing the build.
  /// The Builder surfaces these through the image's ProfileDiag.
  std::vector<std::pair<MethodId, std::string>> CompileFaults;

  const CompilationUnit &cuOf(MethodId M) const {
    return CUs[size_t(CuOfMethod[size_t(M)])];
  }
  size_t totalCodeSize() const {
    size_t S = 0;
    for (const CompilationUnit &CU : CUs)
      S += CU.CodeSize;
    return S;
  }
};

/// Builds compilation units for every compiled reachable method, one per
/// root in signature order (the default .text order).
CompiledProgram buildCompilationUnits(const Program &P,
                                      const ReachabilityResult &Reach,
                                      const InlinerConfig &Config,
                                      bool Instrumented);

/// Test-only fault injection: when set, a compile task whose root makes
/// the hook return true throws mid-build (exercising the Builder's
/// degradation policy). Install/clear only while no build is running; pass
/// nullptr to clear.
void setCompileFaultHookForTest(std::function<bool(MethodId Root)> Hook);

/// Whether a compile-fault hook is installed. A build made while one is
/// armed is neither served from nor stored in a program's build cache.
bool compileFaultHookArmed();

} // namespace nimg

#endif // NIMG_COMPILER_INLINER_H
