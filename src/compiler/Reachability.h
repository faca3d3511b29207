//===- Reachability.h - RTA-style reachability with saturation -*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to-style reachability analysis the build pipeline runs before
/// compiling (Sec. 2). It is a rapid-type-analysis variant: methods become
/// reachable through calls, classes become instantiated through NewObject,
/// and virtual calls dispatch to implementations in instantiated subclasses.
/// Per the paper, the analysis employs *saturation*: when a dispatch
/// selector accumulates more concrete targets than a threshold, it is
/// marked saturated and conservatively reaches every implementation
/// program-wide (and is never devirtualized). The threshold is 8 targets
/// (Sec. 2 cites saturation per Wimmer et al., PLDI'24).
///
/// The analysis is deliberately conservative — "always includes more code
/// than what is actually reachable or executed at runtime" — which is what
/// makes the default binary layout page-fault heavy and profile-guided
/// reordering worthwhile.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_COMPILER_REACHABILITY_H
#define NIMG_COMPILER_REACHABILITY_H

#include "src/ir/Program.h"

#include <vector>

namespace nimg {

struct ReachabilityResult {
  std::vector<bool> ReachableMethods;    ///< Indexed by MethodId.
  std::vector<bool> InstantiatedClasses; ///< Indexed by ClassId.
  std::vector<bool> ReachableClasses;    ///< Statics used or instantiated.
  std::vector<bool> SaturatedSelectors;  ///< Indexed by SelectorId.

  /// Methods to compile into the image: reachable, concrete, and not a
  /// static initializer (initializers run at build time only, Sec. 2).
  std::vector<MethodId> compiledMethods(const Program &P) const;

  /// Classes whose static initializers run during the image build, in
  /// class-id order (the build permutes this order per its seed).
  std::vector<ClassId> buildTimeInitClasses(const Program &P) const;

  size_t numReachableMethods() const;

  /// True when a virtual call to \p Declared is devirtualizable: exactly
  /// one reachable target and an unsaturated selector.
  bool isMonomorphic(const Program &P, MethodId Declared) const;

  /// The reachable dispatch targets of a virtual call to \p Declared.
  std::vector<MethodId> reachableTargets(const Program &P,
                                         MethodId Declared) const;
};

/// Runs the analysis from Program::MainMethod plus every Sys.spawn target
/// discovered in reachable code.
ReachabilityResult analyzeReachability(const Program &P);

} // namespace nimg

#endif // NIMG_COMPILER_REACHABILITY_H
