//===- Inliner.cpp - Size-driven inlining into compilation units ----------===//

#include "src/compiler/Inliner.h"

#include "src/compiler/CodeSize.h"
#include "src/support/Murmur3.h"
#include "src/support/SplitMix64.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

using namespace nimg;

namespace {

std::function<bool(MethodId)> &compileFaultHook() {
  static std::function<bool(MethodId)> Hook;
  return Hook;
}

/// Result of compiling one root. Decisions made while building a CU depend
/// only on that CU's own state; the global InlineFingerprint is the mix64
/// fold of every CU's DecisionHashes in root order.
struct CuResult {
  CompilationUnit CU;
  std::vector<uint64_t> DecisionHashes;
  bool Faulted = false;
  std::string FaultWhat;
};

/// Compiles one CU: the root method plus greedy size-budgeted inlining.
class CuCompiler {
public:
  CuCompiler(const Program &P, const ReachabilityResult &Reach,
             const InlinerConfig &Config, bool Instrumented)
      : P(P), Reach(Reach), Config(Config), Instrumented(Instrumented) {}

  CuResult compile(MethodId Root) {
    CuResult R;
    R.CU.Root = Root;
    InlineCopy RootCopy;
    RootCopy.Method = Root;
    RootCopy.CodeOffset = 0;
    RootCopy.CodeSize = methodCodeSize(P, Root, Instrumented);
    R.CU.CodeSize = RootCopy.CodeSize;
    R.CU.Copies.push_back(RootCopy);
    Chain.clear();
    Chain.push_back(Root);
    inlineInto(R, 0, 1);
    return R;
  }

  /// The degraded CU used when the compile task for \p Root threw: just the
  /// root body, no inlining, no fingerprint contribution. Deterministic by
  /// construction (depends only on the root's code size).
  static CuResult rootOnly(const Program &P, MethodId Root, bool Instrumented,
                           std::string What) {
    CuResult R;
    R.CU.Root = Root;
    InlineCopy RootCopy;
    RootCopy.Method = Root;
    RootCopy.CodeOffset = 0;
    RootCopy.CodeSize = methodCodeSize(P, Root, Instrumented);
    R.CU.CodeSize = RootCopy.CodeSize;
    R.CU.Copies.push_back(RootCopy);
    R.Faulted = true;
    R.FaultWhat = std::move(What);
    return R;
  }

private:
  MethodId resolveTarget(const Instr &In) const {
    if (In.Op == Opcode::CallStatic)
      return In.Aux;
    if (In.Op != Opcode::CallVirtual)
      return -1;
    if (!Reach.isMonomorphic(P, In.Aux))
      return -1;
    std::vector<MethodId> Targets = Reach.reachableTargets(P, In.Aux);
    return Targets.size() == 1 ? Targets[0] : -1;
  }

  bool shouldInline(MethodId Target, uint32_t Size, const CompilationUnit &CU,
                    int Depth) const {
    const Method &Meth = P.method(Target);
    if (Meth.IsAbstract || Meth.IsClinit)
      return false;
    // No recursive inlining.
    if (std::find(Chain.begin(), Chain.end(), Target) != Chain.end())
      return false;
    if (CU.CodeSize + Size > Config.MaxCuSize)
      return false;
    if (Size <= Config.TrivialSize)
      return true;
    return Size <= Config.SmallSize && Depth < Config.MaxDepth;
  }

  void inlineInto(CuResult &R, int32_t CopyIdx, int Depth) {
    CompilationUnit &CU = R.CU;
    // Note: CU.Copies may reallocate during recursion; index, don't hold
    // references.
    MethodId M = CU.Copies[size_t(CopyIdx)].Method;
    const Method &Meth = P.method(M);
    for (size_t B = 0; B < Meth.Blocks.size(); ++B) {
      const BasicBlock &BB = Meth.Blocks[B];
      for (size_t I = 0; I < BB.Instrs.size(); ++I) {
        const Instr &In = BB.Instrs[I];
        if (In.Op != Opcode::CallStatic && In.Op != Opcode::CallVirtual)
          continue;
        uint32_t Site = makeSiteId(BlockId(B), I);
        MethodId Target = resolveTarget(In);
        if (Target == -1) {
          noteDecision(R, CU.Root, CopyIdx, Site, -1);
          continue;
        }
        uint32_t Size = methodCodeSize(P, Target, Instrumented);
        if (!shouldInline(Target, Size, CU, Depth)) {
          noteDecision(R, CU.Root, CopyIdx, Site, -1);
          continue;
        }
        InlineCopy Copy;
        Copy.Method = Target;
        Copy.ParentCopy = CopyIdx;
        Copy.SiteId = Site;
        Copy.CodeOffset = CU.CodeSize;
        Copy.CodeSize = Size;
        CU.CodeSize += Size;
        int32_t NewIdx = int32_t(CU.Copies.size());
        CU.Copies.push_back(Copy);
        CU.InlineMap.emplace(CompilationUnit::siteKey(CopyIdx, Site), NewIdx);
        noteDecision(R, CU.Root, CopyIdx, Site, Target);
        Chain.push_back(Target);
        inlineInto(R, NewIdx, Depth + 1);
        Chain.pop_back();
      }
    }
  }

  void noteDecision(CuResult &R, MethodId Root, int32_t Copy, uint32_t Site,
                    MethodId Inlined) {
    uint64_t Key = (uint64_t(uint32_t(Root)) << 40) ^
                   (uint64_t(uint32_t(Copy)) << 32) ^ Site;
    R.DecisionHashes.push_back(mix64(Key, uint64_t(Inlined + 2)));
  }

  const Program &P;
  const ReachabilityResult &Reach;
  const InlinerConfig &Config;
  bool Instrumented;
  std::vector<MethodId> Chain;
};

} // namespace

void nimg::setCompileFaultHookForTest(std::function<bool(MethodId)> Hook) {
  compileFaultHook() = std::move(Hook);
}

bool nimg::compileFaultHookArmed() { return bool(compileFaultHook()); }

CompiledProgram nimg::buildCompilationUnits(const Program &P,
                                            const ReachabilityResult &Reach,
                                            const InlinerConfig &Config,
                                            bool Instrumented) {
  CompiledProgram CP;
  CP.Instrumented = Instrumented;
  CP.CuOfMethod.assign(P.numMethods(), -1);

  std::vector<MethodId> Roots = Reach.compiledMethods(P);
  // Default .text order: alphabetical by root signature (Sec. 2).
  std::sort(Roots.begin(), Roots.end(), [&](MethodId A, MethodId B) {
    return P.method(A).Sig < P.method(B).Sig;
  });

  // Each root compiles on its own; a compile that throws degrades to a
  // root-only CU so one bad unit cannot fail the whole build (the Builder
  // records the fault as a ProfileDiag issue). A whole program compiles in
  // about a millisecond and ran no faster on the pool (DESIGN.md § 10).
  CP.CUs.reserve(Roots.size());
  uint64_t Fp = 0x9e3779b97f4a7c15ULL;
  for (MethodId Root : Roots) {
    CuResult R;
    try {
      if (compileFaultHook() && compileFaultHook()(Root))
        throw std::runtime_error("injected compile fault");
      R = CuCompiler(P, Reach, Config, Instrumented).compile(Root);
    } catch (const std::exception &E) {
      R = CuCompiler::rootOnly(P, Root, Instrumented, E.what());
    }
    if (R.Faulted)
      CP.CompileFaults.emplace_back(R.CU.Root, std::move(R.FaultWhat));
    for (uint64_t H : R.DecisionHashes)
      Fp = mix64(Fp, H);
    CP.CuOfMethod[size_t(R.CU.Root)] = int32_t(CP.CUs.size());
    CP.CUs.push_back(std::move(R.CU));
  }
  CP.InlineFingerprint = Fp;
  return CP;
}
