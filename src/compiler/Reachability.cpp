//===- Reachability.cpp - RTA-style reachability with saturation -----------===//

#include "src/compiler/Reachability.h"

#include <algorithm>
#include <cassert>

using namespace nimg;

namespace {

/// Selector target count beyond which dispatch saturates.
constexpr int SaturationThreshold = 8;

class Analyzer {
public:
  explicit Analyzer(const Program &P) : P(P) {
    R.ReachableMethods.assign(P.numMethods(), false);
    R.InstantiatedClasses.assign(P.numClasses(), false);
    R.ReachableClasses.assign(P.numClasses(), false);
    SelectorTargets.clear();
  }

  ReachabilityResult run() {
    assert(P.MainMethod != -1 && "reachability requires an entry point");
    addMethod(P.MainMethod);
    markClassReachable(P.method(P.MainMethod).Class);
    while (!Worklist.empty()) {
      MethodId M = Worklist.back();
      Worklist.pop_back();
      scanMethod(M);
    }
    // Convert per-selector target sets to the saturation bit vector.
    size_t MaxSelector = 0;
    for (size_t M = 0; M < P.numMethods(); ++M)
      if (P.method(MethodId(M)).Selector >= 0)
        MaxSelector = std::max(MaxSelector,
                               size_t(P.method(MethodId(M)).Selector) + 1);
    R.SaturatedSelectors.assign(MaxSelector, false);
    for (const auto &[Sel, Targets] : SelectorTargets)
      if (int(Targets.size()) > SaturationThreshold)
        R.SaturatedSelectors[size_t(Sel)] = true;
    return std::move(R);
  }

private:
  void addMethod(MethodId M) {
    if (M < 0 || R.ReachableMethods[size_t(M)])
      return;
    const Method &Meth = P.method(M);
    if (Meth.IsAbstract)
      return;
    R.ReachableMethods[size_t(M)] = true;
    Worklist.push_back(M);
  }

  void markClassReachable(ClassId C) {
    for (ClassId Cur = C; Cur != -1; Cur = P.classDef(Cur).Super) {
      if (R.ReachableClasses[size_t(Cur)])
        break;
      R.ReachableClasses[size_t(Cur)] = true;
      // Static initializers of reachable classes execute during the image
      // build; their code contributes to reachability.
      if (P.classDef(Cur).Clinit != -1)
        addMethod(P.classDef(Cur).Clinit);
    }
  }

  void markInstantiated(ClassId C) {
    if (R.InstantiatedClasses[size_t(C)])
      return;
    R.InstantiatedClasses[size_t(C)] = true;
    markClassReachable(C);
    // Re-dispatch every recorded virtual site against the new class.
    for (MethodId Declared : VirtualSites)
      dispatchSite(Declared, C);
  }

  void dispatchSite(MethodId Declared, ClassId Receiver) {
    const Method &Decl = P.method(Declared);
    if (!P.isSubclassOf(Receiver, Decl.Class))
      return;
    MethodId Target = P.resolveVirtual(Receiver, Declared);
    if (Target == -1)
      return;
    recordSelectorTarget(Decl.Selector, Target);
    addMethod(Target);
  }

  void recordSelectorTarget(SelectorId Sel, MethodId Target) {
    auto &Targets = SelectorTargets[Sel];
    if (std::find(Targets.begin(), Targets.end(), Target) != Targets.end())
      return;
    Targets.push_back(Target);
    // Saturation: once a selector exceeds the threshold, conservatively
    // reach every implementation of the selector program-wide.
    if (int(Targets.size()) == SaturationThreshold + 1) {
      for (size_t M = 0; M < P.numMethods(); ++M) {
        const Method &Meth = P.method(MethodId(M));
        if (Meth.Selector == Sel && !Meth.IsAbstract)
          addMethod(MethodId(M));
      }
    }
  }

  void addVirtualSite(MethodId Declared) {
    if (std::find(VirtualSites.begin(), VirtualSites.end(), Declared) !=
        VirtualSites.end())
      return;
    VirtualSites.push_back(Declared);
    // Dispatch against everything already instantiated.
    for (size_t C = 0; C < P.numClasses(); ++C)
      if (R.InstantiatedClasses[C])
        dispatchSite(Declared, ClassId(C));
  }

  void scanMethod(MethodId M) {
    const Method &Meth = P.method(M);
    for (const BasicBlock &BB : Meth.Blocks) {
      for (const Instr &In : BB.Instrs) {
        switch (In.Op) {
        case Opcode::CallStatic:
          markClassReachable(P.method(In.Aux).Class);
          addMethod(In.Aux);
          break;
        case Opcode::CallVirtual:
          addVirtualSite(In.Aux);
          break;
        case Opcode::CallNative:
          if (NativeId(In.Aux) == NativeId::Spawn) {
            markClassReachable(P.method(In.Aux2).Class);
            addMethod(In.Aux2);
          }
          break;
        case Opcode::NewObject:
          markInstantiated(In.Aux);
          break;
        case Opcode::GetStatic:
        case Opcode::PutStatic:
          markClassReachable(In.Aux);
          break;
        default:
          break;
        }
      }
    }
  }

  const Program &P;
  ReachabilityResult R;
  std::vector<MethodId> Worklist;
  std::vector<MethodId> VirtualSites; ///< Declared methods of virtual calls.
  std::unordered_map<SelectorId, std::vector<MethodId>> SelectorTargets;
};

} // namespace

ReachabilityResult nimg::analyzeReachability(const Program &P) {
  return Analyzer(P).run();
}

std::vector<MethodId>
ReachabilityResult::compiledMethods(const Program &P) const {
  std::vector<MethodId> Out;
  for (size_t M = 0; M < P.numMethods(); ++M) {
    if (!ReachableMethods[M])
      continue;
    const Method &Meth = P.method(MethodId(M));
    if (Meth.IsClinit || Meth.IsAbstract)
      continue;
    Out.push_back(MethodId(M));
  }
  return Out;
}

std::vector<ClassId>
ReachabilityResult::buildTimeInitClasses(const Program &P) const {
  std::vector<ClassId> Out;
  for (size_t C = 0; C < P.numClasses(); ++C)
    if (ReachableClasses[C])
      Out.push_back(ClassId(C));
  return Out;
}

size_t ReachabilityResult::numReachableMethods() const {
  size_t N = 0;
  for (bool B : ReachableMethods)
    N += B;
  return N;
}

std::vector<MethodId>
ReachabilityResult::reachableTargets(const Program &P,
                                     MethodId Declared) const {
  const Method &Decl = P.method(Declared);
  std::vector<MethodId> Out;
  for (size_t C = 0; C < P.numClasses(); ++C) {
    if (!InstantiatedClasses[C])
      continue;
    if (!P.isSubclassOf(ClassId(C), Decl.Class))
      continue;
    MethodId Target = P.resolveVirtual(ClassId(C), Declared);
    if (Target == -1)
      continue;
    if (std::find(Out.begin(), Out.end(), Target) == Out.end())
      Out.push_back(Target);
  }
  return Out;
}

bool ReachabilityResult::isMonomorphic(const Program &P,
                                       MethodId Declared) const {
  const Method &Decl = P.method(Declared);
  if (Decl.Selector >= 0 && size_t(Decl.Selector) < SaturatedSelectors.size() &&
      SaturatedSelectors[size_t(Decl.Selector)])
    return false;
  return reachableTargets(P, Declared).size() == 1;
}
