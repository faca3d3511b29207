//===- BuildHeap.cpp - Build-time heap initialization ----------------------===//

#include "src/heap/BuildHeap.h"

#include "src/runtime/Interpreter.h"
#include "src/support/SplitMix64.h"

#include <utility>

using namespace nimg;

ClassId nimg::ensureClassMetaClass(Program &P) {
  ClassId C = P.findClass("Class");
  if (C != -1)
    return C;
  C = P.addClass("Class");
  ClassDef &Def = P.classDef(C);
  Def.InstanceFields.push_back({"name", P.stringType(), C, true});
  Def.InstanceFields.push_back({"id", P.intType(), C, true});
  Def.InstanceFields.push_back({"initSeq", P.intType(), C, true});
  return C;
}

BuildHeapResult nimg::initializeBuildHeap(Program &P,
                                          const ReachabilityResult &Reach,
                                          uint64_t Seed) {
  BuildHeapResult R;
  auto Owned = std::make_shared<Heap>(P);
  R.BuildHeap = Owned;
  Heap &H = *Owned;

  InterpConfig Cfg;
  Cfg.RunClinits = true;
  Interpreter I(P, H, Cfg);

  // Permuted proactive initialization: the shuffle models the scheduling
  // nondeterminism of parallel class initialization. Lazy triggering inside
  // the interpreter still guarantees dependency order, so results are
  // semantically consistent; only completion order (and thus initSeq)
  // varies.
  std::vector<ClassId> Order = Reach.buildTimeInitClasses(P);
  SplitMix64 Rng(Seed ^ 0xc1a55e5ULL);
  Rng.shuffle(Order);

  for (ClassId C : Order) {
    if (I.clinitState(C) != ClinitState::NotRun)
      continue;
    uint32_t Tid = I.newBareThread();
    I.requestClinit(Tid, C);
    while (!I.threadFinished(Tid)) {
      I.step(Tid, 1'000'000);
      if (I.fuelExhausted()) {
        R.Failed = true;
        R.FailureMessage = "static initializer fuel exhausted for class " +
                           std::as_const(P).classDef(C).Name;
        return R;
      }
    }
    if (I.threadTrapped(Tid)) {
      R.Failed = true;
      R.FailureMessage = "static initializer trapped: " + I.trapMessage(Tid);
      return R;
    }
  }

  // Initializers run once per build base; their decoded code need not
  // stay beside the code of the runs.
  releaseDecodedCode(P);

  // Intern every string literal referenced from reachable code: the image
  // embeds constant pointers to them, so they must exist in the build heap
  // even when no initializer executed the referencing instruction.
  for (size_t M = 0; M < P.numMethods(); ++M) {
    if (!Reach.ReachableMethods[M])
      continue;
    for (const BasicBlock &BB : std::as_const(P).method(MethodId(M)).Blocks)
      for (const Instr &In : BB.Instrs)
        if (In.Op == Opcode::ConstString)
          H.internString(P.string(In.Aux));
  }

  // Class metadata objects, stamped with the initialization sequence.
  ClassId MetaClass = ensureClassMetaClass(P);
  std::vector<int64_t> InitSeq(P.numClasses(), -1);
  for (size_t K = 0; K < I.initializationOrder().size(); ++K)
    InitSeq[size_t(I.initializationOrder()[K])] = int64_t(K);
  R.ClassMetaCells.assign(P.numClasses(), -1);
  for (size_t C = 0; C < P.numClasses(); ++C) {
    if (size_t(C) < Reach.ReachableClasses.size() &&
        !Reach.ReachableClasses[C])
      continue;
    // Intern the name before taking the fields: interning may grow the
    // arenas and invalidate spans.
    CellIdx NameCell =
        H.internString(std::as_const(P).classDef(ClassId(C)).Name);
    CellIdx Cell = H.allocObject(MetaClass);
    std::span<Value> Meta = H.slots(Cell);
    Meta[0] = Value::makeRef(NameCell);
    Meta[1] = Value::makeInt(int64_t(C));
    Meta[2] = Value::makeInt(InitSeq[C]);
    R.ClassMetaCells[C] = Cell;
  }

  // Resources embedded in the image.
  for (const auto &[Name, Contents] : P.Resources)
    R.ResourceCells.emplace(Name, H.allocString(Contents));

  R.Statics = I.statics();
  R.InitOrder = I.initializationOrder();

  // Drop what no root reaches — mostly intermediate strings of initializer
  // computations. Nothing can reach them at run time and the snapshot
  // never includes them, so the build heap (which every image of a build
  // base shares, and which is serialized whole) holds only live cells.
  std::vector<CellIdx> Roots;
  for (const std::vector<Value> &Row : R.Statics)
    for (const Value &V : Row)
      if (V.isRef())
        Roots.push_back(V.asRef());
  for (CellIdx C : R.ClassMetaCells)
    Roots.push_back(C);
  for (const auto &[Name, C] : R.ResourceCells)
    Roots.push_back(C);
  std::vector<CellIdx> NewIdx = H.collectGarbage(Roots);
  for (std::vector<Value> &Row : R.Statics)
    for (Value &V : Row)
      if (V.isRef())
        V.Ref = NewIdx[size_t(V.Ref)];
  for (CellIdx &C : R.ClassMetaCells)
    if (C != -1)
      C = NewIdx[size_t(C)];
  for (auto &[Name, C] : R.ResourceCells)
    C = NewIdx[size_t(C)];
  R.BuildOutput = I.output();
  return R;
}
