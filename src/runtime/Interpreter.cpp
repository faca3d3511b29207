//===- Interpreter.cpp - MiniJava IR interpreter ---------------------------===//

#include "src/runtime/Interpreter.h"

#include <cmath>
#include <cstdio>

using namespace nimg;

Interpreter::Interpreter(const Program &Prog, Heap &Heap_, InterpConfig Cfg)
    : P(Prog), H(Heap_), Config(Cfg) {
  Code = &DefaultCode;
  Statics.resize(P.numClasses());
  Clinit.assign(P.numClasses(), ClinitState::NotRun);
  for (size_t C = 0; C < P.numClasses(); ++C) {
    const ClassDef &Def = P.classDef(ClassId(C));
    Statics[C].reserve(Def.StaticFields.size());
    for (const Field &F : Def.StaticFields)
      Statics[C].push_back(Heap::zeroValue(P.type(F.Type)));
  }
}

void Interpreter::markAllClinitsDone() {
  std::fill(Clinit.begin(), Clinit.end(), ClinitState::Done);
}

bool Interpreter::requestClinit(uint32_t Tid, ClassId C) {
  assert(Tid < Threads.size() && "invalid thread");
  ThreadState &T = Threads[Tid];
  bool Pushed = false;
  // Push C first, then its uninitialized supers on top, so supers complete
  // first (Java initialization order).
  for (ClassId Cur = C; Cur != -1; Cur = P.classDef(Cur).Super) {
    if (Clinit[size_t(Cur)] != ClinitState::NotRun)
      continue;
    Clinit[size_t(Cur)] = ClinitState::Running;
    MethodId Init = P.classDef(Cur).Clinit;
    if (Init == -1) {
      // No initializer code: completes immediately.
      Clinit[size_t(Cur)] = ClinitState::Done;
      InitOrder.push_back(Cur);
      continue;
    }
    pushFrame(Tid, T, Init, {}, 0, /*WantsResult=*/false, ExecContext{},
              /*SiteId=*/0, /*IsClinitTrigger=*/true);
    Pushed = true;
  }
  return Pushed;
}

uint32_t Interpreter::spawnThread(MethodId M, std::vector<Value> Args) {
  Threads.emplace_back();
  uint32_t Tid = uint32_t(Threads.size() - 1);
  pushFrame(Tid, Threads.back(), M, std::move(Args), 0,
            /*WantsResult=*/false, ExecContext{}, /*SiteId=*/0,
            /*IsClinitTrigger=*/false);
  return Tid;
}

uint32_t Interpreter::newBareThread() {
  Threads.emplace_back();
  return uint32_t(Threads.size() - 1);
}

bool Interpreter::threadFinished(uint32_t Tid) const {
  const ThreadState &T = Threads[Tid];
  return T.Finished || T.Trapped;
}

bool Interpreter::threadTrapped(uint32_t Tid) const {
  return Threads[Tid].Trapped;
}

const std::string &Interpreter::trapMessage(uint32_t Tid) const {
  return Threads[Tid].TrapMsg;
}

Value Interpreter::threadResult(uint32_t Tid) const {
  return Threads[Tid].Result;
}

void Interpreter::trap(ThreadState &T, const std::string &Msg) {
  T.Trapped = true;
  T.TrapMsg = Msg;
}

void Interpreter::pushFrame(uint32_t Tid, ThreadState &T, MethodId M,
                            std::vector<Value> Args, uint16_t RetReg,
                            bool WantsResult, const ExecContext &CallerCtx,
                            uint32_t SiteId, bool IsClinitTrigger) {
  const Method &Meth = P.method(M);
  assert(!Meth.IsAbstract && "invoking an abstract method");
  assert(Args.size() == Meth.ParamTypes.size() && "argument count mismatch");
  Frame F;
  F.M = M;
  F.RetReg = RetReg;
  F.WantsResult = WantsResult;
  F.IsClinitTrigger = IsClinitTrigger;
  F.Ctx = Code->enterContext(CallerCtx, SiteId, M);
  F.Regs.resize(Meth.NumRegs);
  for (size_t I = 0; I < Args.size(); ++I)
    F.Regs[I] = Args[I];
  bool NewCu = F.Ctx.Cu != CallerCtx.Cu;
  T.Stack.push_back(std::move(F));
  if (Hooks)
    Hooks->onMethodEnter(Tid, T.Stack.back().Ctx, M, NewCu);
}

void Interpreter::popFrame(uint32_t Tid, ThreadState &T, Value Result,
                           bool HasResult) {
  Frame Done = std::move(T.Stack.back());
  if (Hooks)
    Hooks->onMethodExit(Tid, Done.M, Done.Block);
  T.Stack.pop_back();
  const Method &Meth = P.method(Done.M);
  if (Meth.IsClinit && Done.IsClinitTrigger) {
    Clinit[size_t(Meth.Class)] = ClinitState::Done;
    InitOrder.push_back(Meth.Class);
  }
  if (T.Stack.empty()) {
    T.Finished = true;
    if (HasResult)
      T.Result = Result;
    return;
  }
  if (Done.WantsResult && HasResult)
    T.Stack.back().Regs[Done.RetReg] = Result;
}

bool Interpreter::ensureInitialized(uint32_t Tid, ThreadState &T, ClassId C,
                                    bool &Pushed) {
  Pushed = false;
  if (!Config.RunClinits)
    return true;
  // Fast path: the whole chain is initialized or initializing.
  bool NeedsWork = false;
  for (ClassId Cur = C; Cur != -1; Cur = P.classDef(Cur).Super)
    if (Clinit[size_t(Cur)] == ClinitState::NotRun)
      NeedsWork = true;
  if (!NeedsWork)
    return true;
  Pushed = requestClinit(Tid, C);
  (void)T;
  return true;
}

std::optional<std::string_view> Interpreter::cellString(const Value &V) {
  if (!V.isRef() || H.cell(V.asRef()).Kind != CellKind::String)
    return std::nullopt;
  return H.str(V.asRef());
}

void Interpreter::reportAccess(uint32_t Tid, const Frame &F, uint32_t SiteId,
                               std::initializer_list<Value> Slots,
                               uint16_t StaticCount) {
  if (!Hooks)
    return;
  CellIdx Cells[4];
  uint16_t N = 0;
  for (const Value &V : Slots) {
    assert(N < 4 && "too many trace slots");
    Cells[N++] = V.isRef() ? V.asRef() : CellIdx(-1);
  }
  while (N < StaticCount)
    Cells[N++] = -1;
  assert(N == StaticCount && "trace slot count mismatch");
  Hooks->onAccessSite(Tid, F.M, SiteId, Cells, N);
}

static std::string stringifyValue(const Heap &H, const Value &V) {
  switch (V.Kind) {
  case ValueKind::Null:
    return "null";
  case ValueKind::Int:
    return std::to_string(V.I);
  case ValueKind::Bool:
    return V.I ? "true" : "false";
  case ValueKind::Double: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V.D);
    return Buf;
  }
  case ValueKind::Ref: {
    if (H.cell(V.Ref).Kind == CellKind::String)
      return std::string(H.str(V.Ref));
    return "<object>";
  }
  }
  return "?";
}

uint64_t Interpreter::step(uint32_t Tid, uint64_t Quantum) {
  assert(Tid < Threads.size() && "invalid thread");
  ThreadState &T = Threads[Tid];
  uint64_t Executed = 0;
  while (Executed < Quantum) {
    if (T.Finished || T.Trapped)
      break;
    if (InstrCount >= Config.MaxInstructions)
      break;
    if (T.Stack.empty()) {
      T.Finished = true;
      break;
    }
    Frame &F = T.Stack.back();
    const Method &Meth = P.method(F.M);
    assert(size_t(F.Block) < Meth.Blocks.size() && "PC out of range");
    const BasicBlock &BB = Meth.Blocks[size_t(F.Block)];
    assert(F.InstrIdx < BB.Instrs.size() && "PC past block end");
    const Instr &In = BB.Instrs[F.InstrIdx];
    if (!execInstr(Tid, T, In))
      break;
    ++InstrCount;
    ++Executed;
    if (T.YieldRequested) {
      // Sys.yield(): cooperative scheduling point — end this quantum.
      T.YieldRequested = false;
      break;
    }
  }
  return Executed;
}

bool Interpreter::execInstr(uint32_t Tid, ThreadState &T, const Instr &In) {
  Frame &F = T.Stack.back();
  std::vector<Value> &R = F.Regs;
  const Method &Meth = P.method(F.M);
  uint32_t Site = makeSiteId(F.Block, F.InstrIdx);

  auto Advance = [&] { ++F.InstrIdx; };
  auto Goto = [&](BlockId Target) {
    if (Hooks)
      Hooks->onBlockEdge(Tid, F.Ctx, F.M, F.Block, Target);
    F.Block = Target;
    F.InstrIdx = 0;
  };
  auto NullTrap = [&](const Value &V) {
    if (!V.isNull())
      return false;
    trap(T, "null dereference in " + Meth.Sig);
    return true;
  };

  switch (In.Op) {
  case Opcode::ConstInt:
    R[In.Dst] = Value::makeInt(In.IImm);
    Advance();
    break;
  case Opcode::ConstDouble:
    R[In.Dst] = Value::makeDouble(In.FImm);
    Advance();
    break;
  case Opcode::ConstBool:
    R[In.Dst] = Value::makeBool(In.IImm != 0);
    Advance();
    break;
  case Opcode::ConstNull:
    R[In.Dst] = Value::makeNull();
    Advance();
    break;
  case Opcode::ConstString:
    R[In.Dst] = Value::makeRef(H.internString(P.string(In.Aux)));
    Advance();
    break;
  case Opcode::Move:
    R[In.Dst] = R[In.A];
    Advance();
    break;

  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Mod: {
    const Value &A = R[In.A];
    const Value &B = R[In.B];
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int) {
      int64_t X = A.I, Y = B.I;
      if ((In.Op == Opcode::Div || In.Op == Opcode::Mod) && Y == 0) {
        trap(T, "integer division by zero in " + Meth.Sig);
        return false;
      }
      int64_t Out = 0;
      switch (In.Op) {
      case Opcode::Add:
        Out = X + Y;
        break;
      case Opcode::Sub:
        Out = X - Y;
        break;
      case Opcode::Mul:
        Out = X * Y;
        break;
      case Opcode::Div:
        Out = X / Y;
        break;
      default:
        Out = X % Y;
        break;
      }
      R[In.Dst] = Value::makeInt(Out);
    } else if (A.Kind == ValueKind::Double && B.Kind == ValueKind::Double) {
      double X = A.D, Y = B.D;
      double Out = 0;
      switch (In.Op) {
      case Opcode::Add:
        Out = X + Y;
        break;
      case Opcode::Sub:
        Out = X - Y;
        break;
      case Opcode::Mul:
        Out = X * Y;
        break;
      case Opcode::Div:
        Out = X / Y;
        break;
      default:
        Out = std::fmod(X, Y);
        break;
      }
      R[In.Dst] = Value::makeDouble(Out);
    } else {
      trap(T, "arithmetic type mismatch in " + Meth.Sig);
      return false;
    }
    Advance();
    break;
  }

  case Opcode::Neg: {
    const Value &A = R[In.A];
    if (A.Kind == ValueKind::Int)
      R[In.Dst] = Value::makeInt(-A.I);
    else if (A.Kind == ValueKind::Double)
      R[In.Dst] = Value::makeDouble(-A.D);
    else {
      trap(T, "neg of non-numeric value in " + Meth.Sig);
      return false;
    }
    Advance();
    break;
  }
  case Opcode::Not:
    R[In.Dst] = Value::makeBool(!R[In.A].asBool());
    Advance();
    break;

  case Opcode::BitAnd:
  case Opcode::BitOr:
  case Opcode::BitXor:
  case Opcode::Shl:
  case Opcode::Shr: {
    int64_t X = R[In.A].asInt();
    int64_t Y = R[In.B].asInt();
    int64_t Out = 0;
    switch (In.Op) {
    case Opcode::BitAnd:
      Out = X & Y;
      break;
    case Opcode::BitOr:
      Out = X | Y;
      break;
    case Opcode::BitXor:
      Out = X ^ Y;
      break;
    case Opcode::Shl:
      Out = int64_t(uint64_t(X) << (Y & 63));
      break;
    default:
      Out = X >> (Y & 63);
      break;
    }
    R[In.Dst] = Value::makeInt(Out);
    Advance();
    break;
  }

  case Opcode::CmpEq:
  case Opcode::CmpNe: {
    bool Eq;
    const Value &A = R[In.A];
    const Value &B = R[In.B];
    if (A.isNull() || B.isNull())
      Eq = A.isNull() && B.isNull();
    else
      Eq = A == B;
    R[In.Dst] = Value::makeBool(In.Op == Opcode::CmpEq ? Eq : !Eq);
    Advance();
    break;
  }
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe: {
    const Value &A = R[In.A];
    const Value &B = R[In.B];
    double X, Y;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int) {
      int64_t XI = A.I, YI = B.I;
      bool Out = false;
      switch (In.Op) {
      case Opcode::CmpLt:
        Out = XI < YI;
        break;
      case Opcode::CmpLe:
        Out = XI <= YI;
        break;
      case Opcode::CmpGt:
        Out = XI > YI;
        break;
      default:
        Out = XI >= YI;
        break;
      }
      R[In.Dst] = Value::makeBool(Out);
      Advance();
      break;
    }
    if (A.Kind != ValueKind::Double || B.Kind != ValueKind::Double) {
      trap(T, "comparison type mismatch in " + Meth.Sig);
      return false;
    }
    X = A.D;
    Y = B.D;
    bool Out = false;
    switch (In.Op) {
    case Opcode::CmpLt:
      Out = X < Y;
      break;
    case Opcode::CmpLe:
      Out = X <= Y;
      break;
    case Opcode::CmpGt:
      Out = X > Y;
      break;
    default:
      Out = X >= Y;
      break;
    }
    R[In.Dst] = Value::makeBool(Out);
    Advance();
    break;
  }

  case Opcode::Concat: {
    const Value &A = R[In.A];
    const Value &B = R[In.B];
    std::string S = stringifyValue(H, A) + stringifyValue(H, B);
    CellIdx NewCell = H.allocString(std::move(S));
    if (Hooks)
      Hooks->onAllocate(Tid, NewCell);
    reportAccess(Tid, F, Site, {A, B}, 2);
    R[In.Dst] = Value::makeRef(NewCell);
    Advance();
    break;
  }

  case Opcode::I2D:
    R[In.Dst] = Value::makeDouble(double(R[In.A].asInt()));
    Advance();
    break;
  case Opcode::D2I:
    R[In.Dst] = Value::makeInt(int64_t(R[In.A].asDouble()));
    Advance();
    break;

  case Opcode::NewObject: {
    bool Pushed = false;
    ensureInitialized(Tid, T, In.Aux, Pushed);
    if (Pushed)
      return true; // Re-execute after the initializer runs.
    CellIdx Cell = H.allocObject(In.Aux);
    if (Hooks)
      Hooks->onAllocate(Tid, Cell);
    R[In.Dst] = Value::makeRef(Cell);
    Advance();
    break;
  }
  case Opcode::NewArray: {
    int64_t Len = R[In.A].asInt();
    if (Len < 0) {
      trap(T, "negative array size in " + Meth.Sig);
      return false;
    }
    CellIdx Cell = H.allocArray(In.Aux, Len);
    if (Hooks)
      Hooks->onAllocate(Tid, Cell);
    R[In.Dst] = Value::makeRef(Cell);
    Advance();
    break;
  }
  case Opcode::ArrayLen: {
    const Value &A = R[In.A];
    if (NullTrap(A))
      return false;
    const HeapCell &Cell = H.cell(A.asRef());
    assert(Cell.Kind == CellKind::Array && "arraylen of non-array");
    reportAccess(Tid, F, Site, {A}, 1);
    R[In.Dst] = Value::makeInt(int64_t(Cell.NumSlots));
    Advance();
    break;
  }
  case Opcode::ALoad: {
    const Value &A = R[In.A];
    if (NullTrap(A))
      return false;
    assert(H.cell(A.asRef()).Kind == CellKind::Array && "aload of non-array");
    std::span<const Value> Elems = H.slots(A.asRef());
    int64_t Idx = R[In.B].asInt();
    if (Idx < 0 || size_t(Idx) >= Elems.size()) {
      trap(T, "array index out of bounds in " + Meth.Sig);
      return false;
    }
    reportAccess(Tid, F, Site, {A}, 1);
    R[In.Dst] = Elems[size_t(Idx)];
    Advance();
    break;
  }
  case Opcode::AStore: {
    const Value &A = R[In.A];
    if (NullTrap(A))
      return false;
    assert(H.cell(A.asRef()).Kind == CellKind::Array && "astore of non-array");
    std::span<Value> Elems = H.slots(A.asRef());
    int64_t Idx = R[In.B].asInt();
    if (Idx < 0 || size_t(Idx) >= Elems.size()) {
      trap(T, "array index out of bounds in " + Meth.Sig);
      return false;
    }
    reportAccess(Tid, F, Site, {A}, 1);
    Elems[size_t(Idx)] = R[In.C];
    Advance();
    break;
  }
  case Opcode::GetField: {
    const Value &A = R[In.A];
    if (NullTrap(A))
      return false;
    assert(H.cell(A.asRef()).Kind == CellKind::Object &&
           "getfield of non-object");
    std::span<const Value> Fields = H.slots(A.asRef());
    assert(size_t(In.Aux) < Fields.size() && "field index out of range");
    reportAccess(Tid, F, Site, {A}, 1);
    R[In.Dst] = Fields[size_t(In.Aux)];
    Advance();
    break;
  }
  case Opcode::PutField: {
    const Value &A = R[In.A];
    if (NullTrap(A))
      return false;
    assert(H.cell(A.asRef()).Kind == CellKind::Object &&
           "putfield of non-object");
    std::span<Value> Fields = H.slots(A.asRef());
    assert(size_t(In.Aux) < Fields.size() && "field index out of range");
    reportAccess(Tid, F, Site, {A}, 1);
    Fields[size_t(In.Aux)] = R[In.B];
    Advance();
    break;
  }

  case Opcode::GetStatic:
  case Opcode::PutStatic: {
    bool Pushed = false;
    ensureInitialized(Tid, T, In.Aux, Pushed);
    if (Pushed)
      return true;
    if (Hooks)
      Hooks->onStaticAccess(Tid, In.Aux, In.Aux2);
    if (In.Op == Opcode::GetStatic)
      R[In.Dst] = Statics[size_t(In.Aux)][size_t(In.Aux2)];
    else
      Statics[size_t(In.Aux)][size_t(In.Aux2)] = R[In.A];
    Advance();
    break;
  }

  case Opcode::CallStatic: {
    const Method &Callee = P.method(In.Aux);
    bool Pushed = false;
    ensureInitialized(Tid, T, Callee.Class, Pushed);
    if (Pushed)
      return true;
    std::vector<Value> Args;
    Args.reserve(In.ArgsCount);
    for (size_t I = 0; I < In.ArgsCount; ++I)
      Args.push_back(R[Meth.CallArgs[In.ArgsBegin + I]]);
    if (Hooks)
      Hooks->onCallSite(Tid, F.M, Site);
    ExecContext CallerCtx = F.Ctx;
    Advance();
    bool Wants = P.type(Callee.RetType).Kind != TypeKind::Void;
    pushFrame(Tid, T, In.Aux, std::move(Args), In.Dst, Wants, CallerCtx, Site,
              false);
    break;
  }
  case Opcode::CallVirtual: {
    const Value &Recv = R[Meth.CallArgs[In.ArgsBegin]];
    if (NullTrap(Recv))
      return false;
    const HeapCell &Cell = H.cell(Recv.asRef());
    if (Cell.Kind != CellKind::Object) {
      trap(T, "virtual call on non-object in " + Meth.Sig);
      return false;
    }
    MethodId Target = P.resolveVirtual(Cell.Class, In.Aux);
    if (Target == -1) {
      trap(T, "no implementation of " + P.method(In.Aux).Sig + " for " +
                  P.classDef(Cell.Class).Name);
      return false;
    }
    std::vector<Value> Args;
    Args.reserve(In.ArgsCount);
    for (size_t I = 0; I < In.ArgsCount; ++I)
      Args.push_back(R[Meth.CallArgs[In.ArgsBegin + I]]);
    if (Hooks)
      Hooks->onCallSite(Tid, F.M, Site);
    ExecContext CallerCtx = F.Ctx;
    Advance();
    const Method &Callee = P.method(Target);
    bool Wants = P.type(Callee.RetType).Kind != TypeKind::Void;
    pushFrame(Tid, T, Target, std::move(Args), In.Dst, Wants, CallerCtx, Site,
              false);
    break;
  }
  case Opcode::CallNative:
    return doNative(Tid, T, F, In);

  case Opcode::Ret: {
    Value Result;
    bool HasResult = In.Aux == 1;
    if (HasResult)
      Result = R[In.A];
    popFrame(Tid, T, Result, HasResult);
    break;
  }
  case Opcode::Br: {
    bool Cond = R[In.A].asBool();
    Goto(Cond ? In.Target : In.Aux2);
    break;
  }
  case Opcode::Jmp:
    Goto(In.Target);
    break;
  }
  return !T.Trapped;
}

bool Interpreter::doNative(uint32_t Tid, ThreadState &T, Frame &F,
                           const Instr &In) {
  std::vector<Value> &R = F.Regs;
  const Method &Meth = P.method(F.M);
  uint32_t Site = makeSiteId(F.Block, F.InstrIdx);
  NativeId N = NativeId(In.Aux);
  auto Arg = [&](size_t I) -> Value & {
    assert(I < In.ArgsCount && "native argument out of range");
    return R[Meth.CallArgs[In.ArgsBegin + I]];
  };
  // The views below point into the heap's char arena: none may be used
  // after an allocation.
  auto ArgString = [&](size_t I) { return cellString(Arg(I)); };
  auto StrTrap = [&](const std::optional<std::string_view> &S) {
    if (S)
      return false;
    trap(T, "native string argument is not a string in " + Meth.Sig);
    return true;
  };

  if (Hooks)
    Hooks->onNativeCall(Tid, N);

  switch (N) {
  case NativeId::Print: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    Output += *S;
    Output += '\n';
    reportAccess(Tid, F, Site, {Arg(0)}, 1);
    break;
  }
  case NativeId::PrintInt:
    Output += std::to_string(Arg(0).asInt());
    Output += '\n';
    break;
  case NativeId::Sqrt:
    R[In.Dst] = Value::makeDouble(std::sqrt(Arg(0).asDouble()));
    break;
  case NativeId::Sin:
    R[In.Dst] = Value::makeDouble(std::sin(Arg(0).asDouble()));
    break;
  case NativeId::Cos:
    R[In.Dst] = Value::makeDouble(std::cos(Arg(0).asDouble()));
    break;
  case NativeId::Floor:
    R[In.Dst] = Value::makeDouble(std::floor(Arg(0).asDouble()));
    break;
  case NativeId::StrLen: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    reportAccess(Tid, F, Site, {Arg(0)}, 1);
    R[In.Dst] = Value::makeInt(int64_t(S->size()));
    break;
  }
  case NativeId::StrCharAt: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    int64_t Idx = Arg(1).asInt();
    if (Idx < 0 || size_t(Idx) >= S->size()) {
      trap(T, "string index out of bounds in " + Meth.Sig);
      return false;
    }
    reportAccess(Tid, F, Site, {Arg(0)}, 1);
    R[In.Dst] = Value::makeInt(int64_t(uint8_t((*S)[size_t(Idx)])));
    break;
  }
  case NativeId::StrSub: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    int64_t From = Arg(1).asInt();
    int64_t To = Arg(2).asInt();
    if (From < 0 || To < From || size_t(To) > S->size()) {
      trap(T, "substring bounds out of range in " + Meth.Sig);
      return false;
    }
    reportAccess(Tid, F, Site, {Arg(0)}, 1);
    CellIdx Cell = H.allocString(S->substr(size_t(From), size_t(To - From)));
    if (Hooks)
      Hooks->onAllocate(Tid, Cell);
    R[In.Dst] = Value::makeRef(Cell);
    break;
  }
  case NativeId::StrEquals: {
    std::optional<std::string_view> A = ArgString(0);
    std::optional<std::string_view> B = ArgString(1);
    if (StrTrap(A) || StrTrap(B))
      return false;
    reportAccess(Tid, F, Site, {Arg(0), Arg(1)}, 2);
    R[In.Dst] = Value::makeBool(*A == *B);
    break;
  }
  case NativeId::StrFromInt: {
    CellIdx Cell = H.allocString(std::to_string(Arg(0).asInt()));
    if (Hooks)
      Hooks->onAllocate(Tid, Cell);
    R[In.Dst] = Value::makeRef(Cell);
    break;
  }
  case NativeId::StrFromDouble: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.9g", Arg(0).asDouble());
    CellIdx Cell = H.allocString(Buf);
    if (Hooks)
      Hooks->onAllocate(Tid, Cell);
    R[In.Dst] = Value::makeRef(Cell);
    break;
  }
  case NativeId::StrIntern: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    reportAccess(Tid, F, Site, {Arg(0)}, 1);
    R[In.Dst] = Value::makeRef(H.internString(*S));
    break;
  }
  case NativeId::Spawn: {
    if (!OnSpawn) {
      trap(T, "Sys.spawn is not available in this execution role");
      return false;
    }
    assert(In.Aux2 >= 0 && size_t(In.Aux2) < P.numMethods() &&
           "spawn target out of range");
    OnSpawn(In.Aux2);
    break;
  }
  case NativeId::Respond: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    reportAccess(Tid, F, Site, {Arg(0)}, 1);
    if (OnRespond)
      OnRespond(Tid, *S);
    break;
  }
  case NativeId::ReadResource: {
    std::optional<std::string_view> Name = ArgString(0);
    if (StrTrap(Name))
      return false;
    if (!Resources) {
      trap(T, "no resources bound in " + Meth.Sig);
      return false;
    }
    auto It = Resources->find(std::string(*Name));
    if (It == Resources->end()) {
      trap(T, "unknown resource '" + std::string(*Name) + "' in " + Meth.Sig);
      return false;
    }
    reportAccess(Tid, F, Site, {Arg(0), Value::makeRef(It->second)}, 2);
    R[In.Dst] = Value::makeRef(It->second);
    break;
  }
  case NativeId::Yield:
    T.YieldRequested = true;
    break;
  }

  ++F.InstrIdx;
  return true;
}

Value Interpreter::runToCompletion(MethodId M, std::vector<Value> Args) {
  uint32_t Tid = spawnThread(M, std::move(Args));
  while (!threadFinished(Tid) && !fuelExhausted())
    step(Tid, 1'000'000);
  if (threadTrapped(Tid))
    std::fprintf(stderr, "nimage: interpreter trap: %s\n",
                 trapMessage(Tid).c_str());
  assert(!threadTrapped(Tid) && "thread trapped during runToCompletion");
  assert(threadFinished(Tid) && "interpreter ran out of fuel");
  return threadResult(Tid);
}
