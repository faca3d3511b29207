//===- Interpreter.cpp - MiniJava IR interpreter ---------------------------===//

#include "src/runtime/Interpreter.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

using namespace nimg;

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

namespace nimg {

/// One IR instruction, pre-decoded for the interpreter loop: 24 bytes,
/// with block targets resolved to indices into the method's flat code and
/// the site id precomputed. Field meaning follows Instr unless noted.
struct DecodedInstr {
  /// The Cache of a CallVirtual past its method's first 0xfffe: that site
  /// resolves its target on every call.
  static constexpr uint16_t NoCache = 0xffff;

  Opcode Op = Opcode::Ret;
  /// ConstBool: the value; Ret: returns a value; CallStatic: the callee
  /// returns a value.
  bool Flag = false;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0; ///< Br: the true block; Jmp: the target block.
  /// AStore: the stored register; Br: the false block; calls: the
  /// argument count.
  uint16_t C = 0;
  /// CallVirtual: its inline-cache slot, counted from the method's
  /// DecodedMethod::VirtualBase.
  uint16_t Cache = NoCache;
  uint32_t Site = 0; ///< makeSiteId(block, index in block).
  union {
    int64_t IImm = 0; ///< ConstInt, ConstBool.
    double FImm;      ///< ConstDouble.
    /// Instr::Aux and Aux2; calls keep their first argument register in
    /// DecodedMethod::ArgRegs in Aux2.
    struct {
      int32_t Aux, Aux2;
    } Ops;
    struct {
      uint32_t Then, Else; ///< Br and Jmp: target instruction indices.
    } Br;
  };
};
static_assert(sizeof(DecodedInstr) == 24, "keep decoded instructions compact");

/// One method's decoded body, plus what the loop needs of its declaration.
struct DecodedMethod {
  MethodId Id = -1;
  ClassId Class = -1;
  uint16_t NumRegs = 0;
  uint16_t NumParams = 0;
  bool IsClinit = false;
  bool IsAbstract = false;
  bool ReturnsValue = false;
  uint32_t VirtualBase = 0; ///< Inline-cache slot of the first CallVirtual.
  std::vector<DecodedInstr> Code;
  std::vector<uint32_t> BlockStart; ///< Block -> index of its first instr.
  std::vector<uint16_t> ArgRegs;    ///< The method's call-argument pool.
  std::string Sig;
};

/// A program's decoded code at one content version, shared by every run of
/// that version through Program::decodedCodeMemo(). A method is decoded on
/// its first call, once: the first decoder publishes it and it is never
/// written again, so concurrent runs of one program may share it. Only
/// methods that run take memory.
class DecodedProgram {
public:
  explicit DecodedProgram(const Program &P);
  ~DecodedProgram();
  DecodedProgram(const DecodedProgram &) = delete;
  DecodedProgram &operator=(const DecodedProgram &) = delete;

  uint64_t version() const { return Version; }

  /// Method \p M, decoded from \p P (which must still be at version())
  /// on first use.
  const DecodedMethod &method(const Program &P, MethodId M) const {
    assert(M >= 0 && size_t(M) < NumMethods && "invalid method id");
    const DecodedMethod *D = Methods[size_t(M)].load(std::memory_order_acquire);
    return D ? *D : decode(P, M);
  }

  /// The decoded code of \p P at its current version, a fresh (empty) one
  /// when the memo holds another version.
  static std::shared_ptr<const DecodedProgram> of(const Program &P);

private:
  const DecodedMethod &decode(const Program &P, MethodId M) const;

  uint64_t Version;
  size_t NumMethods;
  std::unique_ptr<std::atomic<const DecodedMethod *>[]> Methods;
  /// Inline-cache slots handed out so far; each CallVirtual gets its own.
  mutable std::atomic<uint32_t> NumVirtualSites{0};
};

} // namespace nimg

static bool returnsValue(const Program &P, const Method &Meth) {
  return Meth.RetType >= 0 && P.type(Meth.RetType).Kind != TypeKind::Void;
}

/// Decodes \p Meth, taking its CallVirtual sites' inline-cache slots from
/// \p NextVirtualSite.
static std::unique_ptr<DecodedMethod>
decodeMethod(const Program &P, const Method &Meth,
             std::atomic<uint32_t> &NextVirtualSite) {
  auto DM = std::make_unique<DecodedMethod>();
  DM->Id = Meth.Id;
  DM->Class = Meth.Class;
  DM->NumRegs = Meth.NumRegs;
  DM->NumParams = uint16_t(Meth.ParamTypes.size());
  DM->IsClinit = Meth.IsClinit;
  DM->IsAbstract = Meth.IsAbstract;
  DM->ReturnsValue = returnsValue(P, Meth);
  DM->Sig = Meth.Sig;
  DM->ArgRegs = Meth.CallArgs;

  uint32_t NumInstrs = 0;
  DM->BlockStart.reserve(Meth.Blocks.size());
  for (const BasicBlock &BB : Meth.Blocks) {
    DM->BlockStart.push_back(NumInstrs);
    NumInstrs += uint32_t(BB.Instrs.size());
  }
  auto StartOf = [&](int32_t Block) {
    assert(Block >= 0 && size_t(Block) < DM->BlockStart.size() &&
           "branch target out of range");
    return DM->BlockStart[size_t(Block)];
  };

  DM->Code.reserve(NumInstrs);
  uint16_t NumVirtual = 0;
  for (size_t B = 0; B < Meth.Blocks.size(); ++B) {
    const std::vector<Instr> &Instrs = Meth.Blocks[B].Instrs;
    for (size_t I = 0; I < Instrs.size(); ++I) {
      const Instr &In = Instrs[I];
      DecodedInstr D;
      D.Op = In.Op;
      D.Dst = In.Dst;
      D.A = In.A;
      D.B = In.B;
      D.C = In.C;
      D.Site = makeSiteId(BlockId(B), I);
      D.Ops.Aux = In.Aux;
      D.Ops.Aux2 = In.Aux2;
      switch (In.Op) {
      case Opcode::ConstInt:
      case Opcode::ConstBool:
        D.IImm = In.IImm;
        D.Flag = In.IImm != 0;
        break;
      case Opcode::ConstDouble:
        D.FImm = In.FImm;
        break;
      case Opcode::Jmp:
        D.B = uint16_t(In.Target);
        D.Br.Then = StartOf(In.Target);
        break;
      case Opcode::Br:
        D.B = uint16_t(In.Target);
        D.C = uint16_t(In.Aux2);
        D.Br.Then = StartOf(In.Target);
        D.Br.Else = StartOf(In.Aux2);
        break;
      case Opcode::Ret:
        D.Flag = In.Aux == 1;
        break;
      case Opcode::CallVirtual:
        if (NumVirtual < DecodedInstr::NoCache)
          D.Cache = NumVirtual++;
        [[fallthrough]];
      case Opcode::CallStatic:
      case Opcode::CallNative:
        if (In.Op == Opcode::CallStatic)
          D.Flag = returnsValue(P, P.method(In.Aux));
        D.C = In.ArgsCount;
        D.Ops.Aux2 = int32_t(In.ArgsBegin);
        break;
      default:
        break;
      }
      DM->Code.push_back(D);
    }
  }
  DM->VirtualBase = NextVirtualSite.fetch_add(NumVirtual);
  return DM;
}

DecodedProgram::DecodedProgram(const Program &P)
    : Version(P.version()), NumMethods(P.numMethods()),
      Methods(new std::atomic<const DecodedMethod *>[P.numMethods()]) {
  for (size_t M = 0; M < NumMethods; ++M)
    Methods[M].store(nullptr, std::memory_order_relaxed);
}

DecodedProgram::~DecodedProgram() {
  for (size_t M = 0; M < NumMethods; ++M)
    delete Methods[M].load(std::memory_order_relaxed);
}

const DecodedMethod &DecodedProgram::decode(const Program &P,
                                            MethodId M) const {
  assert(P.version() == Version && "decoding from an edited program");
  std::unique_ptr<DecodedMethod> Mine =
      decodeMethod(P, P.method(M), NumVirtualSites);
  const DecodedMethod *Published = nullptr;
  if (Methods[size_t(M)].compare_exchange_strong(Published, Mine.get(),
                                                 std::memory_order_acq_rel))
    return *Mine.release(); // Owned by Methods from here on.
  return *Published; // Another run decoded it first; Mine is freed.
}

std::shared_ptr<const DecodedProgram> DecodedProgram::of(const Program &P) {
  uint64_t Version = P.version();
  std::shared_ptr<const void> Memo;
  if (P.decodedCodeMemo().lookup(Version, Memo))
    return std::static_pointer_cast<const DecodedProgram>(Memo);
  auto D = std::make_shared<const DecodedProgram>(P);
  P.decodedCodeMemo().store(Version, D);
  return D;
}

void nimg::releaseDecodedCode(const Program &P) {
  P.decodedCodeMemo().clear();
}

const DecodedMethod &Interpreter::method(MethodId M) const {
  return Decoded->method(P, M);
}

//===----------------------------------------------------------------------===//
// Threads, frames and class initialization
//===----------------------------------------------------------------------===//

Interpreter::Interpreter(const Program &Prog, Heap &Heap_, InterpConfig Cfg)
    : P(Prog), H(Heap_), Config(Cfg), Decoded(DecodedProgram::of(Prog)) {
  Statics.resize(P.numClasses());
  Clinit.assign(P.numClasses(), ClinitState::NotRun);
  ChainStarted.assign(P.numClasses(), 0);
  for (size_t C = 0; C < P.numClasses(); ++C) {
    const ClassDef &Def = P.classDef(ClassId(C));
    Statics[C].reserve(Def.StaticFields.size());
    for (const Field &F : Def.StaticFields)
      Statics[C].push_back(Heap::zeroValue(P.type(F.Type)));
  }
  StringCells.assign(P.numStrings(), -1);
}

void Interpreter::markAllClinitsDone() {
  std::fill(Clinit.begin(), Clinit.end(), ClinitState::Done);
}

bool Interpreter::requestClinit(uint32_t Tid, ClassId C) {
  assert(Tid < Threads.size() && "invalid thread");
  syncCode();
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
    pushFrame(Tid, T, method(Init), 0, /*WantsResult=*/false, ExecContext{},
              /*SiteId=*/0, /*IsClinitTrigger=*/true, 0, [](Value *) {});
    Pushed = true;
  }
  return Pushed;
}

uint32_t Interpreter::spawnThread(MethodId M, std::vector<Value> Args) {
  syncCode();
  Threads.emplace_back();
  uint32_t Tid = uint32_t(Threads.size() - 1);
  pushFrame(Tid, Threads.back(), method(M), 0, /*WantsResult=*/false,
            ExecContext{}, /*SiteId=*/0, /*IsClinitTrigger=*/false,
            uint16_t(Args.size()),
            [&](Value *R) { std::copy(Args.begin(), Args.end(), R); });
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

template <typename ArgFn>
void Interpreter::pushFrame(uint32_t Tid, ThreadState &T,
                            const DecodedMethod &DM, uint16_t RetReg,
                            bool WantsResult, ExecContext CallerCtx,
                            uint32_t SiteId, bool IsClinitTrigger,
                            uint16_t NumArgs, ArgFn CopyArgs) {
  assert(!DM.IsAbstract && "invoking an abstract method");
  assert(NumArgs == DM.NumParams && "argument count mismatch");
  (void)NumArgs;
  uint32_t Base = 0;
  if (!T.Frames.empty())
    Base = T.Frames.back().Base + T.Frames.back().DM->NumRegs;
  size_t Top = size_t(Base) + DM.NumRegs;
  if (Top > T.Regs.size())
    T.Regs.resize(std::max(Top, 2 * T.Regs.size()));
  Value *R = T.Regs.data() + Base;
  std::fill(R, R + DM.NumRegs, Value());
  CopyArgs(R);
  ExecContext Ctx = Code ? Code->enterContext(CallerCtx, SiteId, DM.Id)
                         : ExecContext{};
  T.Frames.push_back(
      {&DM, 0, Base, RetReg, WantsResult, IsClinitTrigger, Ctx});
  if (Hooks)
    Hooks->onMethodEnter(Tid, Ctx, DM.Id, Ctx.Cu != CallerCtx.Cu);
}

template <bool Hooked>
void Interpreter::popFrame(uint32_t Tid, ThreadState &T, Value Result,
                           bool HasResult, BlockId Block) {
  Frame Done = T.Frames.back();
  if constexpr (Hooked)
    Hooks->onMethodExit(Tid, Done.DM->Id, Block);
  T.Frames.pop_back();
  if (Done.DM->IsClinit && Done.IsClinitTrigger) {
    Clinit[size_t(Done.DM->Class)] = ClinitState::Done;
    InitOrder.push_back(Done.DM->Class);
  }
  if (T.Frames.empty()) {
    T.Finished = true;
    if (HasResult)
      T.Result = Result;
    return;
  }
  if (Done.WantsResult && HasResult)
    T.Regs[T.Frames.back().Base + Done.RetReg] = Result;
}

bool Interpreter::ensureInitialized(uint32_t Tid, ClassId C) {
  for (ClassId Cur = C; Cur != -1; Cur = P.classDef(Cur).Super)
    if (Clinit[size_t(Cur)] == ClinitState::NotRun)
      return requestClinit(Tid, C);
  ChainStarted[size_t(C)] = 1;
  return false;
}

void Interpreter::syncCode() {
  if (P.version() == Decoded->version())
    return;
  std::shared_ptr<const DecodedProgram> New = DecodedProgram::of(P);
  for (ThreadState &T : Threads)
    for (Frame &F : T.Frames) {
      uint32_t Site = F.DM->Code[F.Pc].Site;
      F.DM = &New->method(P, F.DM->Id);
      assert(size_t(siteBlock(Site)) < F.DM->BlockStart.size() &&
             "an edit removed the block of an open frame");
      F.Pc = F.DM->BlockStart[size_t(siteBlock(Site))] + siteInstr(Site);
    }
  Decoded = std::move(New);
  std::fill(ChainStarted.begin(), ChainStarted.end(), 0);
  StringCells.resize(P.numStrings(), -1);
  VirtualCache.clear();
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
  Hooks->onAccessSite(Tid, F.DM->Id, SiteId, Cells, N);
}

/// Appends the string form of \p V (as Concat prints it) to \p Out.
static void appendValue(std::string &Out, const Heap &H, const Value &V) {
  switch (V.Kind) {
  case ValueKind::Null:
    Out += "null";
    return;
  case ValueKind::Int: {
    char Buf[24];
    char *End = std::to_chars(Buf, Buf + sizeof(Buf), V.I).ptr;
    Out.append(Buf, End);
    return;
  }
  case ValueKind::Bool:
    Out += V.I ? "true" : "false";
    return;
  case ValueKind::Double: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V.D);
    Out += Buf;
    return;
  }
  case ValueKind::Ref:
    if (H.cell(V.Ref).Kind == CellKind::String)
      Out += H.str(V.Ref);
    else
      Out += "<object>";
    return;
  }
}

//===----------------------------------------------------------------------===//
// The instruction loop
//===----------------------------------------------------------------------===//

/// Int arithmetic on two ints, double arithmetic on two doubles; false on
/// any other operand kinds. Division by an int zero is the caller's check.
template <Opcode Op>
static bool arith(const Value &X, const Value &Y, Value &Out) {
  if (X.Kind == ValueKind::Int && Y.Kind == ValueKind::Int) {
    int64_t A = X.I, B = Y.I;
    if constexpr (Op == Opcode::Add)
      Out = Value::makeInt(A + B);
    else if constexpr (Op == Opcode::Sub)
      Out = Value::makeInt(A - B);
    else if constexpr (Op == Opcode::Mul)
      Out = Value::makeInt(A * B);
    else if constexpr (Op == Opcode::Div)
      Out = Value::makeInt(A / B);
    else
      Out = Value::makeInt(A % B);
    return true;
  }
  if (X.Kind == ValueKind::Double && Y.Kind == ValueKind::Double) {
    double A = X.D, B = Y.D;
    if constexpr (Op == Opcode::Add)
      Out = Value::makeDouble(A + B);
    else if constexpr (Op == Opcode::Sub)
      Out = Value::makeDouble(A - B);
    else if constexpr (Op == Opcode::Mul)
      Out = Value::makeDouble(A * B);
    else if constexpr (Op == Opcode::Div)
      Out = Value::makeDouble(A / B);
    else
      Out = Value::makeDouble(std::fmod(A, B));
    return true;
  }
  return false;
}

/// The ordering comparisons; false when the operands are not two ints or
/// two doubles.
template <Opcode Op>
static bool compare(const Value &X, const Value &Y, Value &Out) {
  auto Cmp = [](auto A, auto B) {
    if constexpr (Op == Opcode::CmpLt)
      return A < B;
    else if constexpr (Op == Opcode::CmpLe)
      return A <= B;
    else if constexpr (Op == Opcode::CmpGt)
      return A > B;
    else
      return A >= B;
  };
  if (X.Kind == ValueKind::Int && Y.Kind == ValueKind::Int) {
    Out = Value::makeBool(Cmp(X.I, Y.I));
    return true;
  }
  if (X.Kind != ValueKind::Double || Y.Kind != ValueKind::Double)
    return false;
  Out = Value::makeBool(Cmp(X.D, Y.D));
  return true;
}

uint64_t Interpreter::step(uint32_t Tid, uint64_t Quantum) {
  assert(Tid < Threads.size() && "invalid thread");
  ThreadState &T = Threads[Tid];
  if (Quantum == 0 || T.Finished || T.Trapped ||
      InstrCount >= Config.MaxInstructions)
    return 0;
  if (T.Frames.empty()) {
    T.Finished = true;
    return 0;
  }
  syncCode();
  return Hooks ? run<true>(Tid, T, Quantum) : run<false>(Tid, T, Quantum);
}

template <bool Hooked>
uint64_t Interpreter::run(uint32_t Tid, ThreadState &T, uint64_t Quantum) {
  // Runs until the quantum or the fuel is spent, the thread finishes,
  // traps or yields. An instruction that traps is not counted.
  const uint64_t Budget =
      std::min(Quantum, Config.MaxInstructions - InstrCount);
  const uint64_t Start = InstrCount;
  uint64_t N = 0;

  // The top frame, cached; reloaded after every push and pop, since both
  // may move the frames and the register stack.
  Frame *F = nullptr;
  const DecodedInstr *Body = nullptr, *Ip = nullptr;
  Value *R = nullptr;
  auto Enter = [&] {
    F = &T.Frames.back();
    Body = F->DM->Code.data();
    Ip = Body + F->Pc;
    R = T.Regs.data() + F->Base;
  };
  auto Save = [&] { F->Pc = uint32_t(Ip - Body); };
  auto Fail = [&](const char *What) { trap(T, What + F->DM->Sig); };
  // Lazy class initialization: true when initializers were pushed, and
  // the current instruction then runs again after they return.
  auto InitPushed = [&](ClassId C) {
    if (!Config.RunClinits || ChainStarted[size_t(C)])
      return false;
    Save();
    return ensureInitialized(Tid, C);
  };
  // A heap-access opcode's one trace slot.
  auto ReportCell = [&](uint32_t Site, const Value &X) {
    CellIdx Cell = X.isRef() ? X.Ref : CellIdx(-1);
    Hooks->onAccessSite(Tid, F->DM->Id, Site, &Cell, 1);
  };
  // Pushes the callee of call instruction \p In (already past it).
  auto Call = [&](const DecodedInstr &In, const DecodedMethod &Callee,
                  bool Wants) {
    uint32_t CallerBase = F->Base;
    const uint16_t *Args = F->DM->ArgRegs.data() + uint32_t(In.Ops.Aux2);
    pushFrame(Tid, T, Callee, In.Dst, Wants, F->Ctx, In.Site, false, In.C,
              [&](Value *NewR) {
                const Value *CallerR = T.Regs.data() + CallerBase;
                for (uint16_t I = 0; I < In.C; ++I)
                  NewR[I] = CallerR[Args[I]];
              });
  };
  Enter();

  for (; N < Budget; ++N) {
    if constexpr (Hooked)
      InstrCount = Start + N; // What a hook observes.
    const DecodedInstr &In = *Ip;
    switch (In.Op) {
    case Opcode::ConstInt:
      R[In.Dst] = Value::makeInt(In.IImm);
      ++Ip;
      break;
    case Opcode::ConstDouble:
      R[In.Dst] = Value::makeDouble(In.FImm);
      ++Ip;
      break;
    case Opcode::ConstBool:
      R[In.Dst] = Value::makeBool(In.Flag);
      ++Ip;
      break;
    case Opcode::ConstNull:
      R[In.Dst] = Value::makeNull();
      ++Ip;
      break;
    case Opcode::ConstString: {
      CellIdx &Cell = StringCells[size_t(In.Ops.Aux)];
      if (Cell < 0)
        Cell = H.internString(P.string(In.Ops.Aux));
      R[In.Dst] = Value::makeRef(Cell);
      ++Ip;
      break;
    }
    case Opcode::Move:
      R[In.Dst] = R[In.A];
      ++Ip;
      break;

    case Opcode::Add:
      if (!arith<Opcode::Add>(R[In.A], R[In.B], R[In.Dst]))
        goto ArithMismatch;
      ++Ip;
      break;
    case Opcode::Sub:
      if (!arith<Opcode::Sub>(R[In.A], R[In.B], R[In.Dst]))
        goto ArithMismatch;
      ++Ip;
      break;
    case Opcode::Mul:
      if (!arith<Opcode::Mul>(R[In.A], R[In.B], R[In.Dst]))
        goto ArithMismatch;
      ++Ip;
      break;
    case Opcode::Div:
    case Opcode::Mod: {
      const Value &X = R[In.A];
      const Value &Y = R[In.B];
      if (X.Kind == ValueKind::Int && Y.Kind == ValueKind::Int && Y.I == 0) {
        Fail("integer division by zero in ");
        goto Trapped;
      }
      bool Ok = In.Op == Opcode::Div ? arith<Opcode::Div>(X, Y, R[In.Dst])
                                     : arith<Opcode::Mod>(X, Y, R[In.Dst]);
      if (!Ok)
        goto ArithMismatch;
      ++Ip;
      break;
    }

    case Opcode::Neg: {
      const Value &X = R[In.A];
      if (X.Kind == ValueKind::Int)
        R[In.Dst] = Value::makeInt(-X.I);
      else if (X.Kind == ValueKind::Double)
        R[In.Dst] = Value::makeDouble(-X.D);
      else {
        Fail("neg of non-numeric value in ");
        goto Trapped;
      }
      ++Ip;
      break;
    }
    case Opcode::Not:
      R[In.Dst] = Value::makeBool(!R[In.A].asBool());
      ++Ip;
      break;

    case Opcode::BitAnd:
      R[In.Dst] = Value::makeInt(R[In.A].asInt() & R[In.B].asInt());
      ++Ip;
      break;
    case Opcode::BitOr:
      R[In.Dst] = Value::makeInt(R[In.A].asInt() | R[In.B].asInt());
      ++Ip;
      break;
    case Opcode::BitXor:
      R[In.Dst] = Value::makeInt(R[In.A].asInt() ^ R[In.B].asInt());
      ++Ip;
      break;
    case Opcode::Shl:
      R[In.Dst] = Value::makeInt(
          int64_t(uint64_t(R[In.A].asInt()) << (R[In.B].asInt() & 63)));
      ++Ip;
      break;
    case Opcode::Shr:
      R[In.Dst] =
          Value::makeInt(R[In.A].asInt() >> (R[In.B].asInt() & 63));
      ++Ip;
      break;

    case Opcode::CmpEq:
    case Opcode::CmpNe: {
      const Value &X = R[In.A];
      const Value &Y = R[In.B];
      bool Eq = X.isNull() || Y.isNull() ? X.isNull() && Y.isNull() : X == Y;
      R[In.Dst] = Value::makeBool(In.Op == Opcode::CmpEq ? Eq : !Eq);
      ++Ip;
      break;
    }
    case Opcode::CmpLt:
      if (!compare<Opcode::CmpLt>(R[In.A], R[In.B], R[In.Dst]))
        goto CompareMismatch;
      ++Ip;
      break;
    case Opcode::CmpLe:
      if (!compare<Opcode::CmpLe>(R[In.A], R[In.B], R[In.Dst]))
        goto CompareMismatch;
      ++Ip;
      break;
    case Opcode::CmpGt:
      if (!compare<Opcode::CmpGt>(R[In.A], R[In.B], R[In.Dst]))
        goto CompareMismatch;
      ++Ip;
      break;
    case Opcode::CmpGe:
      if (!compare<Opcode::CmpGe>(R[In.A], R[In.B], R[In.Dst]))
        goto CompareMismatch;
      ++Ip;
      break;

    case Opcode::Concat: {
      const Value &X = R[In.A];
      const Value &Y = R[In.B];
      ConcatBuf.clear();
      appendValue(ConcatBuf, H, X);
      appendValue(ConcatBuf, H, Y);
      CellIdx NewCell = H.allocString(ConcatBuf);
      if constexpr (Hooked) {
        Hooks->onAllocate(Tid, NewCell);
        reportAccess(Tid, *F, In.Site, {X, Y}, 2);
      }
      R[In.Dst] = Value::makeRef(NewCell);
      ++Ip;
      break;
    }

    case Opcode::I2D:
      R[In.Dst] = Value::makeDouble(double(R[In.A].asInt()));
      ++Ip;
      break;
    case Opcode::D2I:
      R[In.Dst] = Value::makeInt(int64_t(R[In.A].asDouble()));
      ++Ip;
      break;

    case Opcode::NewObject: {
      if (InitPushed(In.Ops.Aux)) {
        Enter();
        continue;
      }
      CellIdx Cell = H.allocObject(In.Ops.Aux);
      if constexpr (Hooked)
        Hooks->onAllocate(Tid, Cell);
      R[In.Dst] = Value::makeRef(Cell);
      ++Ip;
      break;
    }
    case Opcode::NewArray: {
      int64_t Len = R[In.A].asInt();
      if (Len < 0) {
        Fail("negative array size in ");
        goto Trapped;
      }
      CellIdx Cell = H.allocArray(In.Ops.Aux, Len);
      if constexpr (Hooked)
        Hooks->onAllocate(Tid, Cell);
      R[In.Dst] = Value::makeRef(Cell);
      ++Ip;
      break;
    }
    case Opcode::ArrayLen: {
      const Value &X = R[In.A];
      if (X.isNull())
        goto NullDeref;
      const HeapCell &Cell = H.cell(X.asRef());
      assert(Cell.Kind == CellKind::Array && "arraylen of non-array");
      if constexpr (Hooked)
        ReportCell(In.Site, X);
      R[In.Dst] = Value::makeInt(int64_t(Cell.NumSlots));
      ++Ip;
      break;
    }
    case Opcode::ALoad: {
      const Value &X = R[In.A];
      if (X.isNull())
        goto NullDeref;
      assert(H.cell(X.asRef()).Kind == CellKind::Array && "aload of non-array");
      std::span<const Value> Elems = H.slots(X.asRef());
      int64_t Idx = R[In.B].asInt();
      if (Idx < 0 || size_t(Idx) >= Elems.size())
        goto OutOfBounds;
      if constexpr (Hooked)
        ReportCell(In.Site, X);
      R[In.Dst] = Elems[size_t(Idx)];
      ++Ip;
      break;
    }
    case Opcode::AStore: {
      const Value &X = R[In.A];
      if (X.isNull())
        goto NullDeref;
      assert(H.cell(X.asRef()).Kind == CellKind::Array &&
             "astore of non-array");
      std::span<Value> Elems = H.slots(X.asRef());
      int64_t Idx = R[In.B].asInt();
      if (Idx < 0 || size_t(Idx) >= Elems.size())
        goto OutOfBounds;
      if constexpr (Hooked)
        ReportCell(In.Site, X);
      Elems[size_t(Idx)] = R[In.C];
      ++Ip;
      break;
    }
    case Opcode::GetField: {
      const Value &X = R[In.A];
      if (X.isNull())
        goto NullDeref;
      assert(H.cell(X.asRef()).Kind == CellKind::Object &&
             "getfield of non-object");
      std::span<const Value> Fields = H.slots(X.asRef());
      assert(size_t(In.Ops.Aux) < Fields.size() && "field index out of range");
      if constexpr (Hooked)
        ReportCell(In.Site, X);
      R[In.Dst] = Fields[size_t(In.Ops.Aux)];
      ++Ip;
      break;
    }
    case Opcode::PutField: {
      const Value &X = R[In.A];
      if (X.isNull())
        goto NullDeref;
      assert(H.cell(X.asRef()).Kind == CellKind::Object &&
             "putfield of non-object");
      std::span<Value> Fields = H.slots(X.asRef());
      assert(size_t(In.Ops.Aux) < Fields.size() && "field index out of range");
      if constexpr (Hooked)
        ReportCell(In.Site, X);
      Fields[size_t(In.Ops.Aux)] = R[In.B];
      ++Ip;
      break;
    }

    case Opcode::GetStatic:
    case Opcode::PutStatic: {
      if (InitPushed(In.Ops.Aux)) {
        Enter();
        continue;
      }
      if constexpr (Hooked)
        Hooks->onStaticAccess(Tid, In.Ops.Aux, In.Ops.Aux2);
      Value &Slot = Statics[size_t(In.Ops.Aux)][size_t(In.Ops.Aux2)];
      if (In.Op == Opcode::GetStatic)
        R[In.Dst] = Slot;
      else
        Slot = R[In.A];
      ++Ip;
      break;
    }

    case Opcode::CallStatic: {
      const DecodedMethod &Callee = method(In.Ops.Aux);
      if (InitPushed(Callee.Class)) {
        Enter();
        continue;
      }
      if constexpr (Hooked)
        Hooks->onCallSite(Tid, F->DM->Id, In.Site);
      ++Ip;
      Save();
      Call(In, Callee, In.Flag);
      Enter();
      break;
    }
    case Opcode::CallVirtual: {
      const Value &Recv = R[F->DM->ArgRegs[uint32_t(In.Ops.Aux2)]];
      if (Recv.isNull())
        goto NullDeref;
      const HeapCell &Cell = H.cell(Recv.asRef());
      if (Cell.Kind != CellKind::Object) {
        Fail("virtual call on non-object in ");
        goto Trapped;
      }
      // A monomorphic inline cache per site; resolution is a pure function
      // of (receiver class, declared method).
      VirtualCacheEntry Uncached;
      VirtualCacheEntry *Cached = &Uncached;
      if (In.Cache != DecodedInstr::NoCache) {
        size_t Slot = size_t(F->DM->VirtualBase) + In.Cache;
        if (Slot >= VirtualCache.size())
          VirtualCache.resize(std::max(Slot + 1, 2 * VirtualCache.size()));
        Cached = &VirtualCache[Slot];
      }
      if (Cached->Class != Cell.Class) {
        MethodId Resolved = P.resolveVirtual(Cell.Class, In.Ops.Aux);
        if (Resolved == -1) {
          trap(T, "no implementation of " + P.method(In.Ops.Aux).Sig +
                      " for " + P.classDef(Cell.Class).Name);
          goto Trapped;
        }
        *Cached = {Cell.Class, &method(Resolved)};
      }
      const DecodedMethod &Callee = *Cached->Target;
      if constexpr (Hooked)
        Hooks->onCallSite(Tid, F->DM->Id, In.Site);
      ++Ip;
      Save();
      Call(In, Callee, Callee.ReturnsValue);
      Enter();
      break;
    }
    case Opcode::CallNative:
      InstrCount = Start + N; // Sys.respond reads the clock.
      if (!doNative(Tid, T, *F, R, In))
        goto Trapped;
      ++Ip;
      if (T.YieldRequested) {
        // Sys.yield(): cooperative scheduling point — end this quantum.
        T.YieldRequested = false;
        ++N;
        goto Suspend;
      }
      break;

    case Opcode::Ret: {
      Value Result = In.Flag ? R[In.A] : Value();
      popFrame<Hooked>(Tid, T, Result, In.Flag, siteBlock(In.Site));
      if (T.Frames.empty()) {
        ++N;
        goto Done;
      }
      Enter();
      break;
    }
    case Opcode::Br: {
      bool Cond = R[In.A].asBool();
      if constexpr (Hooked)
        if (EdgeHooks)
          Hooks->onBlockEdge(Tid, F->Ctx, F->DM->Id, siteBlock(In.Site),
                             Cond ? In.B : In.C);
      Ip = Body + (Cond ? In.Br.Then : In.Br.Else);
      break;
    }
    case Opcode::Jmp:
      if constexpr (Hooked)
        if (EdgeHooks)
          Hooks->onBlockEdge(Tid, F->Ctx, F->DM->Id, siteBlock(In.Site), In.B);
      Ip = Body + In.Br.Then;
      break;
    }
  }
Suspend:
  Save();
Done:
  InstrCount = Start + N;
  return N;

ArithMismatch:
  Fail("arithmetic type mismatch in ");
  goto Trapped;
CompareMismatch:
  Fail("comparison type mismatch in ");
  goto Trapped;
NullDeref:
  Fail("null dereference in ");
  goto Trapped;
OutOfBounds:
  Fail("array index out of bounds in ");
Trapped:
  InstrCount = Start + N;
  return N;
}

bool Interpreter::doNative(uint32_t Tid, ThreadState &T, const Frame &F,
                           Value *R, const DecodedInstr &In) {
  const std::string &Sig = F.DM->Sig;
  const uint16_t *ArgRegs = F.DM->ArgRegs.data() + uint32_t(In.Ops.Aux2);
  NativeId N = NativeId(In.Ops.Aux);
  auto Arg = [&](size_t I) -> Value & {
    assert(I < In.C && "native argument out of range");
    return R[ArgRegs[I]];
  };
  // The views below point into the heap's char arena: none may be used
  // after an allocation.
  auto ArgString = [&](size_t I) { return cellString(Arg(I)); };
  auto StrTrap = [&](const std::optional<std::string_view> &S) {
    if (S)
      return false;
    trap(T, "native string argument is not a string in " + Sig);
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
    reportAccess(Tid, F, In.Site, {Arg(0)}, 1);
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
    reportAccess(Tid, F, In.Site, {Arg(0)}, 1);
    R[In.Dst] = Value::makeInt(int64_t(S->size()));
    break;
  }
  case NativeId::StrCharAt: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    int64_t Idx = Arg(1).asInt();
    if (Idx < 0 || size_t(Idx) >= S->size()) {
      trap(T, "string index out of bounds in " + Sig);
      return false;
    }
    reportAccess(Tid, F, In.Site, {Arg(0)}, 1);
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
      trap(T, "substring bounds out of range in " + Sig);
      return false;
    }
    reportAccess(Tid, F, In.Site, {Arg(0)}, 1);
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
    reportAccess(Tid, F, In.Site, {Arg(0), Arg(1)}, 2);
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
    reportAccess(Tid, F, In.Site, {Arg(0)}, 1);
    R[In.Dst] = Value::makeRef(H.internString(*S));
    break;
  }
  case NativeId::Spawn: {
    if (!OnSpawn) {
      trap(T, "Sys.spawn is not available in this execution role");
      return false;
    }
    // The target is the IR's Aux2; the decoded Aux2 holds the arguments.
    MethodId Target = P.method(F.DM->Id)
                          .Blocks[size_t(siteBlock(In.Site))]
                          .Instrs[siteInstr(In.Site)]
                          .Aux2;
    assert(Target >= 0 && size_t(Target) < P.numMethods() &&
           "spawn target out of range");
    OnSpawn(Target);
    break;
  }
  case NativeId::Respond: {
    std::optional<std::string_view> S = ArgString(0);
    if (StrTrap(S))
      return false;
    reportAccess(Tid, F, In.Site, {Arg(0)}, 1);
    if (OnRespond)
      OnRespond(Tid, *S);
    break;
  }
  case NativeId::ReadResource: {
    std::optional<std::string_view> Name = ArgString(0);
    if (StrTrap(Name))
      return false;
    if (!Resources) {
      trap(T, "no resources bound in " + Sig);
      return false;
    }
    auto It = Resources->find(std::string(*Name));
    if (It == Resources->end()) {
      trap(T, "unknown resource '" + std::string(*Name) + "' in " + Sig);
      return false;
    }
    reportAccess(Tid, F, In.Site, {Arg(0), Value::makeRef(It->second)}, 2);
    R[In.Dst] = Value::makeRef(It->second);
    break;
  }
  case NativeId::Yield:
    T.YieldRequested = true;
    break;
  }
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
