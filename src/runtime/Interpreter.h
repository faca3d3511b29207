//===- Interpreter.h - MiniJava IR interpreter ------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR interpreter. It is used in three roles:
///  - at image build time, to execute static initializers and populate the
///    build heap (heap snapshotting, Sec. 2);
///  - at simulated run time, to execute the program "from the image", with
///    a CodeModel that maps calls to compilation-unit copies and hooks that
///    drive the paging simulator;
///  - in the profiling build, with tracing hooks that reproduce the paper's
///    IR-level instrumentation (Sec. 6.1).
///
/// Threads are cooperative and deterministic: the caller steps each thread
/// by an instruction quantum (the execution engine round-robins them).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_RUNTIME_INTERPRETER_H
#define NIMG_RUNTIME_INTERPRETER_H

#include "src/heap/Heap.h"
#include "src/ir/Program.h"

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nimg {

/// Where execution currently is in the image: which compilation unit, and
/// which inline copy inside it. At build time (no image) both are -1/0.
struct ExecContext {
  int32_t Cu = -1;
  int32_t Copy = 0;
};

/// Maps invocations to execution contexts. The image-backed implementation
/// consults the compilation-unit inline maps; the default (build-time)
/// implementation reports no compilation units.
class CodeModel {
public:
  virtual ~CodeModel() = default;

  /// Returns the context in which \p Target executes when invoked from
  /// \p Caller at call site \p SiteId. The default has no CUs.
  virtual ExecContext enterContext(const ExecContext &Caller, uint32_t SiteId,
                                   MethodId Target) {
    (void)Caller;
    (void)SiteId;
    (void)Target;
    return ExecContext{};
  }
};

/// Observation points used by the paging simulator and the tracing
/// profiler. All callbacks receive the thread id; tracing hooks keep
/// per-thread shadow stacks that they push/pop on method enter/exit.
class RuntimeHooks {
public:
  virtual ~RuntimeHooks() = default;

  /// A method body starts executing in \p Ctx. \p NewCu is true when the
  /// invocation entered a different compilation unit (a CU entry point in
  /// the sense of Sec. 4.1).
  virtual void onMethodEnter(uint32_t Tid, const ExecContext &Ctx, MethodId M,
                             bool NewCu) {
    (void)Tid;
    (void)Ctx;
    (void)M;
    (void)NewCu;
  }
  /// The current method is about to return from the Ret terminator of
  /// \p Block.
  virtual void onMethodExit(uint32_t Tid, MethodId M, BlockId Block) {
    (void)Tid;
    (void)M;
    (void)Block;
  }
  /// A call is about to be made from \p SiteId (a path-cut point).
  virtual void onCallSite(uint32_t Tid, MethodId Caller, uint32_t SiteId) {
    (void)Tid;
    (void)Caller;
    (void)SiteId;
  }
  /// A branch or jump moved control from \p From to \p To within \p M.
  /// \p Ctx is the executing frame's context — split images need it to
  /// locate \p To's fragment (branches never cross inline copies).
  virtual void onBlockEdge(uint32_t Tid, const ExecContext &Ctx, MethodId M,
                           BlockId From, BlockId To) {
    (void)Tid;
    (void)Ctx;
    (void)M;
    (void)From;
    (void)To;
  }
  /// Whether onBlockEdge does anything. Asked once, by setHooks(); hooks
  /// that answer false get no onBlockEdge call.
  virtual bool observesBlockEdges() const { return true; }
  /// A heap-accessing instruction executed. \p Cells holds exactly
  /// traceSlotCount() entries; entries are -1 when the slot's runtime value
  /// was not a heap cell.
  virtual void onAccessSite(uint32_t Tid, MethodId M, uint32_t SiteId,
                            const CellIdx *Cells, uint16_t Count) {
    (void)Tid;
    (void)M;
    (void)SiteId;
    (void)Cells;
    (void)Count;
  }
  /// A static field was read or written.
  virtual void onStaticAccess(uint32_t Tid, ClassId C, int32_t StaticIdx) {
    (void)Tid;
    (void)C;
    (void)StaticIdx;
  }
  /// A cell was allocated at run time.
  virtual void onAllocate(uint32_t Tid, CellIdx C) {
    (void)Tid;
    (void)C;
  }
  /// A native method executed.
  virtual void onNativeCall(uint32_t Tid, NativeId N) {
    (void)Tid;
    (void)N;
  }
};

/// Interpreter configuration.
struct InterpConfig {
  /// Trigger static initializers on first class use (build-time role).
  bool RunClinits = false;
  /// Safety fuel per interpreter instance.
  uint64_t MaxInstructions = 2'000'000'000;
};

/// Per-class static-initializer state.
enum class ClinitState : uint8_t { NotRun, Running, Done };

struct DecodedInstr;
struct DecodedMethod;
class DecodedProgram;

/// Drops the interpreter's memoized decoded code of \p P (see
/// Interpreter); runs that hold it keep it, and the next run decodes the
/// methods it calls afresh.
void releaseDecodedCode(const Program &P);

/// The interpreter. Owns thread states and the static-field table; the
/// heap is shared with the caller so it can be snapshotted.
///
/// The loop (run) is one template instantiated with and without hooks. It
/// executes each method's pre-decoded code: flat instructions with resolved
/// branch targets and argument registers, decoded on the method's first
/// call and memoized per Program::version(), shared read-only by
/// concurrent runs of the program. Each thread keeps its frames and one
/// register stack; a frame addresses its registers by base index, since
/// the stack may reallocate when it grows.
class Interpreter {
public:
  Interpreter(const Program &P, Heap &H, InterpConfig Config = InterpConfig());

  /// \p CM maps invocations to contexts; null (the default) is the
  /// build-time model with no compilation units.
  void setCodeModel(CodeModel *CM) { Code = CM; }
  void setHooks(RuntimeHooks *H) {
    Hooks = H;
    EdgeHooks = H && H->observesBlockEdges();
  }

  // --- Statics and class initialization ------------------------------------

  Value getStaticField(ClassId C, int32_t Idx) const {
    return Statics[size_t(C)][size_t(Idx)];
  }
  void setStaticField(ClassId C, int32_t Idx, Value V) {
    Statics[size_t(C)][size_t(Idx)] = V;
  }
  std::vector<std::vector<Value>> &statics() { return Statics; }
  const std::vector<std::vector<Value>> &statics() const { return Statics; }

  ClinitState clinitState(ClassId C) const { return Clinit[size_t(C)]; }
  /// Marks every class initialized; the run-time role uses this because
  /// initializers already ran at build time (Sec. 2).
  void markAllClinitsDone();
  /// Explicitly triggers initialization of \p C on thread \p Tid (used by
  /// the build pipeline's proactive, permuted initialization order).
  /// Returns false if \p C was already initialized or initializing.
  bool requestClinit(uint32_t Tid, ClassId C);

  /// Classes initialized so far, in completion order. The build pipeline
  /// uses this to stamp initSeq into class-metadata objects.
  const std::vector<ClassId> &initializationOrder() const { return InitOrder; }

  // --- Resources -----------------------------------------------------------

  /// Binds the resource table used by Sys.readResource.
  void setResources(const std::unordered_map<std::string, CellIdx> *Map) {
    Resources = Map;
  }

  // --- Threads --------------------------------------------------------------

  /// Creates a thread whose root frame invokes \p M with \p Args. Returns
  /// the thread id. Thread ids are dense and in creation order, which is
  /// the order profiles are concatenated in (Sec. 7.1).
  uint32_t spawnThread(MethodId M, std::vector<Value> Args);

  /// Creates a thread with an empty stack. The build pipeline pairs this
  /// with requestClinit() to run static initializers proactively in a
  /// permuted order (modeling parallel class initialization, Sec. 2).
  uint32_t newBareThread();

  size_t numThreads() const { return Threads.size(); }
  bool threadFinished(uint32_t Tid) const;
  bool threadTrapped(uint32_t Tid) const;
  const std::string &trapMessage(uint32_t Tid) const;
  /// Return value of the thread's root method (valid once finished).
  Value threadResult(uint32_t Tid) const;

  /// Runs up to \p Quantum instructions on thread \p Tid; returns the
  /// number actually executed (0 when the thread is finished or trapped).
  /// A program edited since the last step (a new Program::version()) is
  /// decoded again first, and open frames continue at the same block and
  /// instruction of the new body.
  uint64_t step(uint32_t Tid, uint64_t Quantum);

  /// Convenience: runs a single thread to completion; returns its result.
  /// Asserts the thread neither trapped nor ran out of fuel.
  Value runToCompletion(MethodId M, std::vector<Value> Args);

  // --- Introspection ---------------------------------------------------------

  const std::string &output() const { return Output; }
  /// Instructions executed so far: exact between steps, and while a hook,
  /// OnSpawn or OnRespond runs.
  uint64_t instructionsExecuted() const { return InstrCount; }
  bool fuelExhausted() const { return InstrCount >= Config.MaxInstructions; }
  Heap &heap() { return H; }
  const Program &program() const { return P; }

  /// Called when Sys.spawn executes; the execution engine wires this to
  /// spawnThread.
  std::function<void(MethodId)> OnSpawn;
  /// Called when Sys.respond executes (first-response timing, Sec. 7.1).
  std::function<void(uint32_t, std::string_view)> OnRespond;

private:
  struct Frame {
    const DecodedMethod *DM = nullptr;
    uint32_t Pc = 0;   ///< Next instruction, an index into DM->Code.
    uint32_t Base = 0; ///< First register in the thread's register stack.
    uint16_t RetReg = 0;       ///< Caller register receiving the result.
    bool WantsResult = false;  ///< Whether RetReg is meaningful.
    bool IsClinitTrigger = false; ///< Pushed by lazy class initialization.
    ExecContext Ctx;
  };

  struct ThreadState {
    std::vector<Frame> Frames;
    std::vector<Value> Regs; ///< Register stack; its size only grows.
    bool Trapped = false;
    bool YieldRequested = false;
    std::string TrapMsg;
    Value Result;
    bool Finished = false;
  };

  /// A CallVirtual site's last receiver class and its resolved target.
  struct VirtualCacheEntry {
    ClassId Class = -1;
    const DecodedMethod *Target = nullptr;
  };

  template <bool Hooked>
  uint64_t run(uint32_t Tid, ThreadState &T, uint64_t Quantum);
  /// Pushes a frame for \p DM; \p CopyArgs(Regs) fills its \p NumArgs
  /// parameters.
  template <typename ArgFn>
  void pushFrame(uint32_t Tid, ThreadState &T, const DecodedMethod &DM,
                 uint16_t RetReg, bool WantsResult, ExecContext CallerCtx,
                 uint32_t SiteId, bool IsClinitTrigger, uint16_t NumArgs,
                 ArgFn CopyArgs);
  template <bool Hooked>
  void popFrame(uint32_t Tid, ThreadState &T, Value Result, bool HasResult,
                BlockId Block);
  /// Starts the initializers \p C's chain still needs; returns true when it
  /// pushed a frame (the instruction then executes again afterwards).
  bool ensureInitialized(uint32_t Tid, ClassId C);
  bool doNative(uint32_t Tid, ThreadState &T, const Frame &F, Value *R,
                const DecodedInstr &In);
  void trap(ThreadState &T, const std::string &Msg);
  /// After an edit of the program (a new version), switches to its current
  /// decoded code, moving every open frame to the same block and
  /// instruction of its method's new body.
  void syncCode();
  const DecodedMethod &method(MethodId M) const;

  /// Reports an executed access site to the hooks.
  void reportAccess(uint32_t Tid, const Frame &F, uint32_t SiteId,
                    std::initializer_list<Value> Slots, uint16_t StaticCount);

  /// The characters of \p V when it references a string cell; the view
  /// is valid until the next allocation on the heap.
  std::optional<std::string_view> cellString(const Value &V);

  const Program &P;
  Heap &H;
  InterpConfig Config;
  std::shared_ptr<const DecodedProgram> Decoded;
  CodeModel *Code = nullptr;
  RuntimeHooks *Hooks = nullptr;
  bool EdgeHooks = false; ///< Hooks observe block edges.

  std::vector<std::vector<Value>> Statics;
  std::vector<ClinitState> Clinit;
  /// Per class: its whole superclass chain has left NotRun, so lazy
  /// initialization has nothing left to do for it (states only move
  /// forward; an edit of the program clears it).
  std::vector<uint8_t> ChainStarted;
  std::vector<ClassId> InitOrder;
  /// Per string-table entry: its interned cell, or -1 before first use.
  std::vector<CellIdx> StringCells;
  std::vector<VirtualCacheEntry> VirtualCache;
  /// Deque: Sys.spawn appends a thread while another thread executes, so
  /// references to existing thread states must stay valid.
  std::deque<ThreadState> Threads;
  const std::unordered_map<std::string, CellIdx> *Resources = nullptr;
  std::string Output;
  std::string ConcatBuf; ///< Concat's scratch buffer, reused.
  uint64_t InstrCount = 0;
};

} // namespace nimg

#endif // NIMG_RUNTIME_INTERPRETER_H
