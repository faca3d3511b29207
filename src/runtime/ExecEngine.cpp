//===- ExecEngine.cpp - Image execution engine ------------------------------===//

#include "src/runtime/ExecEngine.h"

#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"
#include "src/profiling/PathGraph.h"
#include "src/support/SplitMix64.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_set>

using namespace nimg;

namespace {

/// Cost-model units charged by the tracing probes, per operation kind.
/// Method-ordering instrumentation is the most expensive (it records every
/// method execution, Sec. 7.4: 1.83x on AWFY vs 1.36x for heap tracing and
/// 1.21x for cu tracing); heap tracing pays per recorded object access; cu
/// tracing only instruments CU entry points.
struct ProbeCosts {
  uint64_t EdgeUpdate = 1;
  uint64_t EnterExit = 2;
  uint64_t EmitRecord = 6;
  uint64_t Operand = 2;
  uint64_t CuEnter = 4;
  /// Sampled mode: the only charged cost — reading the interrupted PC and
  /// appending one sample record. Per-transition probes cost nothing
  /// because sampled binaries carry no instrumentation.
  uint64_t SampleRecord = 16;

  static ProbeCosts forMode(TraceMode Mode) {
    ProbeCosts C;
    if (Mode == TraceMode::MethodOrder) {
      // Method-entry signatures are recorded for every invocation,
      // including inlined ones; paths without events are still emitted.
      C.EnterExit = 8;
      C.EmitRecord = 12;
    }
    if (Mode == TraceMode::CuOrder)
      C.CuEnter = 8;
    return C;
  }
};

/// Index of each CU's first inline copy in a numbering of every copy of
/// \p Code, plus the total at the end.
std::vector<uint32_t> copyBases(const CompiledProgram &Code) {
  std::vector<uint32_t> Base;
  Base.reserve(Code.CUs.size() + 1);
  Base.push_back(0);
  for (const CompilationUnit &CU : Code.CUs)
    Base.push_back(Base.back() + uint32_t(CU.Copies.size()));
  return Base;
}

/// Maps the run's layout-independent items onto this image's byte ranges
/// and touches them: a CU copy entered, a cold block reached, a build-heap
/// cell accessed, a static slot, a native stub. Interpretation and replay
/// both go through here, so a replayed item touches exactly the bytes the
/// interpreter would have. A run never evicts, so touching an item again
/// changes nothing: copies and cells are touched on first use only.
class ImageToucher {
public:
  ImageToucher(const NativeImage &Img, PagingSim &Paging)
      : Img(Img), Paging(Paging),
        SplitActive(Img.Split.active() && !Img.Layout.CuColdOffsets.empty()),
        CopyBase(copyBases(Img.code())), CopyEntered(CopyBase.back(), 0),
        Touched(Img.Snapshot.Entries.size(), 0) {}

  /// Entering inline copy \p Copy of CU \p Cu.
  void enterCopy(int32_t Cu, int32_t Copy) {
    uint8_t &Entered = CopyEntered[CopyBase[size_t(Cu)] + uint32_t(Copy)];
    if (Entered)
      return;
    Entered = 1;
    const CuSplit *S = SplitActive ? &Img.Split.PerCu[size_t(Cu)] : nullptr;
    if (S && S->Split) {
      // Split CU: entering a copy touches only its hot fragment; cold
      // blocks fault individually from the cold tail if ever reached.
      const CopySplit &CS = S->Copies[size_t(Copy)];
      Paging.touch(ImageSection::Text,
                   Img.Layout.CuOffsets[size_t(Cu)] + CS.HotOffset, CS.HotSize);
      if (!CS.Blocks.empty() && CS.Blocks[0].Cold)
        Paging.touch(ImageSection::Text,
                     Img.Layout.CuColdOffsets[size_t(Cu)] +
                         CS.Blocks[0].Offset,
                     CS.Blocks[0].Size);
      return;
    }
    const InlineCopy &C = Img.code().CUs[size_t(Cu)].Copies[size_t(Copy)];
    Paging.touch(ImageSection::Text,
                 Img.Layout.CuOffsets[size_t(Cu)] + C.CodeOffset, C.CodeSize);
  }

  /// Whether the image has a cold tail that block edges can reach.
  bool splitActive() const { return SplitActive; }

  /// Whether control entering \p Block of the copy lands in the cold tail.
  bool coldBlock(int32_t Cu, int32_t Copy, BlockId Block) const {
    if (!SplitActive || !Img.Split.PerCu[size_t(Cu)].Split)
      return false;
    const CopySplit &CS = Img.Split.PerCu[size_t(Cu)].Copies[size_t(Copy)];
    return size_t(Block) < CS.Blocks.size() && CS.Blocks[size_t(Block)].Cold;
  }

  /// Reaching cold block \p Block (coldBlock() must hold).
  void enterColdBlock(int32_t Cu, int32_t Copy, BlockId Block) {
    const BlockPlace &BP = Img.Split.PerCu[size_t(Cu)]
                               .Copies[size_t(Copy)]
                               .Blocks[size_t(Block)];
    Paging.touch(ImageSection::Text,
                 Img.Layout.CuColdOffsets[size_t(Cu)] + BP.Offset, BP.Size);
  }

  /// Accessing heap cell \p Cell; returns its snapshot entry when the
  /// image stores it (the access touched .svm_heap), else -1.
  int32_t accessCell(CellIdx Cell) {
    int32_t Entry = Img.Snapshot.entryOf(Cell);
    if (Entry < 0 ||
        Img.Layout.ObjectOffsets[size_t(Entry)] == ImageLayout::NotStored)
      return -1;
    if (Touched[size_t(Entry)])
      return Entry;
    Touched[size_t(Entry)] = 1;
    ++NumTouched;
    Paging.touch(ImageSection::HeapSec, Img.Layout.ObjectOffsets[size_t(Entry)],
                 Img.Snapshot.Entries[size_t(Entry)].SizeBytes);
    return Entry;
  }

  void accessStatic(ClassId C, int32_t StaticIdx) {
    Paging.touch(ImageSection::HeapSec,
                 Img.Layout.staticSlotOffset(C, StaticIdx), 8);
  }

  void callNative(int32_t N) {
    // Native code lives in the statically-linked tail of .text; each native
    // entry point touches its (deterministic) stub.
    uint64_t Stub = mix64(0x7a11, uint64_t(N)) %
                    (Img.Layout.NativeTailSize > 512
                         ? Img.Layout.NativeTailSize - 512
                         : 1);
    Paging.touch(ImageSection::Text, Img.Layout.NativeTailOffset + Stub, 256);
  }

  /// Distinct stored snapshot objects touched so far.
  size_t storedObjectsTouched() const { return NumTouched; }

private:
  const NativeImage &Img;
  PagingSim &Paging;
  bool SplitActive;
  std::vector<uint32_t> CopyBase;
  std::vector<uint8_t> CopyEntered; ///< Per inline copy.
  std::vector<uint8_t> Touched;     ///< Per snapshot entry.
  size_t NumTouched = 0;
};

/// Records the first touch of every item into an AccessLog while the
/// interpreter runs. A later touch of an item is dropped: one run never
/// evicts, so it finds every page of the item resident and changes
/// nothing. Cells are logged whether or not this image stores them —
/// another layout of the same base may. Runtime-allocated cells (beyond
/// the build heap) are stored by no image and never logged.
class AccessRecorder {
public:
  AccessRecorder(const NativeImage &Img, const uint64_t &Clock)
      : Clock(Clock), CopyBase(copyBases(Img.code())),
        CellSeen(Img.Built.BuildHeap->numCells(), false) {
    CopySeen.assign(CopyBase.back(), false);
    const Program &P = *Img.P;
    StaticBase.reserve(P.numClasses() + 1);
    StaticBase.push_back(0);
    for (size_t C = 0; C < P.numClasses(); ++C)
      StaticBase.push_back(StaticBase.back() +
                           uint32_t(P.classDef(ClassId(C)).StaticFields.size()));
    StaticSeen.assign(StaticBase.back(), false);
  }

  void enterCopy(int32_t Cu, int32_t Copy) {
    if (firstTime(CopySeen, CopyBase[size_t(Cu)] + uint32_t(Copy)))
      add(AccessLog::Kind::CopyEntry, Cu, Copy);
  }
  void enterColdBlock(int32_t Cu, int32_t Copy, BlockId Block) {
    uint64_t Key = (uint64_t(CopyBase[size_t(Cu)] + uint32_t(Copy)) << 32) |
                   uint32_t(Block);
    if (ColdSeen.insert(Key).second)
      add(AccessLog::Kind::ColdBlock, Cu, Copy, Block);
  }
  void accessCell(CellIdx Cell) {
    if (size_t(Cell) < CellSeen.size() && firstTime(CellSeen, size_t(Cell)))
      add(AccessLog::Kind::Cell, Cell);
  }
  void accessStatic(ClassId C, int32_t StaticIdx) {
    if (firstTime(StaticSeen, StaticBase[size_t(C)] + size_t(StaticIdx)))
      add(AccessLog::Kind::Static, C, StaticIdx);
  }
  void callNative(int32_t N) {
    if (size_t(N) >= NativeSeen.size())
      NativeSeen.resize(size_t(N) + 1, false);
    if (firstTime(NativeSeen, size_t(N)))
      add(AccessLog::Kind::Native, N);
  }
  void respond(uint64_t Instructions) {
    Log.Events.push_back({Instructions, 0, 0, 0, AccessLog::Kind::Respond});
  }

  AccessLog &log() { return Log; }

private:
  static bool firstTime(std::vector<bool> &Seen, size_t I) {
    if (Seen[I])
      return false;
    Seen[I] = true;
    return true;
  }
  void add(AccessLog::Kind K, int32_t A, int32_t B = 0, int32_t C = 0) {
    Log.Events.push_back({Clock, A, B, C, K});
  }

  const uint64_t &Clock;
  AccessLog Log;
  std::vector<uint32_t> CopyBase, StaticBase;
  std::vector<bool> CopySeen, CellSeen, StaticSeen, NativeSeen;
  std::unordered_set<uint64_t> ColdSeen;
};

/// One trace mode's probes: its own writer, probe costs and per-thread
/// path/operand (or sampler) stacks. Nothing here feeds back into the
/// interpretation, so a tracer sharing a run with others writes exactly the
/// capture and charges exactly the probe units of a run tracing only its
/// mode.
class ModeTracer {
public:
  ModeTracer(const NativeImage &Img, const TraceOptions &Options,
             PathGraphCache &Paths)
      : Writer(Options), Img(Img), Paths(Paths), Options(Options),
        Mode(Options.Mode), Costs(ProbeCosts::forMode(Options.Mode)) {}

  TraceWriter Writer;
  /// Modeled time at the first response, charging this tracer's probes.
  double FirstResponseNs = 0;

  const TraceOptions &options() const { return Options; }
  /// Whether block edges move this tracer's path values.
  bool tracesPaths() const {
    return Mode == TraceMode::MethodOrder || Mode == TraceMode::HeapOrder;
  }
  uint64_t samplesTaken() const { return Samples; }
  uint64_t sampleEventsSkipped() const { return SkippedEvents; }

  /// Distinct sampled CU roots per distinct entered root, in permille —
  /// the coverage estimate a sampled profile header is stamped with.
  uint32_t sampleCoveragePermille() const {
    if (EnteredRoots.empty())
      return 0;
    return uint32_t(SampledRoots.size() * 1000 / EnteredRoots.size());
  }

  /// Sampled mode: records one sample of whatever \p Tid is executing
  /// right now. A thread with no open frame (between methods, or already
  /// finished) yields no record — real samplers drop such ticks too.
  void takeSample(uint32_t Tid) {
    // Drain the novelty buffer first: CU roots first entered since the
    // previous tick, in entry order — the model analog of an LBR-style
    // hardware buffer read out at the sampling interrupt. This is what
    // lets a periodic sampler see one-shot startup code whose whole
    // lifetime fits between two ticks: the entries cost nothing when they
    // happen (the production binary carries no probes); the records are
    // paid for here, once per *distinct* root, bounded by the CU count.
    for (const SampledFrame &F : PendingNewRoots)
      sample(Tid, F);
    PendingNewRoots.clear();
    if (Tid >= SampleStacks.size() || SampleStacks[Tid].empty())
      return;
    sample(Tid, SampleStacks[Tid].back());
  }

  void methodEnter(uint32_t Tid, const ExecContext &Ctx, MethodId M,
                   bool NewCu) {
    ensureStack(Tid);
    if (Mode == TraceMode::Sampled) {
      // No record and no probe cost: the sampler only shadows what the
      // thread is executing so a sample tick can attribute itself, and
      // counts the transitions instrumentation would have recorded.
      if (Tid >= SampleStacks.size())
        SampleStacks.resize(Tid + 1);
      MethodId Root = Ctx.Cu >= 0 ? Img.code().CUs[size_t(Ctx.Cu)].Root : M;
      SampleStacks[Tid].push_back({M, Root});
      if (NewCu && Ctx.Cu >= 0 && EnteredRoots.insert(Root).second)
        PendingNewRoots.push_back({M, Root});
      ++SkippedEvents;
      return;
    }
    if (Mode == TraceMode::CuOrder) {
      if (NewCu && Ctx.Cu >= 0) {
        Writer.append(Tid,
                      tracerec::makeCuEnter(Img.code().CUs[size_t(Ctx.Cu)].Root));
        Writer.addProbeCost(Costs.CuEnter);
      }
      return;
    }
    const PathGraph &G = Paths.of(M);
    Stacks[Tid].push_back({&G, M, G.entryValue(), {}});
    Writer.addProbeCost(Costs.EnterExit);
  }

  void methodExit(uint32_t Tid, MethodId M, BlockId Block) {
    if (Mode == TraceMode::Sampled) {
      if (Tid < SampleStacks.size() && !SampleStacks[Tid].empty() &&
          SampleStacks[Tid].back().M == M)
        SampleStacks[Tid].pop_back();
      ++SkippedEvents;
      return;
    }
    if (!tracesPaths())
      return;
    FrameState *F = frameFor(Tid, M);
    if (!F)
      return; // Desynced trace stack: drop the event, not the process.
    emitPath(Tid, *F, F->PathVal + F->Graph->retEmitAdd(Block));
    Stacks[Tid].pop_back();
    Writer.addProbeCost(Costs.EnterExit);
  }

  void callSite(uint32_t Tid, MethodId Caller, uint32_t SiteId) {
    if (!tracesPaths())
      return;
    FrameState *F = frameFor(Tid, Caller);
    if (!F)
      return;
    const PathEdgeAction &A = F->Graph->callAction(SiteId);
    assert(A.Cut && "call edges are always cut");
    emitPath(Tid, *F, F->PathVal + A.EmitAdd);
    F->PathVal = A.Reset;
  }

  void blockEdge(uint32_t Tid, MethodId M, BlockId From, BlockId To) {
    if (!tracesPaths())
      return;
    FrameState *F = frameFor(Tid, M);
    if (!F)
      return;
    const PathEdgeAction &A = F->Graph->branchAction(From, To);
    if (A.Cut) {
      emitPath(Tid, *F, F->PathVal + A.EmitAdd);
      F->PathVal = A.Reset;
    } else {
      F->PathVal += A.Add;
    }
    Writer.addProbeCost(Costs.EdgeUpdate);
  }

  /// One accessed value: snapshot entry \p Entry, or -1 when it is not a
  /// stored image-heap object.
  void access(uint32_t Tid, int32_t Entry) {
    if (Mode != TraceMode::HeapOrder)
      return;
    ensureStack(Tid);
    if (Stacks[Tid].empty())
      return; // No open frame to attach the operand to; drop it.
    Stacks[Tid].back().Operands.push_back(Entry >= 0 ? uint64_t(Entry) + 1
                                                     : 0);
    Writer.addProbeCost(Costs.Operand);
  }

private:
  struct FrameState {
    const PathGraph *Graph;
    MethodId M;
    uint64_t PathVal;
    std::vector<uint64_t> Operands;
  };

  /// What one thread frame looks like to the sampler: enough to attribute
  /// a tick to a method and its enclosing CU root.
  struct SampledFrame {
    MethodId M;
    MethodId Root;
  };

  void ensureStack(uint32_t Tid) {
    if (Tid >= Stacks.size())
      Stacks.resize(Tid + 1);
  }

  void sample(uint32_t Tid, const SampledFrame &F) {
    Writer.append(Tid, tracerec::makeSample(F.M, F.Root));
    Writer.addProbeCost(Costs.SampleRecord);
    SampledRoots.insert(F.Root);
    ++Samples;
  }

  /// The top frame of \p Tid if it belongs to \p M, else nullptr. Hook
  /// sequences driven by external state can desync from the probe stack;
  /// trace events are best-effort observations, so a mismatched event is
  /// dropped instead of asserting.
  FrameState *frameFor(uint32_t Tid, MethodId M) {
    ensureStack(Tid);
    if (Stacks[Tid].empty() || Stacks[Tid].back().M != M)
      return nullptr;
    return &Stacks[Tid].back();
  }

  void emitPath(uint32_t Tid, FrameState &F, uint64_t PathId) {
    // Heap-ordering traces skip paths without operands — the analyses only
    // need object-access order (this is what keeps heap-tracing overhead
    // below method-tracing overhead).
    if (Mode == TraceMode::HeapOrder && F.Operands.empty())
      return;
    Writer.append(Tid, tracerec::makePath(F.M, PathId));
    Writer.addProbeCost(Costs.EmitRecord);
    for (uint64_t Op : F.Operands)
      Writer.append(Tid, Op);
    F.Operands.clear();
  }

  const NativeImage &Img;
  PathGraphCache &Paths;
  TraceOptions Options;
  TraceMode Mode;
  ProbeCosts Costs;
  std::vector<std::vector<FrameState>> Stacks;
  // Sampled-mode shadow state (simulator-side only; costs nothing in the
  // time model — a real sampler walks the interrupted stack instead).
  std::vector<std::vector<SampledFrame>> SampleStacks;
  std::unordered_set<MethodId> EnteredRoots;
  std::unordered_set<MethodId> SampledRoots;
  /// Roots first entered since the last tick (with the entering method),
  /// in entry order, drained by takeSample(). Entries after the final
  /// tick are lost, as in a real sampler.
  std::vector<SampledFrame> PendingNewRoots;
  uint64_t Samples = 0;
  uint64_t SkippedEvents = 0;
};

/// The interpreter's hooks: the run-wide work (page touches, the access
/// log) once per event, then every attached tracer.
class EngineHooks : public RuntimeHooks {
public:
  EngineHooks(ImageToucher &Touch, AccessRecorder *Rec,
              std::vector<ModeTracer> &Tracers)
      : Touch(Touch), Rec(Rec), Tracers(Tracers) {}

  void onMethodEnter(uint32_t Tid, const ExecContext &Ctx, MethodId M,
                     bool NewCu) override {
    if (Ctx.Cu >= 0) {
      if (Rec)
        Rec->enterCopy(Ctx.Cu, Ctx.Copy);
      Touch.enterCopy(Ctx.Cu, Ctx.Copy);
    }
    for (ModeTracer &T : Tracers)
      T.methodEnter(Tid, Ctx, M, NewCu);
  }

  void onMethodExit(uint32_t Tid, MethodId M, BlockId Block) override {
    for (ModeTracer &T : Tracers)
      T.methodExit(Tid, M, Block);
  }

  void onCallSite(uint32_t Tid, MethodId Caller, uint32_t SiteId) override {
    for (ModeTracer &T : Tracers)
      T.callSite(Tid, Caller, SiteId);
  }

  void onBlockEdge(uint32_t Tid, const ExecContext &Ctx, MethodId M,
                   BlockId From, BlockId To) override {
    if (Ctx.Cu >= 0 && Touch.coldBlock(Ctx.Cu, Ctx.Copy, To)) {
      if (Rec)
        Rec->enterColdBlock(Ctx.Cu, Ctx.Copy, To);
      Touch.enterColdBlock(Ctx.Cu, Ctx.Copy, To);
    }
    for (ModeTracer &T : Tracers)
      T.blockEdge(Tid, M, From, To);
  }

  /// Edges matter to a split image's cold tail and to path tracers only.
  bool observesBlockEdges() const override {
    if (Touch.splitActive())
      return true;
    for (const ModeTracer &T : Tracers)
      if (T.tracesPaths())
        return true;
    return false;
  }

  void onAccessSite(uint32_t Tid, MethodId M, uint32_t SiteId,
                    const CellIdx *Cells, uint16_t Count) override {
    (void)M;
    (void)SiteId;
    for (uint16_t I = 0; I < Count; ++I) {
      int32_t Entry = -1;
      if (Cells[I] >= 0) {
        if (Rec)
          Rec->accessCell(Cells[I]);
        Entry = Touch.accessCell(Cells[I]);
      }
      for (ModeTracer &T : Tracers)
        T.access(Tid, Entry);
    }
  }

  void onStaticAccess(uint32_t Tid, ClassId C, int32_t StaticIdx) override {
    (void)Tid;
    if (Rec)
      Rec->accessStatic(C, StaticIdx);
    Touch.accessStatic(C, StaticIdx);
  }

  void onNativeCall(uint32_t Tid, NativeId N) override {
    (void)Tid;
    if (Rec)
      Rec->callNative(int32_t(N));
    Touch.callNative(int32_t(N));
  }

private:
  ImageToucher &Touch;
  AccessRecorder *Rec;
  std::vector<ModeTracer> &Tracers;
};

/// Execution key of a run: everything besides the base that the
/// interpretation depends on. Paging, cost model and cache temperature
/// only act on the touches, so they stay out.
uint64_t executionKey(const NativeImage &Img, const RunConfig &Cfg) {
  uint64_t K = mix64(Cfg.StopAtFirstResponse ? 1 : 2, Cfg.ThreadQuantum);
  K = mix64(K, Cfg.MaxInstructions);
  return mix64(K, Img.Split.active() ? Img.Split.DecisionFingerprint : 0);
}

/// The run-time state shared by interpretation and replay: the image's
/// page cache, the touch mapping, and the fault baseline a warm cache
/// leaves behind.
struct RunPaging {
  PagingConfig Config;
  PagingSim Sim;
  ImageToucher Touch;
  uint64_t WarmText, WarmHeap, WarmCold, WarmHuge;

  RunPaging(const NativeImage &Img, const RunConfig &Cfg, RunStats &Stats,
            const uint64_t *TouchClock)
      : Config(pagingFor(Img, Cfg)),
        Sim(Img.Layout.TextSize, Img.Layout.HeapSize, Config),
        Touch(Img, Sim) {
    if (Cfg.RecordTouches)
      Sim.recordTouches(&Stats.Touches, TouchClock);
    if (Img.Split.active() && Img.Layout.ColdTailSize > 0)
      Sim.setTextColdRegion(Img.Layout.ColdTailOffset, Img.Layout.ColdTailSize);
    if (!Cfg.ColdCache) {
      // Warm cache: pre-fault everything so no majors are charged.
      Sim.touch(ImageSection::Text, 0, Img.Layout.TextSize);
      Sim.touch(ImageSection::HeapSec, 0, Img.Layout.HeapSize);
    }
    WarmText = Sim.faults(ImageSection::Text);
    WarmHeap = Sim.faults(ImageSection::HeapSec);
    WarmCold = Sim.counters().TextColdFaults;
    WarmHuge = Sim.counters().TextHugeFaults;
  }

  /// The image's --huge-pages budget configures the front-of-.text huge
  /// region; a caller-supplied HugeTextPages (FleetSim reruns) wins.
  static PagingConfig pagingFor(const NativeImage &Img, const RunConfig &Cfg) {
    PagingConfig PCfg = Cfg.Paging;
    if (PCfg.HugeTextPages == 0)
      PCfg.HugeTextPages = Img.Layout.HugePages;
    return PCfg;
  }

  /// Startup time after \p Instructions and \p ProbeUnits, charging the
  /// faults taken so far.
  double timeNs(const RunConfig &Cfg, uint64_t Instructions,
                uint64_t ProbeUnits) const {
    uint64_t Faults = Sim.totalFaults() - WarmText - WarmHeap;
    uint64_t Huge = Sim.counters().TextHugeFaults - WarmHuge;
    return Cfg.Cost.startupNs(Instructions, ProbeUnits, Faults - Huge, Huge,
                              Config.HugePageSize);
  }
};

/// Interprets \p Img (the only path that executes instructions) with
/// \p Tracers attached, recording an access log into \p Rec when it is
/// non-null. \p Stats receives what the tracers share; each tracer keeps
/// its probe units and first-response time.
void interpret(const NativeImage &Img, const RunConfig &Cfg, RunPaging &Pg,
               uint64_t &TouchClock, AccessRecorder *Rec,
               std::vector<ModeTracer> &Tracers, RunStats &Stats) {
  const Program &P = *Img.P;
  // The run executes on a private copy of the image heap and statics: the
  // mapped image is copy-on-write per process.
  Heap RunHeap(*Img.Built.BuildHeap);

  EngineHooks Hooks(Pg.Touch, Rec, Tracers);
  CuCodeModel Code(Img.code());

  InterpConfig ICfg;
  ICfg.RunClinits = false;
  ICfg.MaxInstructions = Cfg.MaxInstructions;
  Interpreter I(P, RunHeap, ICfg);
  I.markAllClinitsDone();
  // Statics from the image; sizes can differ when builtin classes were
  // registered after the snapshot, so copy row-wise.
  for (size_t C = 0; C < Img.Built.Statics.size() && C < I.statics().size();
       ++C)
    I.statics()[C] = Img.Built.Statics[C];
  I.setResources(&Img.Built.ResourceCells);
  I.setCodeModel(&Code);
  I.setHooks(&Hooks);

  bool Killed = false;
  I.OnSpawn = [&](MethodId M) { I.spawnThread(M, {}); };
  I.OnRespond = [&](uint32_t, std::string_view) {
    if (Stats.Responded)
      return;
    Stats.Responded = true;
    if (Rec)
      Rec->respond(I.instructionsExecuted());
    Stats.TimeToFirstResponseNs = Pg.timeNs(Cfg, I.instructionsExecuted(), 0);
    for (ModeTracer &T : Tracers)
      T.FirstResponseNs = Pg.timeNs(Cfg, I.instructionsExecuted(),
                                    T.Writer.probeUnits());
    if (Cfg.StopAtFirstResponse)
      Killed = true; // SIGKILL: stop scheduling, lose unflushed buffers.
  };

  // Sampled captures are driven by the global model clock: scheduling
  // quanta are clamped so no step crosses a sample boundary, and the tick
  // is attributed to the thread that was running when the clock hit it —
  // the same answer at any worker count, since the interpreter itself is
  // sequential and deterministic. A sampler always runs alone (the clamp
  // changes the interleaving).
  ModeTracer *Sampler = nullptr;
  for (ModeTracer &T : Tracers)
    if (T.options().Mode == TraceMode::Sampled)
      Sampler = &T;
  assert((!Sampler || Tracers.size() == 1) && "a sampler runs alone");
  uint64_t SamplePeriod = 0, NextSampleAt = 0;
  if (Sampler) {
    const TraceOptions &TO = Sampler->options();
    SamplePeriod =
        TO.SamplePeriod ? TO.SamplePeriod : TraceOptions::DefaultSamplePeriod;
    NextSampleAt = TO.SamplePhase + SamplePeriod;
  }

  // Root thread runs main. Deterministic round-robin scheduling.
  I.spawnThread(P.MainMethod, {});
  bool Progress = true;
  while (Progress && !Killed) {
    Progress = false;
    size_t NumThreads = I.numThreads();
    for (uint32_t Tid = 0; Tid < NumThreads && !Killed; ++Tid) {
      if (I.threadFinished(Tid))
        continue;
      TouchClock = I.instructionsExecuted();
      uint64_t Quantum = Cfg.ThreadQuantum;
      if (Sampler) {
        uint64_t Clock = I.instructionsExecuted();
        if (NextSampleAt > Clock && NextSampleAt - Clock < Quantum)
          Quantum = NextSampleAt - Clock;
      }
      uint64_t Ran = I.step(Tid, Quantum);
      if (Sampler && Ran > 0) {
        while (I.instructionsExecuted() >= NextSampleAt) {
          Sampler->takeSample(Tid);
          NextSampleAt += SamplePeriod;
        }
      }
      if (Ran > 0)
        Progress = true;
      if (I.threadTrapped(Tid)) {
        Stats.Trapped = true;
        Stats.TrapMessage = I.trapMessage(Tid);
        Progress = false;
        break;
      }
    }
    if (I.fuelExhausted()) {
      Stats.FuelExhausted = true;
      break;
    }
  }

  for (ModeTracer &T : Tracers) {
    if (Killed)
      T.Writer.killAll();
    else
      T.Writer.flushAll();
  }

  Stats.Instructions = I.instructionsExecuted();
  Stats.Output = I.output();
  if (Sampler) {
    Stats.SamplesTaken = Sampler->samplesTaken();
    Stats.SampleEventsSkipped = Sampler->sampleEventsSkipped();
    Stats.SampleCoveragePermille = Sampler->sampleCoveragePermille();
    Stats.SamplePeriod = SamplePeriod;
  }
  if (Rec) {
    AccessLog &Log = Rec->log();
    Log.Instructions = Stats.Instructions;
    Log.Output = Stats.Output;
    Log.Trapped = Stats.Trapped;
    Log.TrapMessage = Stats.TrapMessage;
    Log.FuelExhausted = Stats.FuelExhausted;
  }
}

/// Replays \p Log through \p Pg: the logged first touches, in order and
/// at their clocks, drive the image's page cache exactly as the
/// interpretation would have.
void replay(const AccessLog &Log, const RunConfig &Cfg, RunPaging &Pg,
            uint64_t &TouchClock, RunStats &Stats) {
  for (const AccessLog::Event &E : Log.Events) {
    TouchClock = E.Clock;
    switch (E.K) {
    case AccessLog::Kind::CopyEntry:
      Pg.Touch.enterCopy(E.A, E.B);
      break;
    case AccessLog::Kind::ColdBlock:
      Pg.Touch.enterColdBlock(E.A, E.B, E.C);
      break;
    case AccessLog::Kind::Cell:
      Pg.Touch.accessCell(E.A);
      break;
    case AccessLog::Kind::Static:
      Pg.Touch.accessStatic(E.A, E.B);
      break;
    case AccessLog::Kind::Native:
      Pg.Touch.callNative(E.A);
      break;
    case AccessLog::Kind::Respond:
      Stats.Responded = true;
      Stats.TimeToFirstResponseNs = Pg.timeNs(Cfg, E.Clock, 0);
      break;
    }
  }
  Stats.Instructions = Log.Instructions;
  Stats.Output = Log.Output;
  Stats.Trapped = Log.Trapped;
  Stats.TrapMessage = Log.TrapMessage;
  Stats.FuelExhausted = Log.FuelExhausted;
}

/// Modeled startup time of \p S: its instructions, probe units and faults.
double modeledNs(const RunConfig &Cfg, const RunPaging &Pg,
                 const RunStats &S) {
  return Cfg.Cost.startupNs(S.Instructions, S.ProbeUnits,
                            S.totalFaults() - S.TextHugeFaults,
                            S.TextHugeFaults, Pg.Config.HugePageSize);
}

/// Fills the fault, page-map and time fields of \p Stats from the run's
/// page cache; the modeled time charges \p Stats.ProbeUnits.
void finishStats(const NativeImage &Img, const RunConfig &Cfg,
                 const RunPaging &Pg, RunStats &Stats) {
  const PagingSim &Paging = Pg.Sim;
  Stats.TextFaults = Paging.faults(ImageSection::Text) - Pg.WarmText;
  Stats.HeapFaults = Paging.faults(ImageSection::HeapSec) - Pg.WarmHeap;
  Stats.TextColdFaults = Paging.counters().TextColdFaults - Pg.WarmCold;
  Stats.TextHugeFaults = Paging.counters().TextHugeFaults - Pg.WarmHuge;
  Stats.PrefetchedPages = Paging.prefetchedPages();
  Stats.StoredObjectsTouched = Pg.Touch.storedObjectsTouched();
  Stats.StoredObjectsTotal = Img.Snapshot.numStored();
  Stats.TextPages = Paging.pageStates(ImageSection::Text);
  Stats.HeapPages = Paging.pageStates(ImageSection::HeapSec);
  Stats.TimeNs = modeledNs(Cfg, Pg, Stats);
}

/// Per-interpretation (or per-replay) metrics.
void recordRunMetrics(const NativeImage &Img, const RunStats &Stats) {
  NIMG_COUNTER_ADD("nimg.run.count", 1);
  if (Img.Split.active()) {
    NIMG_COUNTER_ADD("nimg.split.faults.cold", Stats.TextColdFaults);
    NIMG_COUNTER_ADD("nimg.split.faults.hot",
                     Stats.TextFaults - Stats.TextColdFaults);
  }
  if (Stats.SamplePeriod) {
    NIMG_COUNTER_ADD("nimg.sample.runs", 1);
    NIMG_COUNTER_ADD("nimg.sample.taken", Stats.SamplesTaken);
    NIMG_COUNTER_ADD("nimg.sample.skipped_events", Stats.SampleEventsSkipped);
    NIMG_HIST_RECORD("nimg.sample.coverage_permille",
                     Stats.SampleCoveragePermille);
  }
  NIMG_HIST_RECORD("nimg.run.faults.total", Stats.totalFaults());
  NIMG_HIST_RECORD("nimg.run.instructions", Stats.Instructions);
  if (Stats.Trapped)
    NIMG_COUNTER_ADD("nimg.run.trapped", 1);
  if (Stats.FuelExhausted)
    NIMG_COUNTER_ADD("nimg.run.fuel_exhausted", 1);
  if (Stats.Responded)
    NIMG_COUNTER_ADD("nimg.run.responded", 1);
}

/// One interpretation of \p Img with a tracer per entry of \p Modes; one
/// RunStats and one capture per mode.
std::vector<RunStats> traceModes(const NativeImage &Img, const RunConfig &Cfg,
                                 const std::vector<TraceOptions> &Modes,
                                 std::vector<TraceCapture> &Captures,
                                 PathGraphCache &Paths) {
  NIMG_SPAN_NAMED(RunSpan, "pipeline", "runImage");
  NIMG_SPAN_ARG(RunSpan, "cold_cache", Cfg.ColdCache ? "true" : "false");
  NIMG_SPAN_ARG(RunSpan, "traced", "true");
  NIMG_SPAN_ARG(RunSpan, "modes", std::to_string(Modes.size()));

  RunStats Shared;
  uint64_t TouchClock = 0;
  RunPaging Pg(Img, Cfg, Shared, &TouchClock);
  std::vector<ModeTracer> Tracers;
  Tracers.reserve(Modes.size());
  for (const TraceOptions &TO : Modes)
    Tracers.emplace_back(Img, TO, Paths);
  interpret(Img, Cfg, Pg, TouchClock, nullptr, Tracers, Shared);
  finishStats(Img, Cfg, Pg, Shared);
  recordRunMetrics(Img, Shared);

  std::vector<RunStats> Out(Modes.size(), Shared);
  Captures.clear();
  Captures.reserve(Modes.size());
  for (size_t I = 0; I < Modes.size(); ++I) {
    RunStats &S = Out[I];
    S.ProbeUnits = Tracers[I].Writer.probeUnits();
    if (S.Responded)
      S.TimeToFirstResponseNs = Tracers[I].FirstResponseNs;
    S.TimeNs = modeledNs(Cfg, Pg, S);
    if (S.ProbeUnits)
      NIMG_HIST_RECORD("nimg.run.probe_units", S.ProbeUnits);
    Captures.push_back(Tracers[I].Writer.take());
  }
  return Out;
}

} // namespace

RunStats nimg::runImage(const NativeImage &Img, const RunConfig &Cfg,
                        TraceCapture *TraceOut) {
  assert(Img.P && "image without a program");
  if (Cfg.Trace) {
    PathGraphCache Paths(*Img.P);
    std::vector<TraceCapture> Captures;
    RunStats Stats =
        std::move(traceModes(Img, Cfg, {*Cfg.Trace}, Captures, Paths)[0]);
    if (TraceOut)
      *TraceOut = std::move(Captures[0]);
    return Stats;
  }

  NIMG_SPAN_NAMED(RunSpan, "pipeline", "runImage");
  NIMG_SPAN_ARG(RunSpan, "cold_cache", Cfg.ColdCache ? "true" : "false");
  NIMG_SPAN_ARG(RunSpan, "traced", "false");
  RunStats Stats;

  // Record once, replay layouts: an untraced run of an image whose base
  // is cached interprets once per execution key and leaves an access log
  // on the base; every later such run of any image of that base replays
  // it. Loaded images have no cached base: they always interpret.
  const ImageBase *Base =
      Img.Base && Img.Base->Cached ? Img.Base.get() : nullptr;
  uint64_t Key = Base ? executionKey(Img, Cfg) : 0;
  std::shared_ptr<const AccessLog> Log = Base ? Base->findLog(Key) : nullptr;

  // Fleet reference trace: the clock cell is refreshed once per scheduling
  // quantum, so recorded touch clocks carry quantum granularity.
  uint64_t TouchClock = 0;
  RunPaging Pg(Img, Cfg, Stats, &TouchClock);
  std::vector<ModeTracer> NoTracers;
  if (Log) {
    NIMG_COUNTER_ADD("nimg.run.replays", 1);
    replay(*Log, Cfg, Pg, TouchClock, Stats);
  } else if (Base) {
    AccessRecorder Rec(Img, TouchClock);
    interpret(Img, Cfg, Pg, TouchClock, &Rec, NoTracers, Stats);
    NIMG_COUNTER_ADD("nimg.run.recorded", 1);
    Base->storeLog(Key, std::make_shared<AccessLog>(std::move(Rec.log())));
  } else {
    interpret(Img, Cfg, Pg, TouchClock, nullptr, NoTracers, Stats);
  }
  finishStats(Img, Cfg, Pg, Stats);
  recordRunMetrics(Img, Stats);
  return Stats;
}

std::vector<RunStats>
nimg::runImageTraced(const NativeImage &Img, const RunConfig &Cfg,
                     const std::vector<TraceOptions> &Modes,
                     std::vector<TraceCapture> &Captures,
                     PathGraphCache &Paths) {
  assert(Img.P && "image without a program");
  for (const TraceOptions &TO : Modes)
    if (TO.Mode == TraceMode::Sampled) {
      // The sampler clamps scheduling quanta to its ticks, which changes
      // the interleaving every other tracer would observe.
      std::fprintf(stderr, "runImageTraced: TraceMode::Sampled must run "
                           "alone (use runImage)\n");
      std::abort();
    }
  return traceModes(Img, Cfg, Modes, Captures, Paths);
}
