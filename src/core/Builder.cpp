//===- Builder.cpp - The Native-Image build pipeline -------------------------===//

#include "src/core/Builder.h"

#include "src/image/ImageFile.h"
#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"
#include "src/support/Murmur3.h"
#include "src/support/SplitMix64.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_set>
#include <utility>

using namespace nimg;

namespace {

void addDiag(ProfileDiagnostics &Diag, ProfileError Kind, std::string Detail) {
  Diag.Issues.push_back({Kind, 0, std::move(Detail)});
}

/// Whether the offered code profile may drive code ordering in this build.
/// Rejections are recorded in \p Diag; the build then keeps the default
/// .text order instead of consuming a bad profile.
bool codeProfileUsable(const CodeProfile &CP, CodeStrategy Strategy,
                       uint64_t BuildFp, ProfileDiagnostics &Diag) {
  if (CP.LoadError != ProfileError::None) {
    addDiag(Diag, CP.LoadError, "code profile rejected at load");
    return false;
  }
  // Legacy headerless profiles (Version 0) carry no provenance; they are
  // accepted as-is. Versioned headers are checked for provenance.
  if (CP.Header.Version == 0)
    return true;
  TraceMode Want = Strategy == CodeStrategy::MethodOrder
                       ? TraceMode::MethodOrder
                       : TraceMode::CuOrder;
  if (CP.Header.Mode != Want) {
    addDiag(Diag, ProfileError::ModeMismatch,
            "code profile traced in a different mode than the ordering "
            "strategy expects");
    return false;
  }
  if (CP.Header.Fingerprint != 0 && BuildFp != 0 &&
      CP.Header.Fingerprint != BuildFp) {
    addDiag(Diag, ProfileError::FingerprintMismatch,
            "code profile came from a different program");
    return false;
  }
  return true;
}

/// Whether the offered block profile may drive hot/cold splitting. The
/// salvage-coverage threshold is checked by the splitter itself (it owns
/// the degradation accounting); this vets provenance only.
bool blockProfileUsable(const BlockProfile &BP, uint64_t BuildFp,
                        ProfileDiagnostics &Diag) {
  if (BP.LoadError != ProfileError::None) {
    addDiag(Diag, BP.LoadError, "block profile rejected at load");
    return false;
  }
  if (BP.Header.Version == 0)
    return true;
  if (BP.Header.Mode != TraceMode::MethodOrder) {
    addDiag(Diag, ProfileError::ModeMismatch,
            "block counts must come from a method-order path trace");
    return false;
  }
  if (BP.Header.Fingerprint != 0 && BuildFp != 0 &&
      BP.Header.Fingerprint != BuildFp) {
    addDiag(Diag, ProfileError::FingerprintMismatch,
            "block profile came from a different program");
    return false;
  }
  return true;
}

bool heapProfileUsable(const HeapProfile &HP, HeapStrategy Strategy,
                       uint64_t BuildFp, ProfileDiagnostics &Diag) {
  if (HP.LoadError != ProfileError::None) {
    addDiag(Diag, HP.LoadError, "heap profile rejected at load");
    return false;
  }
  if (HP.Header.Version == 0)
    return true;
  if (HP.Header.Mode != TraceMode::HeapOrder) {
    addDiag(Diag, ProfileError::ModeMismatch,
            "heap profile built from a non-heap trace");
    return false;
  }
  if (HP.Header.HasStrategy && HP.Header.Strategy != Strategy) {
    addDiag(Diag, ProfileError::StrategyMismatch,
            "heap profile ids use a different identity strategy");
    return false;
  }
  if (HP.Header.Fingerprint != 0 && BuildFp != 0 &&
      HP.Header.Fingerprint != BuildFp) {
    addDiag(Diag, ProfileError::FingerprintMismatch,
            "heap profile came from a different program");
    return false;
  }
  return true;
}

/// Bases kept per program: a sweep cycles through every variant at each
/// of its build seeds (three in the paper's evaluation), and a sampled
/// profile capture adds its own geometry. A smaller bound makes that
/// cycle evict every base before its next use; each kept base costs one
/// build heap of memory. Fixed, not a setting.
constexpr size_t MaxCachedBases = 4;

/// The build cache kept in a program's derivedCache() slot: the LRU of
/// build bases (most recent first) and the memo of the base key's walk
/// over the program. One process-wide mutex guards every program's list
/// and slot: lookups are a few comparisons, and the stages run outside
/// the lock.
struct BuildCache {
  std::list<std::pair<uint64_t, std::shared_ptr<const ImageBase>>> Bases;
  ContentDigestMemo ProgramWalk;
  /// methodSigHashes of the program, which code ordering matches by.
  VersionMemo<std::shared_ptr<const std::vector<uint64_t>>> SigHashes;
};
std::mutex BaseCacheMu;

/// Call with BaseCacheMu held.
BuildCache &buildCacheOf(const Program &P) {
  std::shared_ptr<void> &Slot = P.derivedCache();
  if (!Slot)
    Slot = std::make_shared<BuildCache>();
  return *static_cast<BuildCache *>(Slot.get());
}

/// The class and method flags, register counts and call-argument pools
/// the base stages read beyond the fingerprint.
uint64_t hashProgramWalk(const Program &P) {
  Murmur3Stream S;
  for (size_t C = 0; C < P.numClasses(); ++C) {
    const ClassDef &Def = P.classDef(ClassId(C));
    S.appendU8(Def.IsAbstract ? 1 : 0);
    S.appendU32(uint32_t(Def.Clinit));
  }
  for (size_t M = 0; M < P.numMethods(); ++M) {
    const Method &Meth = P.method(MethodId(M));
    S.appendU8(uint8_t((Meth.IsStatic ? 1 : 0) | (Meth.IsAbstract ? 2 : 0) |
                       (Meth.IsClinit ? 4 : 0)));
    S.appendU32(uint32_t(Meth.RetType));
    S.appendU32(Meth.NumRegs);
    S.appendU32(uint32_t(Meth.CallArgs.size()));
    S.update(Meth.CallArgs.data(), Meth.CallArgs.size() * sizeof(uint16_t));
  }
  return S.digest().Lo;
}

/// \p P's method signature hashes, memoized per program version like the
/// walk digest: every code-ordered build of the program matches by them.
std::shared_ptr<const std::vector<uint64_t>> sigHashesOf(const Program &P) {
  VersionMemo<std::shared_ptr<const std::vector<uint64_t>>> *Memo;
  {
    std::lock_guard<std::mutex> G(BaseCacheMu);
    Memo = &buildCacheOf(P).SigHashes;
  }
  uint64_t Version = P.version();
  std::shared_ptr<const std::vector<uint64_t>> Hashes;
  if (!Memo->lookup(Version, Hashes)) {
    Hashes = std::make_shared<const std::vector<uint64_t>>(methodSigHashes(P));
    Memo->store(Version, Hashes);
  }
  return Hashes;
}

/// Content key of a build base: everything reachability, compilation and
/// build-time initialization read. The program fingerprint covers the
/// classes, code and string table; the walk digest (memoized per program
/// version, like the fingerprint) covers the flags, register counts and
/// call-argument pools. The entry point and resources are not versioned,
/// so they are hashed on every build. The structural-hash depth keys the
/// base's identity rows.
uint64_t baseKey(const Program &P, const BuildConfig &Cfg, uint64_t BuildFp) {
  ContentDigestMemo *Memo;
  {
    std::lock_guard<std::mutex> G(BaseCacheMu);
    Memo = &buildCacheOf(P).ProgramWalk;
  }
  uint64_t Version = P.version();
  uint64_t Walk;
  if (!Memo->lookup(Version, Walk)) {
    Walk = hashProgramWalk(P);
    Memo->store(Version, Walk);
  }
  Murmur3Stream S;
  S.appendU64(BuildFp);
  S.appendU32(uint32_t(P.MainMethod));
  S.appendU64(Walk);
  S.appendU32(uint32_t(P.Resources.size()));
  for (const auto &[Name, Contents] : P.Resources) {
    S.appendSizedString(Name);
    S.appendSizedString(Contents);
  }
  S.appendU8(Cfg.Instrumented ? 1 : 0);
  S.appendU64(Cfg.Seed);
  S.appendU32(uint32_t(Cfg.StructuralMaxDepth));
  return S.digest().Lo;
}

/// The strategy-independent stages of a build, served from \p P's build
/// cache when an earlier build had the same base key. A build made while
/// the compile-fault hook is armed never touches the cache, and a base
/// whose compile tasks degraded is not stored. Instrumented builds skip
/// the cache too: their images exist to be traced, traced runs never
/// replay, so such a base would win back only its own build stages while
/// evicting one whose runs replay.
std::shared_ptr<const ImageBase> obtainBase(Program &P, const BuildConfig &Cfg,
                                            uint64_t BuildFp) {
  bool Cacheable = !Cfg.Instrumented && !compileFaultHookArmed();
  uint64_t Key = 0;
  // The base cached under Key, made most recently used. Call with
  // BaseCacheMu held.
  auto Lookup = [&]() -> std::shared_ptr<const ImageBase> {
    auto &Cache = buildCacheOf(P).Bases;
    for (auto It = Cache.begin(); It != Cache.end(); ++It)
      if (It->first == Key) {
        Cache.splice(Cache.begin(), Cache, It);
        return Cache.front().second;
      }
    return nullptr;
  };
  if (Cacheable) {
    NIMG_SPAN("build", "base_lookup");
    Key = baseKey(P, Cfg, BuildFp);
    std::lock_guard<std::mutex> G(BaseCacheMu);
    if (std::shared_ptr<const ImageBase> Hit = Lookup()) {
      NIMG_COUNTER_ADD("nimg.build.base_hits", 1);
      return Hit;
    }
  }
  NIMG_COUNTER_ADD("nimg.build.base_misses", 1);

  auto Base = std::make_shared<ImageBase>();
  // 1. Points-to-style reachability (Sec. 2).
  {
    NIMG_SPAN("build", "reachability");
    Base->Reach = analyzeReachability(P);
  }
  // 2. Compilation: size-driven inlining into CUs. Instrumentation
  //    inflates sizes, diverging the CU set from the optimized build's.
  {
    NIMG_SPAN("build", "compile");
    Base->Code = buildCompilationUnits(P, Base->Reach, InlinerConfig(),
                                       Cfg.Instrumented);
  }
  // 3. Build-time initialization (permuted by the seed).
  {
    NIMG_SPAN("build", "heap_init");
    Base->Built = initializeBuildHeap(P, Base->Reach, Cfg.Seed);
  }
  // 3b. What every layout's snapshot and identity stages share: the plan
  //     (code roots, the tail after them, PEA keys) and the identity rows
  //     no code order moves.
  if (!Base->Built.Failed) {
    const Heap &H = *Base->Built.BuildHeap;
    {
      NIMG_SPAN("build", "snapshot_plan");
      Base->Plan =
          buildSnapshotPlan(P, H, Base->Built, Base->Code, Base->Reach);
    }
    {
      NIMG_SPAN("build", "base_ids");
      Base->IdRows = computeBaseIds(P, H, Base->Plan, Cfg.StructuralMaxDepth);
    }
  }
  Base->Cached = Cacheable && Base->Code.CompileFaults.empty();
  if (Base->Cached) {
    std::lock_guard<std::mutex> G(BaseCacheMu);
    // A concurrent build of the same key may have cached its base first;
    // then this one is dropped, so that every build of the key shares one.
    if (std::shared_ptr<const ImageBase> First = Lookup())
      return First;
    auto &Cache = buildCacheOf(P).Bases;
    Cache.emplace_front(Key, Base);
    if (Cache.size() > MaxCachedBases)
      Cache.pop_back();
  }
  return Base;
}

} // namespace

NativeImage nimg::buildNativeImage(Program &P, const BuildConfig &Cfg) {
  assert(P.MainMethod != -1 && "program has no entry point");
  NativeImage Img;
  Img.P = &P;
  Img.Instrumented = Cfg.Instrumented;
  Img.Seed = Cfg.Seed;

  NIMG_SPAN_NAMED(BuildSpan, "pipeline", "buildNativeImage");
  NIMG_SPAN_ARG(BuildSpan, "instrumented", Cfg.Instrumented ? "true" : "false");
  NIMG_COUNTER_ADD("nimg.build.count", 1);
  if (Cfg.Instrumented)
    NIMG_COUNTER_ADD("nimg.build.instrumented", 1);

  // Builtin runtime classes must exist before the analysis fixes the
  // class-id space.
  ensureClassMetaClass(P);

  // Profile validation (degradation policy): a corrupt, stale, or
  // mismatched profile downgrades the affected ordering to the default
  // layout; it never fails the build.
  uint64_t BuildFp = programFingerprint(P);
  const CodeProfile *CodeProf = Cfg.CodeProf;
  // Fleet aggregation: merge the offered member set into the code profile
  // (quarantining damaged members with typed reasons) and hand the result
  // to the regular vetting below. A merge that loses every member lands
  // on the Fallback rung: the build keeps its default cu-order layout.
  CodeProfile MergedProf;
  if (Cfg.CodeOrder != CodeStrategy::None && Cfg.CodeMembers &&
      !Cfg.CodeMembers->empty()) {
    NIMG_SPAN("build", "merge_profiles");
    MergeOptions MOpts;
    MOpts.ExpectedFingerprint = BuildFp;
    // A method-order build merges method-granularity members; everything
    // else (cu, cluster) merges cu-granularity ones.
    MOpts.ExpectedMode = Cfg.CodeOrder == CodeStrategy::MethodOrder
                             ? TraceMode::MethodOrder
                             : TraceMode::CuOrder;
    MergeResult MR = aggregateProfiles(*Cfg.CodeMembers, MOpts);
    Img.ProfileDiag.Merge = std::move(MR.Manifest);
    if (MR.usable()) {
      MergedProf = std::move(MR.Profile);
      CodeProf = &MergedProf;
    } else {
      CodeProf = nullptr;
      Img.ProfileDiag.CodeProfileProvided = true;
      NIMG_COUNTER_ADD("nimg.build.degraded.code", 1);
    }
  }
  if (Cfg.CodeOrder != CodeStrategy::None && CodeProf) {
    Img.ProfileDiag.CodeProfileProvided = true;
    if (codeProfileUsable(*CodeProf, Cfg.CodeOrder, BuildFp,
                          Img.ProfileDiag)) {
      Img.ProfileDiag.CodeProfileApplied = true;
    } else {
      CodeProf = nullptr;
      NIMG_COUNTER_ADD("nimg.build.degraded.code", 1);
    }
  }
  const BlockProfile *BlockProf = Cfg.BlockProf;
  bool SplitRequested = Cfg.Split == SplitMode::HotCold && !Cfg.Instrumented;
  if (SplitRequested && BlockProf) {
    Img.ProfileDiag.BlockProfileProvided = true;
    if (blockProfileUsable(*BlockProf, BuildFp, Img.ProfileDiag)) {
      Img.ProfileDiag.BlockProfileApplied = true;
    } else {
      BlockProf = nullptr;
      NIMG_COUNTER_ADD("nimg.build.degraded.split", 1);
    }
  }
  const HeapProfile *HeapProf = Cfg.HeapProf;
  if (Cfg.UseHeapOrder && HeapProf) {
    Img.ProfileDiag.HeapProfileProvided = true;
    if (heapProfileUsable(*HeapProf, Cfg.HeapOrder, BuildFp,
                          Img.ProfileDiag)) {
      Img.ProfileDiag.HeapProfileApplied = true;
    } else {
      HeapProf = nullptr;
      NIMG_COUNTER_ADD("nimg.build.degraded.heap", 1);
    }
  }
  // Per-rejection-kind counters for everything the degradation policy
  // recorded while vetting the offered profiles.
  for (const ProfileIssue &I : Img.ProfileDiag.Issues) {
    (void)I; // unused when observability is compiled out
    NIMG_COUNTER_ADD_DYN(
        std::string("nimg.build.profile_rejected.") + profileErrorSlug(I.Kind),
        1);
  }

  // 1-3. Reachability, compilation and build-time initialization: the
  //      strategy-independent base, shared by every layout of this seed.
  Img.Base = obtainBase(P, Cfg, BuildFp);
  const CompiledProgram &Code = Img.code();
  Img.Built = Img.Base->Built;
  // A compile task that threw degraded its unit to a root-only CU; the
  // build carries on with the degraded unit rather than failing, and the
  // fault is recorded on the image like a rejected profile would be.
  for (const auto &[Root, What] : Code.CompileFaults) {
    addDiag(Img.ProfileDiag, ProfileError::WorkerFault,
            "compile task for " + std::as_const(P).method(Root).Sig +
                " failed; unit degraded to root only: " + What);
    NIMG_COUNTER_ADD("nimg.build.degraded.cu_compile", 1);
  }

  // 2b. Hot/cold CU splitting (--split hotcold): a pure function of the
  //     compiled CUs and the merged block profile, so its decisions — and
  //     the fingerprint folded below — are byte-identical at any worker count.
  if (SplitRequested) {
    NIMG_SPAN("build", "split");
    Img.Split = splitCompiledProgram(P, Code, BlockProf);
    for (const ProfileIssue &I : Img.Split.Issues) {
      Img.ProfileDiag.Issues.push_back(I);
      NIMG_COUNTER_ADD_DYN(std::string("nimg.build.profile_rejected.") +
                               profileErrorSlug(I.Kind),
                           1);
    }
    // A wholesale degrade (no profile, bad coverage) means nothing was
    // actually applied even when the header vetted clean.
    if (Img.Split.SplitCus == 0 &&
        Img.Split.DegradedCus == uint32_t(Code.CUs.size()))
      Img.ProfileDiag.BlockProfileApplied = false;
  }

  // 4. Code ordering (Sec. 4) — determines .text placement and, through
  //    it, the default object traversal order.
  std::vector<int32_t> CuOrder;
  if (Cfg.CodeOrder != CodeStrategy::None && CodeProf) {
    NIMG_SPAN("build", "code_order");
    CuOrder = orderCusWithProfile(P, Code, *CodeProf, Cfg.CodeOrder,
                                  *sigHashesOf(P));
  }

  // 5. Heap snapshotting, over the base's (read-only) build heap.
  if (Img.Built.Failed) {
    NIMG_COUNTER_ADD("nimg.build.failed", 1);
    return Img;
  }

  SnapshotConfig SnapCfg;
  SnapCfg.EnablePea = Cfg.EnablePea;
  uint64_t InlineFp = Code.InlineFingerprint;
  if (Img.Split.active())
    InlineFp = mix64(InlineFp, Img.Split.DecisionFingerprint);
  SnapCfg.PeaFingerprint = mix64(InlineFp, Cfg.Seed);
  SnapCfg.CuOrder = CuOrder;
  const ImageBase &Base = *Img.Base;
  const Heap &H = *Img.Built.BuildHeap;
  {
    NIMG_SPAN("build", "snapshot");
    Img.Snapshot = walkSnapshotPlan(Base.Plan, H, SnapCfg);
  }

  // 6. Identifier assignment (Sec. 5): the profiling build stores these in
  //    the image; the optimizing build uses them only for matching. Every
  //    hash comes from the base's rows, those of the entries reached from
  //    code from the rows of this build's code order.
  {
    NIMG_SPAN("build", "id_table");
    Img.Ids = idTableFromBase(Img.Snapshot, Base.IdRows,
                              *Base.CodePaths.rowsOf(P, H, Img.Snapshot));
  }

  // 7. Heap ordering (Sec. 5): match the profile's ids against this
  //    build's snapshot and hoist matched objects to the front.
  std::vector<int32_t> ObjOrder;
  if (Cfg.UseHeapOrder && HeapProf) {
    NIMG_SPAN_NAMED(HeapOrderSpan, "build", "heap_order");
    NIMG_SPAN_ARG(HeapOrderSpan, "strategy", heapStrategyName(Cfg.HeapOrder));
    ObjOrder = orderObjectsWithProfile(Img.Snapshot, Img.Ids, Cfg.HeapOrder,
                                       *HeapProf);
  }

  // 8. Image layout.
  {
    NIMG_SPAN("build", "layout");
    Img.Layout = computeImageLayout(P, Code, Img.Snapshot, CuOrder, ObjOrder,
                                    Cfg.Image, &Img.Split);
  }
  // A huge-page budget the hot .text prefix cannot fill degrades typed:
  // the clamp already happened in the layout, this records why.
  if (Img.Layout.HugePagesRequested > Img.Layout.HugePages) {
    addDiag(Img.ProfileDiag, ProfileError::HugeBudgetUnfillable,
            "hot .text justifies only " +
                std::to_string(Img.Layout.HugePages) + " of " +
                std::to_string(Img.Layout.HugePagesRequested) +
                " requested huge pages; remainder stays on 4 KiB pages");
    NIMG_COUNTER_ADD_DYN(
        std::string("nimg.build.profile_rejected.") +
            profileErrorSlug(ProfileError::HugeBudgetUnfillable),
        1);
  }
  // The huge-page region is part of the build identity: fold the requested
  // and effective budget into the image's decision fingerprint, which the
  // image file serializes. Gated on the request so a zero budget stays
  // byte-identical to a build without the option (and this runs after the
  // snapshot, so PEA elision — which consumes the fingerprint state above
  // — is untouched either way).
  if (Img.Layout.HugePagesRequested > 0)
    Img.Split.DecisionFingerprint =
        mix64(mix64(Img.Split.DecisionFingerprint,
                    uint64_t(Img.Layout.HugePagesRequested)),
              mix64(uint64_t(Img.Layout.HugePages), Img.Layout.HugeRegionSize));

  NIMG_GAUGE_SET("nimg.build.last_text_size", int64_t(Img.Layout.TextSize));
  NIMG_GAUGE_SET("nimg.build.last_heap_size", int64_t(Img.Layout.HeapSize));
  return Img;
}

CollectedProfiles nimg::collectProfiles(Program &P,
                                        const BuildConfig &InstrumentedCfg,
                                        const RunConfig &RunCfg) {
  CollectedProfiles Out;

  NIMG_SPAN_NAMED(CollectSpan, "pipeline", "collectProfiles");
  NIMG_COUNTER_ADD("nimg.profile.collect.count", 1);

  BuildConfig Cfg = InstrumentedCfg;
  Cfg.Instrumented = true;
  Cfg.CodeOrder = CodeStrategy::None;
  Cfg.UseHeapOrder = false;
  NativeImage Img = [&] {
    NIMG_SPAN("pipeline", "instrumented_build");
    return buildNativeImage(P, Cfg);
  }();
  assert(!Img.Built.Failed && "instrumented build failed");

  // Sampled capture profiles the *production* geometry: an uninstrumented
  // build whose inlining is not inflated by probe code (the instrumented
  // image stays for the heap run, which needs operand probes).
  bool SampledCode = InstrumentedCfg.ProfileCapture == CaptureKind::Sampled;
  NativeImage SampImg;
  if (SampledCode) {
    NIMG_SPAN("pipeline", "sampled_build");
    BuildConfig SCfg = Cfg;
    SCfg.Instrumented = false;
    SampImg = buildNativeImage(P, SCfg);
    assert(!SampImg.Built.Failed && "sampled-capture build failed");
  }

  PathGraphCache Paths(P);

  auto OptionsFor = [&](TraceMode Mode) {
    TraceOptions TOpts;
    TOpts.Mode = Mode;
    // Workloads killed before clean exit need the memory-mapped dump mode
    // (Sec. 6.1); AWFY-style runs terminate normally and flush.
    TOpts.Dump = RunCfg.StopAtFirstResponse ? DumpMode::MemoryMapped
                                            : DumpMode::FlushOnFull;
    // Varint-delta dumps cut the persisted bytes (and the modeled mmap
    // probe cost) to a fraction of the raw 8 bytes/word; salvage and the
    // analyses decode both encodings transparently.
    TOpts.Encoding = TraceEncoding::VarintDelta;
    TOpts.SamplePeriod = InstrumentedCfg.SamplePeriod;
    return TOpts;
  };
  // An empty capture usually means the run died before any buffer flushed
  // (mode-1 SIGKILL); its mode is retried once, alone, with the
  // memory-mapped dump mode, which persists every word.
  auto RetryIfEmpty = [&](const NativeImage &RunImg, TraceOptions TOpts,
                          TraceCapture &Capture, RunStats &StatsOut) {
    if (Capture.totalWords() != 0)
      return;
    TOpts.Dump = DumpMode::MemoryMapped;
    RunConfig RC = RunCfg;
    RC.Trace = &TOpts;
    StatsOut = runImage(RunImg, RC, &Capture);
    ++Out.RetriedRuns;
    NIMG_COUNTER_ADD("nimg.profile.collect.retried_runs", 1);
  };
  // One interpretation of the instrumented image feeds every instrumented
  // capture: scheduling counts instructions, not probe cost, so each
  // tracer sees the interleaving a run of its mode alone would have.
  auto RunInstrumented = [&](const std::vector<TraceMode> &Modes,
                             const std::vector<RunStats *> &StatsOut) {
    std::vector<TraceOptions> Opts;
    for (TraceMode Mode : Modes)
      Opts.push_back(OptionsFor(Mode));
    std::vector<TraceCapture> Caps;
    std::vector<RunStats> Stats;
    {
      NIMG_SPAN("profile", "trace.instrumented");
      Stats = runImageTraced(Img, RunCfg, Opts, Caps, Paths);
    }
    for (size_t I = 0; I < Modes.size(); ++I) {
      *StatsOut[I] = std::move(Stats[I]);
      RetryIfEmpty(Img, Opts[I], Caps[I], *StatsOut[I]);
    }
    return Caps;
  };

  uint64_t Fp = programFingerprint(P);
  uint64_t Gen = InstrumentedCfg.ProfileGeneration;

  TraceCapture HeapCap;
  if (SampledCode) {
    // One Sampled-mode run feeds both code granularities: every sample
    // word carries the executing method and its CU root.
    TraceCapture SampCap;
    {
      NIMG_SPAN("profile", "trace.sampled");
      TraceOptions TOpts = OptionsFor(TraceMode::Sampled);
      RunConfig RC = RunCfg;
      RC.Trace = &TOpts;
      Out.CuRun = runImage(SampImg, RC, &SampCap);
      RetryIfEmpty(SampImg, TOpts, SampCap, Out.CuRun);
    }
    Out.MethodRun = Out.CuRun;
    // Effective coverage = salvage coverage capped by the run's own
    // estimate (distinct sampled roots per entered root): a clean dump of
    // a sparse sampling is still a sparse sampling.
    uint32_t Estimate = Out.CuRun.SampleCoveragePermille;
    {
      NIMG_SPAN("profile", "post.sampled");
      uint64_t Period = SampCap.Options.SamplePeriod;
      CodeOrderAnalysis CuA(P, CodeOrderAnalysis::Source::SampleRoot, Period);
      CodeOrderAnalysis MethodA(P, CodeOrderAnalysis::Source::SampleMethod,
                                Period);
      replayTrace(P, SampCap, Paths, {&CuA, &MethodA}, &Out.CuSalvage);
      Out.MethodSalvage = Out.CuSalvage;
      Out.Cu = CuA.finish(Out.CuSalvage);
      Out.Method = MethodA.finish(Out.MethodSalvage);
    }
    for (CodeProfile *Prof : {&Out.Cu, &Out.Method})
      Prof->Header.CoveragePermille =
          std::min(Prof->Header.CoveragePermille, Estimate);
    // Samples carry no CU transitions or path records, so the cluster
    // profile degrades to the sampled cu order and splitting evidence is
    // typed-unavailable — both documented degradations, not failures.
    Out.Cluster = Out.Cu;
    Out.ClusterIssues.push_back(
        {ProfileError::EmptyTransitionGraph, 0,
         "sampled capture carries no CU transitions; cluster ordering "
         "degrades to the sampled cu order"});
    Out.Blocks.LoadError = ProfileError::InsufficientBlockProfile;
    // The sampler runs alone (its ticks clamp scheduling quanta), so the
    // instrumented heap capture takes a run of its own.
    HeapCap = std::move(
        RunInstrumented({TraceMode::HeapOrder}, {&Out.HeapRun})[0]);
  } else {
    std::vector<TraceCapture> Caps = RunInstrumented(
        {TraceMode::CuOrder, TraceMode::MethodOrder, TraceMode::HeapOrder},
        {&Out.CuRun, &Out.MethodRun, &Out.HeapRun});
    const TraceCapture &CuCap = Caps[0], &MethodCap = Caps[1];
    HeapCap = std::move(Caps[2]);
    {
      // One replay feeds the cu profile and the CU transition graph the
      // cluster profile is solved from: no extra instrumented run.
      NIMG_SPAN("profile", "post.cu");
      CodeOrderAnalysis CuA(P, CodeOrderAnalysis::Source::CuEnter);
      CallGraphAnalysis GraphA;
      replayTrace(P, CuCap, Paths, {&CuA, &GraphA}, &Out.CuSalvage);
      Out.Cu = CuA.finish(Out.CuSalvage);
      ClusterOptions COpts;
      COpts.PageBudgetBytes = Cfg.ClusterPageBudget;
      Out.Cluster =
          analyzeClusterOrder(P, GraphA.finish(), Img.code(), COpts,
                              &Out.ClusterIssues, &Out.ClusterLayoutStats);
    }
    {
      // One replay of the method-order capture feeds the method profile
      // and the block counts (splitting evidence): every path record
      // names its blocks.
      NIMG_SPAN("profile", "post.method");
      CodeOrderAnalysis MethodA(P, CodeOrderAnalysis::Source::MethodEnter);
      BlockCountAnalysis BlockA(P);
      replayTrace(P, MethodCap, Paths, {&MethodA, &BlockA},
                  &Out.MethodSalvage);
      Out.Method = MethodA.finish(Out.MethodSalvage);
      Out.Blocks = BlockA.finish(Out.MethodSalvage);
      Out.Blocks.Header.CoveragePermille = Out.Blocks.CoveragePermille;
    }
  }

  {
    NIMG_SPAN("profile", "post.heap");
    std::vector<int32_t> AccessOrder =
        analyzeHeapAccessOrder(P, HeapCap, Paths, &Out.HeapSalvage);
    Out.IncrementalId =
        heapProfileFor(AccessOrder, Img.Ids, HeapStrategy::IncrementalId);
    Out.StructuralHash =
        heapProfileFor(AccessOrder, Img.Ids, HeapStrategy::StructuralHash);
    Out.HeapPath =
        heapProfileFor(AccessOrder, Img.Ids, HeapStrategy::HeapPath);
  }
  for (ProfileHeader *H :
       {&Out.Cu.Header, &Out.Method.Header, &Out.Cluster.Header,
        &Out.Blocks.Header, &Out.IncrementalId.Header,
        &Out.StructuralHash.Header, &Out.HeapPath.Header}) {
    H->Fingerprint = Fp;
    H->Generation = Gen;
  }
  return Out;
}

std::vector<MemberProfile>
nimg::collectProfileSet(Program &P, const BuildConfig &InstrumentedCfg,
                        const RunConfig &RunCfg,
                        const std::vector<std::string> &InstanceNames,
                        std::vector<ProfileIssue> *IssuesOut) {
  std::vector<MemberProfile> Out;
  Out.reserve(InstanceNames.size());

  NIMG_SPAN_NAMED(SetSpan, "pipeline", "collectProfileSet");
  NIMG_COUNTER_ADD("nimg.profile.collect.set_members", InstanceNames.size());

  // Sampled fleets run the uninstrumented production geometry, exactly
  // like collectProfiles().
  bool SampledCode = InstrumentedCfg.ProfileCapture == CaptureKind::Sampled;
  BuildConfig Cfg = InstrumentedCfg;
  Cfg.Instrumented = !SampledCode;
  Cfg.CodeOrder = CodeStrategy::None;
  Cfg.UseHeapOrder = false;
  NativeImage Img = [&] {
    NIMG_SPAN("pipeline", "instrumented_build");
    return buildNativeImage(P, Cfg);
  }();
  assert(!Img.Built.Failed && "instrumented build failed");
  uint64_t Fp = programFingerprint(P);

  // Members are named first; each accepted one gets a capture slot.
  std::unordered_set<std::string> Seen;
  std::vector<size_t> Captured;
  for (size_t I = 0; I < InstanceNames.size(); ++I) {
    MemberProfile M;
    M.Name = InstanceNames[I];
    // Duplicate names within one capture set are a configuration bug the
    // merge can no longer untangle (which instance produced what?); each
    // later holder is rejected typed, not silently last-writer-wins.
    if (!Seen.insert(M.Name).second) {
      M.Profile.LoadError = ProfileError::DuplicateMember;
      M.Read.Fatal = ProfileError::DuplicateMember;
      M.Read.Issues.push_back({ProfileError::DuplicateMember, I + 1,
                               "instance name repeats within the set"});
      NIMG_COUNTER_ADD("nimg.profile.collect.duplicate_member", 1);
      if (IssuesOut)
        IssuesOut->push_back(M.Read.Issues.back());
    } else {
      Captured.push_back(I);
    }
    Out.push_back(std::move(M));
  }

  std::vector<TraceOptions> Opts;
  for (size_t I : Captured) {
    TraceOptions TOpts;
    TOpts.Mode = SampledCode ? TraceMode::Sampled : TraceMode::CuOrder;
    TOpts.Dump = RunCfg.StopAtFirstResponse ? DumpMode::MemoryMapped
                                            : DumpMode::FlushOnFull;
    TOpts.Encoding = TraceEncoding::VarintDelta;
    if (SampledCode) {
      // Stagger member phases evenly across the period: the fleet's merged
      // sample set then covers clock offsets no single member sees.
      TOpts.SamplePeriod = InstrumentedCfg.SamplePeriod;
      TOpts.SamplePhase =
          I * std::max<uint64_t>(1, TOpts.SamplePeriod) / InstanceNames.size();
    }
    Opts.push_back(TOpts);
  }

  // Instrumented members differ only in their names: one interpretation
  // with a cu tracer per member captures them all. Sampled members each
  // run alone at their own phase.
  std::vector<TraceCapture> Caps(Opts.size());
  std::vector<RunStats> Runs(Opts.size());
  if (SampledCode) {
    for (size_t K = 0; K < Opts.size(); ++K) {
      NIMG_SPAN("profile", "trace.sampled");
      RunConfig RC = RunCfg;
      RC.Trace = &Opts[K];
      Runs[K] = runImage(Img, RC, &Caps[K]);
    }
  } else if (!Opts.empty()) {
    NIMG_SPAN("profile", "trace.instrumented");
    PathGraphCache Paths(P);
    Runs = runImageTraced(Img, RunCfg, Opts, Caps, Paths);
  }

  for (size_t K = 0; K < Captured.size(); ++K) {
    size_t I = Captured[K];
    MemberProfile &M = Out[I];
    SalvageStats Salvage;
    if (SampledCode) {
      M.Profile = analyzeSampledCuOrder(P, Caps[K], &Salvage);
      M.Profile.Header.CoveragePermille = std::min(
          M.Profile.Header.CoveragePermille, Runs[K].SampleCoveragePermille);
    } else {
      M.Profile = analyzeCuOrder(P, Caps[K], &Salvage);
    }
    M.Profile.Header.Fingerprint = Fp;
    M.Profile.Header.Generation = InstrumentedCfg.ProfileGeneration + I;
    M.Read.HeaderPresent = true;
    M.Read.Header = M.Profile.Header;
    M.Read.RowsKept = M.Profile.Sigs.size();
  }
  return Out;
}
