//===- BuildCacheTest.cpp - Build-base cache and run replay -----------------===//
//
// The record-once/replay-layouts contract: images of one (program, seed)
// share a cached build base, and untraced runs of such images replay the
// first run's access log instead of interpreting. Two oracles pin it down:
// a warm build serializes byte-identically to a build on a freshly
// compiled program, and a replayed run equals an interpreted run of the
// same image (loaded from its serialized bytes, which never replays) in
// every RunStats field. Carries the "buildcache" ctest label.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/core/Evaluation.h"
#include "src/fleet/FleetSim.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/obs/Metrics.h"
#include "src/workloads/Workloads.h"
#include "tests/ExpectSameRun.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace nimg;

namespace {

/// \p Blocks non-null selects --split hotcold with that block profile.
BuildConfig configFor(const PaperVariant &V, uint64_t Seed,
                      const CollectedProfiles &Prof,
                      const BlockProfile *Blocks = nullptr,
                      uint32_t HugePages = 0) {
  BuildConfig Base;
  Base.Seed = Seed;
  Base.Image.HugePages = HugePages;
  if (Blocks)
    Base.Split = SplitMode::HotCold;
  BuildConfig C = variantConfig(V, Base, Prof);
  if (Blocks)
    C.BlockProf = Blocks;
  return C;
}

BenchmarkSpec specNamed(const std::string &Name) {
  for (const std::string &M : microserviceNames())
    if (M == Name)
      return microserviceBenchmark(Name);
  return awfyBenchmark(Name);
}

std::unique_ptr<Program> compile(const BenchmarkSpec &Spec) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  EXPECT_TRUE(P) << (Errors.empty() ? "" : Errors.front());
  return P;
}

CollectedProfiles profilesOf(Program &P, const BenchmarkSpec &Spec) {
  BuildConfig Instr;
  Instr.Seed = 1001;
  RunConfig RC;
  RC.StopAtFirstResponse = Spec.Microservice;
  return collectProfiles(P, Instr, RC);
}

/// A copy of \p Img that can only interpret: loaded images never join the
/// build cache.
NativeImage loadedCopy(Program &P, const NativeImage &Img) {
  NativeImage Loaded;
  std::string Err;
  EXPECT_TRUE(deserializeImage(P, serializeImage(P, Img), Loaded, Err)) << Err;
  return Loaded;
}

//===----------------------------------------------------------------------===//
// The oracle: replay == interpretation.
//===----------------------------------------------------------------------===//

class ReplayOracleTest : public testing::TestWithParam<std::string> {};

TEST_P(ReplayOracleTest, ReplayEqualsInterpretation) {
  BenchmarkSpec Spec = specNamed(GetParam());
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  CollectedProfiles Prof = profilesOf(*P, Spec);
  RunConfig Base;
  Base.StopAtFirstResponse = Spec.Microservice;
  // Split with a third of the block counts missing: blocks the run does
  // execute land in the cold tail, so the logs carry cold-block entries.
  BlockProfile Thin = Prof.Blocks;
  for (size_t I = Thin.Rows.size(); I-- > 0;)
    if (I % 3 == 1)
      Thin.Rows.erase(Thin.Rows.begin() + I);
  uint64_t ColdFaults = 0;

  for (const PaperVariant &V : PaperVariants)
    for (bool Split : {false, true})
      for (uint32_t Huge : {0u, 1u}) {
        std::string Ctx = std::string(V.Name) + (Split ? " split" : "") +
                          (Huge ? " huge" : "");
        NativeImage Img = buildNativeImage(
            *P, configFor(V, 7, Prof, Split ? &Thin : nullptr, Huge));
        ASSERT_FALSE(Img.Built.Failed) << Ctx;
        ASSERT_TRUE(Img.Base->Cached) << Ctx;
        // Leave a log on the base for this execution key, so every run
        // below replays.
        runImage(Img, Base);
        ASSERT_GE(Img.Base->numLogs(), 1u) << Ctx;
        NativeImage Loaded = loadedCopy(*P, Img);
        for (uint32_t Readahead : {1u, 4u, 32u})
          for (bool Cold : {true, false}) {
            RunConfig RC = Base;
            RC.Paging.ReadaheadPages = Readahead;
            RC.ColdCache = Cold;
            RC.RecordTouches = true;
            RunStats Replayed = runImage(Img, RC);
            RunStats Interpreted = runImage(Loaded, RC);
            ColdFaults += Replayed.TextColdFaults;
            expectSameRun(Replayed, Interpreted,
                          Ctx + " readahead " + std::to_string(Readahead) +
                              (Cold ? " cold" : " warm"));
            if (!Huge && Cold && Readahead == 4) {
              // The fleet's N=1 anchor holds on a replayed reference run.
              FleetResult FR =
                  simulateFleet(Replayed, Img.Layout.TextSize,
                                Img.Layout.HeapSize, RC.Paging, RC.Cost,
                                FleetConfig());
              EXPECT_EQ(FR.TotalMajors, Replayed.totalFaults()) << Ctx;
              EXPECT_EQ(FR.P50Ns, Replayed.TimeNs) << Ctx;
            }
          }
      }
  EXPECT_GT(ColdFaults, 0u) << "no replayed run reached the cold tail";
}

std::vector<std::string> oraclePrograms() {
  std::vector<std::string> Out = awfyBenchmarkNames();
  for (const std::string &M : microserviceNames())
    Out.push_back(M);
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Programs, ReplayOracleTest,
                         testing::ValuesIn(oraclePrograms()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(ReplayOracle, FuelExhaustedRunReplaysExactly) {
  BenchmarkSpec Spec = awfyBenchmark("Richards");
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  CollectedProfiles Prof = profilesOf(*P, Spec);
  RunConfig RC;
  RC.MaxInstructions = 20000;
  NativeImage First =
      buildNativeImage(*P, configFor(PaperVariants[0], 3, Prof));
  RunStats Recorded = runImage(First, RC);
  EXPECT_TRUE(Recorded.FuelExhausted);
  NativeImage Img =
      buildNativeImage(*P, configFor(PaperVariants[7], 3, Prof));
  ASSERT_EQ(Img.Base, First.Base);
  expectSameRun(runImage(Img, RC), runImage(loadedCopy(*P, Img), RC),
                "fuel-limited cu+heap path");
}

TEST(ReplayOracle, ResponseMarkerKeepsItsPlaceAmongTheTouches) {
  // A service that responds first and only then touches a large image
  // array and more code: the time to first response must charge only the
  // faults taken before the response.
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({R"(
class Table {
  static int[] big = new int[8192];
}
class Late {
  static int work() {
    int t = 0;
    for (int i = 0; i < Table.big.length; i = i + 512) { t = t + Table.big[i] + i; }
    return t;
  }
}
class Main {
  static int main() {
    Sys.respond("ready");
    int t = Late.work();
    Sys.print("late " + t);
    return t;
  }
}
)"},
                             P, Errors))
      << (Errors.empty() ? "" : Errors.front());
  BuildConfig Instr;
  Instr.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(P, Instr, RunConfig());
  RunConfig RC;
  RC.StopAtFirstResponse = false;
  NativeImage First =
      buildNativeImage(P, configFor(PaperVariants[0], 3, Prof));
  runImage(First, RC);
  for (const PaperVariant &V : PaperVariants) {
    NativeImage Img = buildNativeImage(P, configFor(V, 3, Prof));
    RunStats Replayed = runImage(Img, RC);
    RunStats Interpreted = runImage(loadedCopy(P, Img), RC);
    ASSERT_TRUE(Replayed.Responded);
    expectSameRun(Replayed, Interpreted, V.Name);
  }
}

//===----------------------------------------------------------------------===//
// Cache isolation.
//===----------------------------------------------------------------------===//

TEST(BuildCache, WarmBuildsSerializeLikeFreshPrograms) {
  BenchmarkSpec Spec = awfyBenchmark("Richards");
  std::unique_ptr<Program> Warm = compile(Spec);
  ASSERT_TRUE(Warm);
  CollectedProfiles Prof = profilesOf(*Warm, Spec);

  struct Case {
    const PaperVariant *V;
    uint64_t Seed;
    const BlockProfile *Blocks;
    uint32_t Huge;
  };
  std::vector<Case> Cases;
  for (uint64_t Seed : {uint64_t(11), uint64_t(12)})
    for (const PaperVariant &V : PaperVariants)
      Cases.push_back({&V, Seed, nullptr, 0});
  Cases.push_back({&PaperVariants[7], 11, &Prof.Blocks, 0});
  Cases.push_back({&PaperVariants[7], 11, nullptr, 1});

  std::shared_ptr<const ImageBase> SeedBase[2];
  for (const Case &C : Cases) {
    std::string Ctx = std::string(C.V->Name) + " seed " +
                      std::to_string(C.Seed) + (C.Blocks ? " split" : "") +
                      (C.Huge ? " huge" : "");
    BuildConfig Cfg = configFor(*C.V, C.Seed, Prof, C.Blocks, C.Huge);
    NativeImage W = buildNativeImage(*Warm, Cfg);
    // Every build of one seed after the first is served from the cache.
    std::shared_ptr<const ImageBase> &First = SeedBase[C.Seed - 11];
    if (First)
      EXPECT_EQ(W.Base, First) << Ctx;
    else
      First = W.Base;
    std::unique_ptr<Program> Fresh = compile(Spec);
    ASSERT_TRUE(Fresh);
    NativeImage F = buildNativeImage(*Fresh, Cfg);
    EXPECT_EQ(serializeImage(*Warm, W), serializeImage(*Fresh, F)) << Ctx;
  }
}

TEST(BuildCache, EditingTheProgramMissesTheCache) {
  BenchmarkSpec Spec = microserviceBenchmark("quarkus");
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  BuildConfig Cfg;
  NativeImage Before = buildNativeImage(*P, Cfg);
  EXPECT_EQ(buildNativeImage(*P, Cfg).Base, Before.Base);

  // A method body edit changes the program fingerprint.
  Method &Main = P->method(P->MainMethod);
  Instr *Edited = nullptr;
  for (BasicBlock &BB : Main.Blocks)
    for (Instr &In : BB.Instrs)
      if (!Edited && In.Op == Opcode::ConstInt)
        Edited = &In;
  ASSERT_NE(Edited, nullptr);
  ++Edited->IImm;
  NativeImage AfterBody = buildNativeImage(*P, Cfg);
  EXPECT_NE(AfterBody.Base, Before.Base);
  EXPECT_TRUE(AfterBody.Base->Cached);

  // A resource edit does not move the fingerprint, but the base key sees
  // it: the new resource reaches the build heap.
  uint64_t Fp = programFingerprint(*P);
  P->Resources.push_back({"late.properties", "added=after-build"});
  EXPECT_EQ(programFingerprint(*P), Fp);
  NativeImage AfterResource = buildNativeImage(*P, Cfg);
  EXPECT_NE(AfterResource.Base, AfterBody.Base);
  EXPECT_EQ(AfterResource.Built.ResourceCells.count("late.properties"), 1u);
}

TEST(BuildCache, EditsOutsideTheFingerprintMissTheCache) {
  // A register-count edit leaves the fingerprint alone; the base key's
  // memoized program walk must still see it.
  BenchmarkSpec Spec = awfyBenchmark("Queens");
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  BuildConfig Cfg;
  NativeImage Before = buildNativeImage(*P, Cfg);
  EXPECT_EQ(buildNativeImage(*P, Cfg).Base, Before.Base);
  uint64_t Fp = programFingerprint(*P);
  ++P->method(P->MainMethod).NumRegs;
  EXPECT_EQ(programFingerprint(*P), Fp);
  NativeImage After = buildNativeImage(*P, Cfg);
  EXPECT_NE(After.Base, Before.Base);
  EXPECT_TRUE(After.Base->Cached);
  EXPECT_EQ(buildNativeImage(*P, Cfg).Base, After.Base);
}

TEST(BuildCache, CompileFaultHookBypassesTheCache) {
  BenchmarkSpec Spec = awfyBenchmark("Queens");
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  BuildConfig Cfg;
  NativeImage Clean = buildNativeImage(*P, Cfg);
  ASSERT_TRUE(Clean.Base->Cached);

  // Armed but harmless: not served from the cache, not stored in it.
  setCompileFaultHookForTest([](MethodId) { return false; });
  NativeImage Armed = buildNativeImage(*P, Cfg);
  // Armed and firing: degraded compile tasks.
  MethodId Victim = P->MainMethod;
  setCompileFaultHookForTest([Victim](MethodId M) { return M == Victim; });
  NativeImage Faulted = buildNativeImage(*P, Cfg);
  setCompileFaultHookForTest(nullptr);

  EXPECT_NE(Armed.Base, Clean.Base);
  EXPECT_FALSE(Armed.Base->Cached);
  EXPECT_NE(Faulted.Base, Clean.Base);
  EXPECT_FALSE(Faulted.Base->Cached);
  EXPECT_FALSE(Faulted.code().CompileFaults.empty());
  // Their runs never leave a log behind.
  runImage(Faulted, RunConfig());
  EXPECT_EQ(Faulted.Base->numLogs(), 0u);
  // The cache still holds the clean base, untouched by either build.
  EXPECT_EQ(buildNativeImage(*P, Cfg).Base, Clean.Base);
}

TEST(BuildCache, LoadedImagesAndTracedRunsNeverRecord) {
  BenchmarkSpec Spec = awfyBenchmark("Richards");
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  NativeImage Img = buildNativeImage(*P, BuildConfig());
  ASSERT_TRUE(Img.Base->Cached);

  TraceOptions Traced;
  Traced.Mode = TraceMode::CuOrder;
  TraceOptions Sampled;
  Sampled.Mode = TraceMode::Sampled;
  for (const TraceOptions *T : {&Traced, &Sampled}) {
    RunConfig RC;
    RC.Trace = T;
    TraceCapture Cap;
    runImage(Img, RC, &Cap);
    EXPECT_GT(Cap.totalWords(), 0u);
    EXPECT_EQ(Img.Base->numLogs(), 0u);
  }

  NativeImage Loaded = loadedCopy(*P, Img);
  EXPECT_FALSE(Loaded.Base->Cached);
  runImage(Loaded, RunConfig());
  EXPECT_EQ(Loaded.Base->numLogs(), 0u);
  EXPECT_EQ(Img.Base->numLogs(), 0u);

  // An untraced run records; a traced run afterwards still interprets
  // (it produces its trace) and adds no log.
  runImage(Img, RunConfig());
  EXPECT_EQ(Img.Base->numLogs(), 1u);
  RunConfig RC;
  RC.Trace = &Traced;
  TraceCapture Cap;
  runImage(Img, RC, &Cap);
  EXPECT_GT(Cap.totalWords(), 0u);
  EXPECT_EQ(Img.Base->numLogs(), 1u);
}

TEST(BuildCache, WarmLayoutsEqualFreshBuilds) {
  // One base, layouts in an order that revisits a code order: cu, then
  // cu+hotcold (same code order, another PEA fingerprint), then method,
  // then cu again. Each must equal the same build on a fresh program.
  BenchmarkSpec Spec = awfyBenchmark("Richards");
  std::unique_ptr<Program> Warm = compile(Spec);
  ASSERT_TRUE(Warm);
  CollectedProfiles Prof = profilesOf(*Warm, Spec);
  const PaperVariant &Cu = PaperVariants[1], &Method = PaperVariants[2];
  struct Case {
    const char *Name;
    BuildConfig Cfg;
  };
  std::vector<Case> Cases = {
      {"cu", configFor(Cu, 5, Prof)},
      {"cu+hotcold", configFor(Cu, 5, Prof, &Prof.Blocks)},
      {"method", configFor(Method, 5, Prof)},
      {"cu again", configFor(Cu, 5, Prof)},
  };
  std::shared_ptr<const ImageBase> Base;
  for (const Case &C : Cases) {
    NativeImage W = buildNativeImage(*Warm, C.Cfg);
    ASSERT_FALSE(W.Built.Failed) << C.Name;
    if (Base) {
      EXPECT_EQ(W.Base, Base) << C.Name;
    }
    Base = W.Base;
    std::unique_ptr<Program> Fresh = compile(Spec);
    ASSERT_TRUE(Fresh);
    NativeImage F = buildNativeImage(*Fresh, C.Cfg);
    EXPECT_EQ(W.Ids.HeapPathHashes, F.Ids.HeapPathHashes) << C.Name;
    EXPECT_EQ(serializeImage(*Warm, W), serializeImage(*Fresh, F)) << C.Name;
  }
}

TEST(BuildCache, TailsServeEveryFingerprintAndOrder) {
  // One base serves builds in four code orders and two PEA fingerprints
  // (cu+hotcold folds the split decisions into its own) from the snapshot
  // tail and identity rows made with it. Each build must equal the same
  // build on a fresh program: entries, cell index, the three identity
  // tables and the image bytes. A tail that kept an elision, or rows
  // masked by one, would fail the second case. No build after the first
  // hashes a structural row, and each computes or reuses the heap-path
  // rows of its code order once.
  BenchmarkSpec Spec = microserviceBenchmark("micronaut");
  std::unique_ptr<Program> Warm = compile(Spec);
  ASSERT_TRUE(Warm);
  CollectedProfiles Prof = profilesOf(*Warm, Spec);
  const PaperVariant &Baseline = PaperVariants[0], &Cu = PaperVariants[1],
                     &Method = PaperVariants[2], &Cluster = PaperVariants[3];
  struct Case {
    const char *Name;
    BuildConfig Cfg;
    bool OrderKept; ///< An earlier case built in the same code order.
  };
  std::vector<Case> Cases = {
      {"cu", configFor(Cu, 3, Prof), false},
      {"cu+hotcold", configFor(Cu, 3, Prof, &Prof.Blocks), true},
      {"method", configFor(Method, 3, Prof), false},
      {"default order", configFor(Baseline, 3, Prof), false},
      {"cluster", configFor(Cluster, 3, Prof), false},
      {"cu again", configFor(Cu, 3, Prof), true},
  };
  auto Count = [](const char *Name) {
    return obs::MetricsRegistry::global().counter(Name).value();
  };
  std::shared_ptr<const ImageBase> Base;
  for (const Case &C : Cases) {
    uint64_t Structural0 = Count("nimg.ids.structural_computed");
    uint64_t Computed0 = Count("nimg.ids.heap_path_computed");
    uint64_t Reused0 = Count("nimg.ids.heap_path_reused");
    NativeImage W = buildNativeImage(*Warm, C.Cfg);
    ASSERT_FALSE(W.Built.Failed) << C.Name;
    if (Base) {
      EXPECT_EQ(W.Base, Base) << C.Name;
#ifndef NIMG_OBS_DISABLED
      EXPECT_EQ(Count("nimg.ids.structural_computed"), Structural0)
          << C.Name << ": base rows hashed again";
      EXPECT_EQ(Count("nimg.ids.heap_path_reused") - Reused0,
                C.OrderKept ? 1u : 0u)
          << C.Name;
      EXPECT_EQ(Count("nimg.ids.heap_path_computed") - Computed0,
                C.OrderKept ? 0u : 1u)
          << C.Name;
#endif
    }
    (void)Structural0, (void)Computed0, (void)Reused0;
    Base = W.Base;
    std::unique_ptr<Program> Fresh = compile(Spec);
    ASSERT_TRUE(Fresh);
    NativeImage F = buildNativeImage(*Fresh, C.Cfg);
    const HeapSnapshot &A = W.Snapshot, &B = F.Snapshot;
    ASSERT_EQ(A.Entries.size(), B.Entries.size()) << C.Name;
    EXPECT_EQ(A.CodeEntries, B.CodeEntries) << C.Name;
    for (size_t I = 0; I < A.Entries.size(); ++I) {
      const SnapshotEntry &X = A.Entries[I], &Y = B.Entries[I];
      ASSERT_TRUE(X.Cell == Y.Cell && X.SizeBytes == Y.SizeBytes &&
                  X.ParentEntry == Y.ParentEntry &&
                  X.ParentSlot == Y.ParentSlot && X.IsRoot == Y.IsRoot &&
                  X.Elided == Y.Elided && X.Reason.Kind == Y.Reason.Kind &&
                  A.detail(X) == B.detail(Y))
          << C.Name << ": entry " << I;
    }
    EXPECT_EQ(A.EntryOfCell, B.EntryOfCell) << C.Name;
    EXPECT_EQ(W.Ids.IncrementalIds, F.Ids.IncrementalIds) << C.Name;
    EXPECT_EQ(W.Ids.StructuralHashes, F.Ids.StructuralHashes) << C.Name;
    EXPECT_EQ(W.Ids.HeapPathHashes, F.Ids.HeapPathHashes) << C.Name;
    EXPECT_EQ(serializeImage(*Warm, W), serializeImage(*Fresh, F)) << C.Name;
  }
}

TEST(BuildCache, TypesInternedBetweenBuildsLeaveTheIdsAlone) {
  // Interning a type moves neither the program fingerprint nor the base
  // key, so the builds after it still take what the base's first build
  // kept, among it the dense Alg. 1 type of each type slot. Slots must not
  // move with the program's type count: each build must give the ids of
  // the same build on a fresh program, in the kept code order and in a new
  // one, and index nothing past the kept map (run it under ASan too).
  BenchmarkSpec Spec = awfyBenchmark("Richards");
  std::unique_ptr<Program> Warm = compile(Spec);
  ASSERT_TRUE(Warm);
  CollectedProfiles Prof = profilesOf(*Warm, Spec);
  const PaperVariant &Cu = PaperVariants[1], &Method = PaperVariants[2];
  NativeImage First = buildNativeImage(*Warm, configFor(Cu, 3, Prof));
  ASSERT_FALSE(First.Built.Failed);
  size_t CodeStrings = 0;
  for (size_t I = 0; I < First.Snapshot.CodeEntries; ++I)
    CodeStrings += First.Snapshot.Entries[I].IsRoot &&
                   First.Snapshot.Entries[I].Reason.Kind ==
                       InclusionReasonKind::InternedString;
  ASSERT_GT(CodeStrings, 0u) << "no string among the code entries";

  size_t Types = Warm->numTypes();
  TypeId Nested = Warm->doubleType();
  for (int Depth = 0; Depth < 8; ++Depth)
    Nested = Warm->arrayType(Nested);
  ASSERT_GT(Warm->numTypes(), Types);
  for (const PaperVariant *V : {&Cu, &Method}) {
    BuildConfig Cfg = configFor(*V, 3, Prof);
    NativeImage W = buildNativeImage(*Warm, Cfg);
    ASSERT_FALSE(W.Built.Failed) << V->Name;
    EXPECT_EQ(W.Base, First.Base) << V->Name;
    std::unique_ptr<Program> Fresh = compile(Spec);
    ASSERT_TRUE(Fresh);
    NativeImage F = buildNativeImage(*Fresh, Cfg);
    EXPECT_EQ(W.Ids.IncrementalIds, F.Ids.IncrementalIds) << V->Name;
    EXPECT_EQ(W.Ids.StructuralHashes, F.Ids.StructuralHashes) << V->Name;
    EXPECT_EQ(W.Ids.HeapPathHashes, F.Ids.HeapPathHashes) << V->Name;
  }
}

TEST(BuildCache, WalksInAnyCodeOrderShareTheEntriesAfterTheCode) {
  // The plan's tail and the base's identity rows stand for the entries
  // from HeapSnapshot::CodeEntries on in every code order; that holds only
  // if they are the same entry for entry in every walk.
  BenchmarkSpec Spec = microserviceBenchmark("micronaut");
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  NativeImage Img = buildNativeImage(*P, BuildConfig());
  ASSERT_FALSE(Img.Built.Failed);
  const SnapshotPlan &Plan = Img.Base->Plan;
  const Heap &H = *Img.Built.BuildHeap;
  size_t NumCus = Img.Base->Code.CUs.size();
  SnapshotConfig Forward, Reverse;
  for (size_t Cu = NumCus; Cu-- > 0;)
    Reverse.CuOrder.push_back(int32_t(Cu));
  HeapSnapshot A = walkSnapshotPlan(Plan, H, Forward);
  HeapSnapshot B = walkSnapshotPlan(Plan, H, Reverse);
  ASSERT_EQ(A.Entries.size(), Plan.numEntries());
  ASSERT_EQ(B.Entries.size(), Plan.numEntries());
  ASSERT_EQ(A.CodeEntries, B.CodeEntries);
  EXPECT_GT(A.CodeEntries, 0u);
  EXPECT_EQ(B.CuOrder, Reverse.CuOrder);
  size_t Moved = 0;
  for (size_t I = 0; I < A.CodeEntries; ++I)
    Moved += A.Entries[I].Cell != B.Entries[I].Cell;
  EXPECT_GT(Moved, 0u) << "the reversed order walked like the default";
  for (size_t I = A.CodeEntries; I < A.Entries.size(); ++I) {
    const SnapshotEntry &X = A.Entries[I], &Y = B.Entries[I];
    ASSERT_TRUE(X.Cell == Y.Cell && X.IsRoot == Y.IsRoot &&
                X.ParentEntry == Y.ParentEntry &&
                X.ParentSlot == Y.ParentSlot &&
                X.Reason.Kind == Y.Reason.Kind &&
                X.Reason.Detail == Y.Reason.Detail)
        << "entry " << I;
  }
  // What makes the tail the same after any code walk: the code roots reach
  // one set of cells in every order, and no tail entry's first path runs
  // through a code entry.
  auto CodeCells = [](const HeapSnapshot &S) {
    std::vector<CellIdx> Cells;
    for (size_t I = 0; I < S.CodeEntries; ++I)
      Cells.push_back(S.Entries[I].Cell);
    std::sort(Cells.begin(), Cells.end());
    return Cells;
  };
  EXPECT_EQ(CodeCells(A), CodeCells(B));
  for (size_t I = A.CodeEntries; I < A.Entries.size(); ++I)
    ASSERT_TRUE(A.Entries[I].ParentEntry == -1 ||
                size_t(A.Entries[I].ParentEntry) >= A.CodeEntries)
        << "entry " << I;
}

//===----------------------------------------------------------------------===//
// Golden image digests: the serialized bytes of a matrix of builds, recorded
// once. Any change to a build stage that moves one image byte fails here.
//===----------------------------------------------------------------------===//

/// 64-bit FNV-1a: independent of the hashes the library itself uses.
uint64_t fnv1a64(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

struct GoldenDigest {
  const char *Program;
  uint64_t Seed;
  const char *Build;
  uint64_t Digest;
};

// clang-format off
const std::vector<GoldenDigest> kGoldenDigests = {
    {"Richards", 1, "baseline", 0xc66c674c2484c221ull},
    {"Richards", 1, "cu", 0x49cad6943a35aefcull},
    {"Richards", 1, "method", 0x2293de56befa7588ull},
    {"Richards", 1, "cluster", 0x3412592fb1727f72ull},
    {"Richards", 1, "incremental id", 0x449f05b7854a1e00ull},
    {"Richards", 1, "structural hash", 0x8f126f5d96e7a565ull},
    {"Richards", 1, "heap path", 0x8f126f5d96e7a565ull},
    {"Richards", 1, "cu+heap path", 0xe9531f5177954704ull},
    {"Richards", 1, "cu+hotcold", 0x0a1c6f0b669eed05ull},
    {"Richards", 1, "instrumented", 0x27373280d3875cdcull},
    {"Richards", 2, "baseline", 0x95af86a171ce515aull},
    {"Richards", 2, "cu", 0xd164e13b00abc34bull},
    {"Richards", 2, "method", 0xca094bf9d038d3efull},
    {"Richards", 2, "cluster", 0x9be9d8ea73952d49ull},
    {"Richards", 2, "incremental id", 0x30633865b4246739ull},
    {"Richards", 2, "structural hash", 0x25441bb4da71378dull},
    {"Richards", 2, "heap path", 0x25441bb4da71378dull},
    {"Richards", 2, "cu+heap path", 0xb7b7c88c78be5cfcull},
    {"Richards", 2, "cu+hotcold", 0xb8c66970831db3b5ull},
    {"Richards", 2, "instrumented", 0xa3ab6bcc915599beull},
    {"Havlak", 1, "baseline", 0xc8a4869c58a42815ull},
    {"Havlak", 1, "cu", 0x98efc0c4db824cbdull},
    {"Havlak", 1, "method", 0xace153057c629257ull},
    {"Havlak", 1, "cluster", 0x1f5a5ec22020209bull},
    {"Havlak", 1, "incremental id", 0x2709de6f4fccfe74ull},
    {"Havlak", 1, "structural hash", 0x8808390df689235full},
    {"Havlak", 1, "heap path", 0x8808390df689235full},
    {"Havlak", 1, "cu+heap path", 0x09a46c55e62de25full},
    {"Havlak", 1, "cu+hotcold", 0x5f7f1f0cb2256929ull},
    {"Havlak", 1, "instrumented", 0xa683c42d29e7c6c4ull},
    {"Havlak", 2, "baseline", 0x4ef7549c36747141ull},
    {"Havlak", 2, "cu", 0x228d9900a475fec9ull},
    {"Havlak", 2, "method", 0xcbfecb3f67f2ce9full},
    {"Havlak", 2, "cluster", 0x9a00bd77d758721bull},
    {"Havlak", 2, "incremental id", 0xa75106001fab5923ull},
    {"Havlak", 2, "structural hash", 0xb45eae8445b0058dull},
    {"Havlak", 2, "heap path", 0xb45eae8445b0058dull},
    {"Havlak", 2, "cu+heap path", 0x7a1c244e1ac2ec00ull},
    {"Havlak", 2, "cu+hotcold", 0xdf3bcab698b823b0ull},
    {"Havlak", 2, "instrumented", 0x030b8e9a069fd02eull},
    {"DeltaBlue", 1, "baseline", 0xdda624f1ef62adffull},
    {"DeltaBlue", 1, "cu", 0x81e67c93ff5d06a0ull},
    {"DeltaBlue", 1, "method", 0x9f4a705728df7873ull},
    {"DeltaBlue", 1, "cluster", 0xadeda31d08c58849ull},
    {"DeltaBlue", 1, "incremental id", 0x411c7fadbfc5e4d9ull},
    {"DeltaBlue", 1, "structural hash", 0x3400b5f0d7dbdcb6ull},
    {"DeltaBlue", 1, "heap path", 0x3400b5f0d7dbdcb6ull},
    {"DeltaBlue", 1, "cu+heap path", 0x2ade7d1ce6d91f35ull},
    {"DeltaBlue", 1, "cu+hotcold", 0xfd491487a3daa273ull},
    {"DeltaBlue", 1, "instrumented", 0xad38378a33680a50ull},
    {"DeltaBlue", 2, "baseline", 0xf857699bf93aa29full},
    {"DeltaBlue", 2, "cu", 0xebe08364d1ca64b8ull},
    {"DeltaBlue", 2, "method", 0x14c5f53a4a188f43ull},
    {"DeltaBlue", 2, "cluster", 0x5d4524bf439cd191ull},
    {"DeltaBlue", 2, "incremental id", 0xe872bafb3c4ca13bull},
    {"DeltaBlue", 2, "structural hash", 0x3723d50cd8eac120ull},
    {"DeltaBlue", 2, "heap path", 0x3723d50cd8eac120ull},
    {"DeltaBlue", 2, "cu+heap path", 0xef998b8bd5961b53ull},
    {"DeltaBlue", 2, "cu+hotcold", 0xf8c6f41adae32d8aull},
    {"DeltaBlue", 2, "instrumented", 0xfa593d9ababdebd0ull},
    {"micronaut", 1, "baseline", 0xe837c4efc023cbcbull},
    {"micronaut", 1, "cu", 0xdf92b37a576c2bbfull},
    {"micronaut", 1, "method", 0xc592ae281b2b265aull},
    {"micronaut", 1, "cluster", 0x7df452493bcd473full},
    {"micronaut", 1, "incremental id", 0x16669f0171543388ull},
    {"micronaut", 1, "structural hash", 0x7d23d563e6f13fc9ull},
    {"micronaut", 1, "heap path", 0xb841f03a49d8ffa8ull},
    {"micronaut", 1, "cu+heap path", 0x0060c4f637a0de5aull},
    {"micronaut", 1, "cu+hotcold", 0x9514642b2c718ee0ull},
    {"micronaut", 1, "instrumented", 0x2538df9efeece62bull},
    {"micronaut", 2, "baseline", 0x130e4bc0dd465b9bull},
    {"micronaut", 2, "cu", 0x5f5237c421e2e173ull},
    {"micronaut", 2, "method", 0x9d4bca60a5c0677eull},
    {"micronaut", 2, "cluster", 0xff952fed72f16a93ull},
    {"micronaut", 2, "incremental id", 0x7679c36c0dd2d67aull},
    {"micronaut", 2, "structural hash", 0x384df273c83183acull},
    {"micronaut", 2, "heap path", 0x25280a3f3101498eull},
    {"micronaut", 2, "cu+heap path", 0xfd392660b5c4be9eull},
    {"micronaut", 2, "cu+hotcold", 0x64983c6cb383f08aull},
    {"micronaut", 2, "instrumented", 0xffb09e2b84f01fb1ull},
    {"quarkus", 1, "baseline", 0x4267c0027254f466ull},
    {"quarkus", 1, "cu", 0x2c34351f6249066full},
    {"quarkus", 1, "method", 0x94413fd85030a33bull},
    {"quarkus", 1, "cluster", 0x823db843767245a1ull},
    {"quarkus", 1, "incremental id", 0x18dff7892873f0dcull},
    {"quarkus", 1, "structural hash", 0xe10a3c23ce1a9ef4ull},
    {"quarkus", 1, "heap path", 0x00a5146c2284b4faull},
    {"quarkus", 1, "cu+heap path", 0xa0d11584e5392ba0ull},
    {"quarkus", 1, "cu+hotcold", 0x4fe2587e777945c0ull},
    {"quarkus", 1, "instrumented", 0x8d33cbafc2b99ed5ull},
    {"quarkus", 2, "baseline", 0x3867810d58a6cddbull},
    {"quarkus", 2, "cu", 0xf7356143ee158ee8ull},
    {"quarkus", 2, "method", 0xa0a2f72eaf2eaca4ull},
    {"quarkus", 2, "cluster", 0x0c9abf4cd4498882ull},
    {"quarkus", 2, "incremental id", 0xe9db16adeb155084ull},
    {"quarkus", 2, "structural hash", 0x46cda99d4e1ad01bull},
    {"quarkus", 2, "heap path", 0xb922852912a9c159ull},
    {"quarkus", 2, "cu+heap path", 0xbadfaf4cd3e4c2efull},
    {"quarkus", 2, "cu+hotcold", 0x8407219cf4f0cb62ull},
    {"quarkus", 2, "instrumented", 0xd97bda078171b00cull},
};
// clang-format on

TEST(LayoutBuildGolden, ImagesMatchRecordedDigests) {
  std::vector<std::string> Mismatches;
  size_t Checked = 0;
  for (const char *Name :
       {"Richards", "Havlak", "DeltaBlue", "micronaut", "quarkus"}) {
    BenchmarkSpec Spec = specNamed(Name);
    std::unique_ptr<Program> P = compile(Spec);
    ASSERT_TRUE(P);
    CollectedProfiles Prof = profilesOf(*P, Spec);
    for (uint64_t Seed : {uint64_t(1), uint64_t(2)}) {
      std::vector<std::pair<std::string, BuildConfig>> Builds;
      for (const PaperVariant &V : PaperVariants)
        Builds.push_back({V.Name, configFor(V, Seed, Prof)});
      Builds.push_back({"cu+hotcold",
                        configFor(PaperVariants[1], Seed, Prof, &Prof.Blocks)});
      BuildConfig Instr;
      Instr.Seed = Seed;
      Instr.Instrumented = true;
      Builds.push_back({"instrumented", Instr});
      for (const auto &[Build, Cfg] : Builds) {
        NativeImage Img = buildNativeImage(*P, Cfg);
        ASSERT_FALSE(Img.Built.Failed) << Name << " " << Build;
        uint64_t Got = fnv1a64(serializeImage(*P, Img));
        const GoldenDigest *Want = nullptr;
        for (const GoldenDigest &G : kGoldenDigests)
          if (Name == std::string(G.Program) && G.Seed == Seed &&
              Build == G.Build)
            Want = &G;
        ++Checked;
        if (!Want || Want->Digest != Got) {
          char Row[160];
          std::snprintf(Row, sizeof Row,
                        "    {\"%s\", %llu, \"%s\", 0x%016llxull},", Name,
                        (unsigned long long)Seed, Build.c_str(),
                        (unsigned long long)Got);
          Mismatches.push_back(Row);
        }
      }
    }
  }
  EXPECT_EQ(Checked, kGoldenDigests.size());
  std::string Rows;
  for (const std::string &R : Mismatches)
    Rows += R + "\n";
  EXPECT_TRUE(Mismatches.empty())
      << Mismatches.size() << " image(s) differ from the recorded digests "
      << "(actual rows):\n"
      << Rows;
}

//===----------------------------------------------------------------------===//
// The fingerprint memo: one hash per program version.
//===----------------------------------------------------------------------===//

uint64_t fingerprintsComputed() {
#ifndef NIMG_OBS_DISABLED
  return obs::MetricsRegistry::global()
      .counter("nimg.program.fingerprint.computed")
      .value();
#else
  return 0;
#endif
}

/// The fingerprint hashed afresh: fetching an edit handle (and dropping
/// it) moves the version, so the memo cannot answer.
uint64_t uncachedFingerprint(Program &P) {
  (void)P.method(P.MainMethod);
  return programFingerprint(P);
}

class FingerprintMemoTest : public testing::TestWithParam<std::string> {};

TEST_P(FingerprintMemoTest, MemoEqualsAnUncachedHash) {
  BenchmarkSpec Spec = specNamed(GetParam());
  std::unique_ptr<Program> P = compile(Spec);
  ASSERT_TRUE(P);
  RunConfig RC;
  RC.StopAtFirstResponse = Spec.Microservice;

  // Profile capture and a build+run sweep of the paper's variants only
  // read the program: one hash in all, taken after the first build adds
  // the metadata class. A read path that fetches an edit handle moves the
  // version and fails here.
  uint64_t Computed0 = fingerprintsComputed();
  CollectedProfiles Prof = profilesOf(*P, Spec);
  uint64_t Version = P->version();
  for (uint64_t Seed : {uint64_t(11), uint64_t(12)})
    for (const PaperVariant &V : PaperVariants) {
      NativeImage Img = buildNativeImage(*P, configFor(V, Seed, Prof));
      ASSERT_FALSE(Img.Built.Failed) << V.Name;
      runImage(Img, RC);
    }
  EXPECT_EQ(P->version(), Version);
#ifndef NIMG_OBS_DISABLED
  EXPECT_EQ(fingerprintsComputed() - Computed0, 1u);
#endif
  EXPECT_EQ(Prof.Cu.Header.Fingerprint, uncachedFingerprint(*P));

  // After each stage the memo still holds the stage's input version and
  // equals a fresh hash.
  auto AfterStage = [&](const std::string &Stage, auto &&Run) {
    uint64_t Before = programFingerprint(*P);
    uint64_t V = P->version();
    Run();
    EXPECT_EQ(P->version(), V) << Stage;
    EXPECT_EQ(programFingerprint(*P), Before) << Stage;
    EXPECT_EQ(Before, uncachedFingerprint(*P)) << Stage;
  };
  NativeImage Img;
  AfterStage("build", [&] { Img = buildNativeImage(*P, BuildConfig()); });
  AfterStage("run", [&] { runImage(Img, RC); });
  AfterStage("collectProfiles", [&] {
    CollectedProfiles Again = profilesOf(*P, Spec);
    EXPECT_EQ(Again.HeapPath.Header.Fingerprint, programFingerprint(*P));
  });
  AfterStage("deserializeImage", [&] { loadedCopy(*P, Img); });
  // A freshly compiled copy, hashed once, agrees with the memo too.
  std::unique_ptr<Program> Fresh = compile(Spec);
  ASSERT_TRUE(Fresh);
  EXPECT_EQ(programFingerprint(*Fresh), uncachedFingerprint(*Fresh));
  ensureClassMetaClass(*Fresh);
  EXPECT_EQ(programFingerprint(*Fresh), programFingerprint(*P));

  // Lookups that add nothing are not edits.
  ASSERT_GT(P->numStrings(), 0u);
  TypeId IntArray = P->arrayType(P->intType());
  TypeId Object = P->objectType(0);
  Version = P->version();
  EXPECT_EQ(P->arrayType(P->intType()), IntArray);
  EXPECT_EQ(P->objectType(0), Object);
  EXPECT_EQ(P->internString(P->string(0)), 0);
  EXPECT_EQ(P->version(), Version);

  // Every kind of edit forces one fresh hash of the edited program.
  auto AfterEdit = [&](const std::string &Edit, bool MovesFingerprint,
                       auto &&Apply) {
    uint64_t Before = programFingerprint(*P);
    uint64_t V = P->version();
    uint64_t C0 = fingerprintsComputed();
    Apply();
    EXPECT_NE(P->version(), V) << Edit;
    uint64_t After = programFingerprint(*P);
#ifndef NIMG_OBS_DISABLED
    EXPECT_EQ(fingerprintsComputed() - C0, 1u) << Edit;
#endif
    EXPECT_EQ(After, uncachedFingerprint(*P)) << Edit;
    EXPECT_EQ(After != Before, MovesFingerprint) << Edit;
  };
  AfterEdit("method body", true, [&] {
    for (size_t M = 0; M < P->numMethods(); ++M)
      for (BasicBlock &BB : P->method(MethodId(M)).Blocks)
        for (Instr &In : BB.Instrs)
          if (In.Op == Opcode::ConstInt) {
            ++In.IImm;
            return;
          }
    ADD_FAILURE() << "no integer constant to edit";
  });
  AfterEdit("class definition", true, [&] {
    ClassDef &Def = P->classDef(0);
    Def.StaticFields.push_back({"memoProbe", P->intType(), Def.Id, false});
  });
  AfterEdit("string table", true,
            [&] { P->internString("fingerprint memo probe"); });
  ClassId Probe = -1;
  AfterEdit("new class and method", true, [&] {
    Probe = P->addClass("MemoProbe");
    P->addMethod(Probe, "probe", {}, P->intType(), /*IsStatic=*/true);
  });
  AfterEdit("new object and array types", false,
            [&] { P->arrayType(P->objectType(Probe)); });
}

INSTANTIATE_TEST_SUITE_P(Programs, FingerprintMemoTest,
                         testing::ValuesIn(oraclePrograms()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

} // namespace
