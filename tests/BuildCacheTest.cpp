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
