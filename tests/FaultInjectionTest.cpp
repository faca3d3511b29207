//===- FaultInjectionTest.cpp - Crash-tolerance of the profile pipeline ------===//
//
// Seeded fault-injection scenarios for the whole profile pipeline: traces
// truncated mid-record (SIGKILL between mmap page syncs), bit-flipped
// trace words, dropped per-thread trace files, and profile CSVs truncated
// or bit-flipped at arbitrary byte offsets. Every scenario must end in a
// *completed* optimizing build — salvaging what is valid or degrading to
// the default layout with diagnostics — never a crash or assert.
//
//===----------------------------------------------------------------------===//

#include "src/compiler/Inliner.h"
#include "src/core/Builder.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/obs/Json.h"
#include "src/obs/StartupReport.h"
#include "src/support/AtomicFile.h"
#include "src/support/Crc32.h"
#include "src/support/FaultInjection.h"
#include "src/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace nimg;

namespace {

const char *kWorkload = R"(
abstract class Shape {
  abstract double area();
}
class Circle extends Shape {
  double r;
  Circle(double r) { this.r = r; }
  double area() { return 3.14159 * r * r; }
}
class Rect extends Shape {
  double w; double h;
  Rect(double w, double h) { this.w = w; this.h = h; }
  double area() { return w * h; }
}
class Registry {
  static String banner = "fault registry v" + 1;
  static int created = 0;
  static int[] histogram = new int[16];
  static { histogram[0] = 1; }
  static void note(int kind) {
    created = created + 1;
    histogram[kind] = histogram[kind] + 1;
  }
}
class Main {
  static double work() {
    Shape[] shapes = new Shape[24];
    for (int i = 0; i < shapes.length; i = i + 1) {
      if (i % 2 == 0) {
        shapes[i] = new Circle(1.0 + i);
        Registry.note(0);
      } else {
        shapes[i] = new Rect(2.0, 1.0 + i);
        Registry.note(1);
      }
    }
    double total = 0.0;
    for (int i = 0; i < shapes.length; i = i + 1) {
      total = total + shapes[i].area();
    }
    return total;
  }
  static int main() {
    double t = work();
    Sys.print(Registry.banner + ": " + Registry.created);
    return (int) t;
  }
}
)";

/// Shared, build-once corpus: the program, one instrumented image, one
/// pristine capture per trace mode, collected profiles, and the baseline
/// optimizing build's output. Faults are applied to copies.
struct Corpus {
  Program P;
  NativeImage InstrImg;
  PathGraphCache Paths;
  TraceCapture Caps[4]; ///< Indexed by TraceMode (incl. Sampled).
  CollectedProfiles Prof;
  uint64_t Fp = 0;
  std::string BaselineOutput;

  Corpus() : Paths(P) {
    std::vector<std::string> Errors;
    if (!compileSources({kWorkload}, P, Errors)) {
      for (const std::string &E : Errors)
        ADD_FAILURE() << E;
      return;
    }
    BuildConfig ICfg;
    ICfg.Seed = 1001;
    ICfg.Instrumented = true;
    InstrImg = buildNativeImage(P, ICfg);
    EXPECT_FALSE(InstrImg.Built.Failed) << InstrImg.Built.FailureMessage;
    for (TraceMode Mode : {TraceMode::CuOrder, TraceMode::MethodOrder,
                           TraceMode::HeapOrder, TraceMode::Sampled}) {
      TraceOptions TOpts;
      TOpts.Mode = Mode;
      TOpts.Dump = DumpMode::MemoryMapped;
      // The workload is small; the default period would tick at most a
      // couple of times, leaving too few sample words to corrupt.
      TOpts.SamplePeriod = 128;
      RunConfig RC;
      RC.Trace = &TOpts;
      RunStats S = runImage(InstrImg, RC, &Caps[size_t(Mode)]);
      EXPECT_FALSE(S.Trapped) << S.TrapMessage;
      EXPECT_GT(Caps[size_t(Mode)].totalWords(), 0u);
    }
    BuildConfig PCfg;
    PCfg.Seed = 1001;
    Prof = collectProfiles(P, PCfg, RunConfig());
    Fp = programFingerprint(P);

    BuildConfig Base;
    Base.Seed = 2;
    NativeImage Baseline = buildNativeImage(P, Base);
    RunStats BS = runImage(Baseline, RunConfig());
    EXPECT_FALSE(BS.Trapped) << BS.TrapMessage;
    BaselineOutput = BS.Output;
  }
};

Corpus &corpus() {
  static Corpus *C = new Corpus();
  return *C;
}

/// One seeded trace-fault scenario: corrupt a pristine capture, analyze it
/// (salvaging), and feed the result through a full optimizing build.
void runTraceScenario(uint64_t Seed, TraceMode Mode, TraceFault Kind,
                      bool AlsoRun) {
  Corpus &C = corpus();
  SCOPED_TRACE(::testing::Message()
               << "seed=" << Seed << " mode=" << int(Mode)
               << " fault=" << int(Kind));
  TraceCapture Cap = C.Caps[size_t(Mode)];
  FaultInjector Inj(Seed);
  Inj.applyTraceFault(Cap, Kind);

  SalvageStats Stats;
  CodeProfile CodeProf;
  HeapProfile HeapProf;
  BuildConfig Cfg;
  Cfg.Seed = 2 + Seed;
  switch (Mode) {
  case TraceMode::CuOrder:
    CodeProf = analyzeCuOrder(C.P, Cap, &Stats);
    CodeProf.Header.Fingerprint = C.Fp;
    Cfg.CodeOrder = CodeStrategy::CuOrder;
    Cfg.CodeProf = &CodeProf;
    break;
  case TraceMode::MethodOrder:
    CodeProf = analyzeMethodOrder(C.P, Cap, C.Paths, &Stats);
    CodeProf.Header.Fingerprint = C.Fp;
    Cfg.CodeOrder = CodeStrategy::MethodOrder;
    Cfg.CodeProf = &CodeProf;
    break;
  case TraceMode::HeapOrder: {
    std::vector<int32_t> Order =
        analyzeHeapAccessOrder(C.P, Cap, C.Paths, &Stats);
    HeapProf = heapProfileFor(Order, C.InstrImg.Ids, HeapStrategy::HeapPath);
    HeapProf.Header.Fingerprint = C.Fp;
    Cfg.UseHeapOrder = true;
    Cfg.HeapOrder = HeapStrategy::HeapPath;
    Cfg.HeapProf = &HeapProf;
    break;
  }
  case TraceMode::Sampled:
    // A corrupted sampled capture feeds the cu ingestion path, exactly as
    // a fleet member's damaged upload would.
    CodeProf = analyzeSampledCuOrder(C.P, Cap, &Stats);
    CodeProf.Header.Fingerprint = C.Fp;
    Cfg.CodeOrder = CodeStrategy::CuOrder;
    Cfg.CodeProf = &CodeProf;
    break;
  }

  // Salvage-stats invariants.
  EXPECT_FALSE(Stats.ModeMismatch);
  EXPECT_EQ(Stats.WordsScanned, Cap.totalWords());
  EXPECT_EQ(Stats.WordsKept + Stats.WordsDropped, Stats.WordsScanned);

  // A salvaged copy accounts for exactly the kept words and re-scans clean.
  SalvageStats First, Second;
  TraceCapture Clean = salvageCapture(C.P, Cap, C.Paths, First);
  EXPECT_EQ(Clean.totalWords(), First.WordsKept);
  scanCapture(C.P, Clean, C.Paths, Second);
  EXPECT_TRUE(Second.clean());

  // The optimizing build always completes; a fault-free-looking salvaged
  // profile is applied, never crashes the pipeline.
  NativeImage Img = buildNativeImage(C.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied ||
              Img.ProfileDiag.HeapProfileApplied ||
              !Img.ProfileDiag.Issues.empty() ||
              (!Img.ProfileDiag.CodeProfileProvided &&
               !Img.ProfileDiag.HeapProfileProvided));
  if (AlsoRun) {
    RunStats S = runImage(Img, RunConfig());
    EXPECT_FALSE(S.Trapped) << S.TrapMessage;
    EXPECT_EQ(S.Output, C.BaselineOutput);
  }
}

} // namespace

// 12 seeds x 4 modes x 3 fault kinds = 144 seeded trace scenarios.
TEST(FaultInjection, TraceFaultMatrixSurvivesOptimizingBuild) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    for (TraceMode Mode : {TraceMode::CuOrder, TraceMode::MethodOrder,
                           TraceMode::HeapOrder, TraceMode::Sampled})
      for (TraceFault Kind : {TraceFault::TruncateMidRecord,
                              TraceFault::BitFlip, TraceFault::DropThread})
        runTraceScenario(Seed, Mode, Kind, /*AlsoRun=*/Seed % 4 == 0);
}

// Cluster analysis consumes the same cu-mode captures; every trace fault
// must still yield a profile that is a permutation of the salvaged cu
// profile (or an explicit fallback) and feed a completed cluster build.
TEST(FaultInjection, ClusterAnalysisSurvivesTraceFaults) {
  Corpus &C = corpus();
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    for (TraceFault Kind : {TraceFault::TruncateMidRecord, TraceFault::BitFlip,
                            TraceFault::DropThread}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << Seed << " fault=" << int(Kind));
      TraceCapture Cap = C.Caps[size_t(TraceMode::CuOrder)];
      FaultInjector Inj(Seed);
      Inj.applyTraceFault(Cap, Kind);

      CodeProfile CuProf = analyzeCuOrder(C.P, Cap);
      std::vector<ProfileIssue> Issues;
      ClusterStats Stats;
      CodeProfile Prof =
          analyzeClusterOrder(C.P, Cap, C.InstrImg.code(), ClusterOptions(),
                              nullptr, &Issues, &Stats);
      std::vector<std::string> A = CuProf.Sigs, B = Prof.Sigs;
      std::sort(A.begin(), A.end());
      std::sort(B.begin(), B.end());
      EXPECT_EQ(A, B);
      if (Stats.FellBack) {
        ASSERT_FALSE(Issues.empty());
        EXPECT_EQ(Issues[0].Kind, ProfileError::EmptyTransitionGraph);
      }

      Prof.Header.Fingerprint = C.Fp;
      BuildConfig Cfg;
      Cfg.Seed = 5 + Seed;
      Cfg.CodeOrder = CodeStrategy::Cluster;
      Cfg.CodeProf = &Prof;
      NativeImage Img = buildNativeImage(C.P, Cfg);
      ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
      if (Seed % 4 == 0) {
        RunStats S = runImage(Img, RunConfig());
        EXPECT_FALSE(S.Trapped) << S.TrapMessage;
        EXPECT_EQ(S.Output, C.BaselineOutput);
      }
    }
  }
}

// 10 seeds x 3 profile files x 2 text faults = 60 seeded CSV scenarios.
TEST(FaultInjection, CsvFaultMatrixSurvivesIngestionAndBuild) {
  Corpus &C = corpus();
  const std::string Sources[3] = {C.Prof.Cu.toCsv(), C.Prof.Method.toCsv(),
                                  C.Prof.HeapPath.toCsv()};
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    for (int Src = 0; Src < 3; ++Src) {
      for (int FaultKind = 0; FaultKind < 2; ++FaultKind) {
        SCOPED_TRACE(::testing::Message() << "seed=" << Seed << " src=" << Src
                                          << " fault=" << FaultKind);
        std::string Text = Sources[size_t(Src)];
        FaultInjector Inj(Seed * 97 + uint64_t(Src) * 7 + uint64_t(FaultKind));
        if (FaultKind == 0)
          Inj.truncateText(Text);
        else
          Inj.bitFlipText(Text, 1 + Inj.nextBelow(4));

        // Ingestion never crashes; it either yields a usable profile or a
        // typed fatal error.
        ProfileReadReport Report;
        CodeProfile CodeProf;
        HeapProfile HeapProf;
        BuildConfig Cfg;
        Cfg.Seed = 3 + Seed;
        if (Src < 2) {
          CodeProf = CodeProfile::fromCsv(Text, &Report);
          EXPECT_EQ(CodeProf.LoadError, Report.Fatal);
          Cfg.CodeOrder =
              Src == 0 ? CodeStrategy::CuOrder : CodeStrategy::MethodOrder;
          Cfg.CodeProf = &CodeProf;
        } else {
          HeapProf = HeapProfile::fromCsv(Text, &Report);
          EXPECT_EQ(HeapProf.LoadError, Report.Fatal);
          Cfg.UseHeapOrder = true;
          Cfg.HeapOrder = HeapStrategy::HeapPath;
          Cfg.HeapProf = &HeapProf;
        }

        // The optimizing build completes either way; a rejected profile
        // must leave a recorded reason.
        NativeImage Img = buildNativeImage(C.P, Cfg);
        ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
        EXPECT_TRUE(Img.ProfileDiag.CodeProfileProvided ||
                    Img.ProfileDiag.HeapProfileProvided);
        if (Img.ProfileDiag.degraded())
          EXPECT_FALSE(Img.ProfileDiag.Issues.empty());
        if (!Report.usable())
          EXPECT_TRUE(Img.ProfileDiag.degraded());
      }
    }
  }
}

TEST(FaultInjection, FaultsAreDeterministicPerSeed) {
  Corpus &C = corpus();
  for (uint64_t Seed : {3u, 17u, 255u}) {
    TraceCapture A = C.Caps[size_t(TraceMode::HeapOrder)];
    TraceCapture B = C.Caps[size_t(TraceMode::HeapOrder)];
    FaultInjector IA(Seed), IB(Seed);
    IA.applyTraceFault(A, TraceFault::BitFlip);
    IB.applyTraceFault(B, TraceFault::BitFlip);
    ASSERT_EQ(A.Threads.size(), B.Threads.size());
    for (size_t T = 0; T < A.Threads.size(); ++T)
      EXPECT_EQ(A.Threads[T].Words, B.Threads[T].Words);

    std::string TA = C.Prof.Cu.toCsv(), TB = C.Prof.Cu.toCsv();
    FaultInjector JA(Seed), JB(Seed);
    JA.bitFlipText(TA, 3);
    JB.bitFlipText(TB, 3);
    EXPECT_EQ(TA, TB);
  }
}

TEST(FaultInjection, ChecksumMismatchIsDetected) {
  Corpus &C = corpus();
  std::string Text = C.Prof.Cu.toCsv();
  size_t Nl = Text.find('\n');
  ASSERT_NE(Nl, std::string::npos);
  ASSERT_LT(Nl + 1, Text.size());
  Text[Nl + 1] = Text[Nl + 1] == 'X' ? 'Y' : 'X'; // corrupt the payload
  ProfileReadReport Report;
  CodeProfile P = CodeProfile::fromCsv(Text, &Report);
  EXPECT_EQ(Report.Fatal, ProfileError::ChecksumMismatch);
  EXPECT_EQ(P.LoadError, ProfileError::ChecksumMismatch);
  EXPECT_TRUE(P.Sigs.empty());

  BuildConfig Cfg;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeProf = &P;
  NativeImage Img = buildNativeImage(C.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);
  EXPECT_TRUE(Img.ProfileDiag.degraded());
  ASSERT_FALSE(Img.ProfileDiag.Issues.empty());
  EXPECT_EQ(Img.ProfileDiag.Issues[0].Kind, ProfileError::ChecksumMismatch);
}

TEST(FaultInjection, StaleFingerprintIsRejected) {
  Corpus &C = corpus();
  CodeProfile Stale = C.Prof.Cu;
  Stale.Header.Fingerprint ^= 0x1; // a profile from a "different" program
  BuildConfig Cfg;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeProf = &Stale;
  NativeImage Img = buildNativeImage(C.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);
  EXPECT_FALSE(Img.ProfileDiag.CodeProfileApplied);
  ASSERT_FALSE(Img.ProfileDiag.Issues.empty());
  EXPECT_EQ(Img.ProfileDiag.Issues[0].Kind,
            ProfileError::FingerprintMismatch);

  // The matching fingerprint is accepted.
  BuildConfig Ok = Cfg;
  Ok.CodeProf = &C.Prof.Cu;
  NativeImage Img2 = buildNativeImage(C.P, Ok);
  EXPECT_TRUE(Img2.ProfileDiag.CodeProfileApplied);
  EXPECT_FALSE(Img2.ProfileDiag.degraded());
}

TEST(FaultInjection, ModeAndStrategyMismatchesAreRejected) {
  Corpus &C = corpus();
  // A cu-mode profile cannot drive method ordering.
  BuildConfig MCfg;
  MCfg.CodeOrder = CodeStrategy::MethodOrder;
  MCfg.CodeProf = &C.Prof.Cu;
  NativeImage MImg = buildNativeImage(C.P, MCfg);
  ASSERT_FALSE(MImg.Built.Failed);
  EXPECT_FALSE(MImg.ProfileDiag.CodeProfileApplied);
  ASSERT_FALSE(MImg.ProfileDiag.Issues.empty());
  EXPECT_EQ(MImg.ProfileDiag.Issues[0].Kind, ProfileError::ModeMismatch);

  // An incremental-id profile cannot drive heap-path matching.
  BuildConfig HCfg;
  HCfg.UseHeapOrder = true;
  HCfg.HeapOrder = HeapStrategy::HeapPath;
  HCfg.HeapProf = &C.Prof.IncrementalId;
  NativeImage HImg = buildNativeImage(C.P, HCfg);
  ASSERT_FALSE(HImg.Built.Failed);
  EXPECT_FALSE(HImg.ProfileDiag.HeapProfileApplied);
  ASSERT_FALSE(HImg.ProfileDiag.Issues.empty());
  EXPECT_EQ(HImg.ProfileDiag.Issues[0].Kind, ProfileError::StrategyMismatch);
}

TEST(FaultInjection, UnsupportedVersionIsRejectedLegacyAccepted) {
  // A future-versioned header (with a correct CRC, so only the version is
  // at fault) must be rejected with a typed error.
  std::string Payload = "Main.main()\n";
  char Header[128];
  std::snprintf(Header, sizeof(Header),
                "#nimg-profile,99,cu,-,0000000000000000,%08x\n",
                crc32(Payload));
  ProfileReadReport Report;
  CodeProfile P = CodeProfile::fromCsv(std::string(Header) + Payload, &Report);
  EXPECT_EQ(Report.Fatal, ProfileError::UnsupportedVersion);
  EXPECT_TRUE(P.Sigs.empty());

  // A malformed header row is BadHeader, not silently legacy.
  ProfileReadReport BadReport;
  CodeProfile Bad = CodeProfile::fromCsv("#nimg-profile,garbage\nA.b()\n",
                                         &BadReport);
  EXPECT_EQ(BadReport.Fatal, ProfileError::BadHeader);
  EXPECT_TRUE(Bad.Sigs.empty());

  // A legacy headerless file is accepted with an informational issue.
  ProfileReadReport LegacyReport;
  CodeProfile Legacy = CodeProfile::fromCsv("Main.main()\nShape.area()\n",
                                            &LegacyReport);
  EXPECT_TRUE(LegacyReport.usable());
  EXPECT_EQ(Legacy.Header.Version, 0u);
  ASSERT_EQ(Legacy.Sigs.size(), 2u);
  ASSERT_FALSE(LegacyReport.Issues.empty());
  EXPECT_EQ(LegacyReport.Issues[0].Kind, ProfileError::LegacyFormat);

  // And it still drives an optimizing build (no provenance to check).
  Corpus &C = corpus();
  BuildConfig Cfg;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeProf = &Legacy;
  NativeImage Img = buildNativeImage(C.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);
}

TEST(FaultInjection, MalformedHeapCellsAreSkippedNotUb) {
  // Non-numeric and overflowing id cells must be skipped with a typed
  // issue — the old strtoull path silently produced garbage ids.
  HeapProfile Template;
  Template.Header.Mode = TraceMode::HeapOrder;
  Template.Ids = {0x10, 0x20};
  std::string Payload = "10\nnot-a-number\nffffffffffffffff1\n20\n-5\n";
  char Header[128];
  std::snprintf(Header, sizeof(Header),
                "#nimg-profile,1,heap,path,0000000000000000,%08x\n",
                crc32(Payload));
  ProfileReadReport Report;
  HeapProfile P = HeapProfile::fromCsv(std::string(Header) + Payload, &Report);
  EXPECT_TRUE(Report.usable());
  EXPECT_EQ(P.Ids, (std::vector<uint64_t>{0x10, 0x20}));
  EXPECT_EQ(Report.RowsKept, 2u);
  EXPECT_EQ(Report.RowsSkipped, 3u);
  ASSERT_FALSE(Report.Issues.empty());
  EXPECT_EQ(Report.Issues[0].Kind, ProfileError::MalformedCell);
}

TEST(FaultInjection, EmptyCaptureRunsAreRetriedOnce) {
  // With no fuel, every instrumented run yields an empty capture; the
  // collector retries each once in the memory-mapped dump mode and still
  // completes with (empty) profiles instead of failing.
  Corpus &C = corpus();
  BuildConfig Cfg;
  Cfg.Seed = 1001;
  RunConfig RC;
  RC.MaxInstructions = 0;
  CollectedProfiles Prof = collectProfiles(C.P, Cfg, RC);
  // The cu-mode run records the main CU entry before the first fuel
  // check, so at least the method- and heap-mode runs are retried.
  EXPECT_GE(Prof.RetriedRuns, 2);
  EXPECT_LE(Prof.RetriedRuns, 3);
  EXPECT_TRUE(Prof.Method.Sigs.empty());
  EXPECT_TRUE(Prof.HeapPath.Ids.empty());
}

// The startup report is the post-mortem artifact for exactly these degraded
// pipelines, so it must remain valid, parseable JSON whatever the faults did.
TEST(FaultInjection, StartupReportStaysValidJsonWhenPipelineDegrades) {
  Corpus &C = corpus();
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << Seed);

    // Corrupt a pristine heap-mode capture, salvage it, and corrupt the cu
    // profile CSV too, so both the code and heap sides can degrade.
    TraceCapture Cap = C.Caps[size_t(TraceMode::HeapOrder)];
    FaultInjector Inj(Seed);
    Inj.applyTraceFault(Cap, Seed % 2 ? TraceFault::BitFlip
                                      : TraceFault::TruncateMidRecord);
    SalvageStats Stats;
    std::vector<int32_t> Order =
        analyzeHeapAccessOrder(C.P, Cap, C.Paths, &Stats);
    HeapProfile HeapProf =
        heapProfileFor(Order, C.InstrImg.Ids, HeapStrategy::HeapPath);
    HeapProf.Header.Fingerprint = C.Fp;

    std::string CsvText = C.Prof.Cu.toCsv();
    Inj.bitFlipText(CsvText, 1 + Inj.nextBelow(4));
    ProfileReadReport CsvReport;
    CodeProfile CodeProf = CodeProfile::fromCsv(CsvText, &CsvReport);

    BuildConfig Cfg;
    Cfg.Seed = 40 + Seed;
    Cfg.CodeOrder = CodeStrategy::CuOrder;
    Cfg.CodeProf = &CodeProf;
    Cfg.UseHeapOrder = true;
    Cfg.HeapOrder = HeapStrategy::HeapPath;
    Cfg.HeapProf = &HeapProf;
    NativeImage Img = buildNativeImage(C.P, Cfg);
    ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
    RunStats S = runImage(Img, RunConfig());
    EXPECT_FALSE(S.Trapped) << S.TrapMessage;

    obs::StartupReport Report;
    Report.Target = "fault-injected";
    Report.Command = "run";
    Report.setImage(Img);
    Report.setRun(S);
    Report.addSalvage("heap", Stats);
    Report.includeMetrics(true);

    // Whatever degraded, both export formats stay well-formed.
    std::string Json = Report.toJson();
    obs::JsonValue V;
    std::string Error;
    ASSERT_TRUE(obs::parseJson(Json, V, &Error)) << Error;
    const obs::JsonValue *Schema = V.at("schema");
    ASSERT_NE(Schema, nullptr);
    EXPECT_EQ(Schema->Str, "nimg-startup-report");
    const obs::JsonValue *TotalFaults = V.at("run.total_faults");
    ASSERT_NE(TotalFaults, nullptr);
    EXPECT_EQ(uint64_t(TotalFaults->Num), S.totalFaults());
    const obs::JsonValue *Diag = V.get("profile_diag");
    ASSERT_NE(Diag, nullptr);
    if (!CsvReport.usable()) {
      EXPECT_TRUE(Img.ProfileDiag.degraded());
      const obs::JsonValue *Degraded = Diag->get("degraded");
      ASSERT_NE(Degraded, nullptr);
      EXPECT_TRUE(Degraded->B);
      const obs::JsonValue *Issues = Diag->get("issues");
      ASSERT_NE(Issues, nullptr);
      ASSERT_FALSE(Issues->Arr.empty());
      const obs::JsonValue *Kind = Issues->Arr[0].get("kind");
      ASSERT_NE(Kind, nullptr);
      EXPECT_FALSE(Kind->Str.empty());
    }
    const obs::JsonValue *Sal = V.get("salvage");
    ASSERT_NE(Sal, nullptr);
    ASSERT_EQ(Sal->Arr.size(), 1u);
    const obs::JsonValue *Phase = Sal->Arr[0].get("phase");
    ASSERT_NE(Phase, nullptr);
    EXPECT_EQ(Phase->Str, "heap");
    const obs::JsonValue *Scanned = Sal->Arr[0].at("stats.words_scanned");
    ASSERT_NE(Scanned, nullptr);
    EXPECT_EQ(uint64_t(Scanned->Num), Stats.WordsScanned);

    std::string Csv = Report.toCsv();
    EXPECT_NE(Csv.find("run,total_faults,"), std::string::npos);
    EXPECT_NE(Csv.find("image,build_failed,false"), std::string::npos);
  }
}

// Hot/cold splitting consumes the same method-order captures as method
// ordering; block profiles derived from faulted traces must either drive a
// completed split build or degrade every CU to unsplit with a typed
// insufficient_block_profile issue — never crash, never fail the build.
TEST(FaultInjection, SplitBuildsSurviveTraceFaults) {
  Corpus &C = corpus();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    for (TraceFault Kind : {TraceFault::TruncateMidRecord, TraceFault::BitFlip,
                            TraceFault::DropThread}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << Seed << " fault=" << int(Kind));
      TraceCapture Cap = C.Caps[size_t(TraceMode::MethodOrder)];
      FaultInjector Inj(Seed);
      Inj.applyTraceFault(Cap, Kind);

      SalvageStats Stats;
      BlockProfile Blocks = analyzeBlockCounts(C.P, Cap, C.Paths, &Stats);
      Blocks.Header.Fingerprint = C.Fp;

      BuildConfig Cfg;
      Cfg.Seed = 9 + Seed;
      Cfg.Split = SplitMode::HotCold;
      Cfg.BlockProf = &Blocks;
      NativeImage Img = buildNativeImage(C.P, Cfg);
      ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
      EXPECT_TRUE(Img.Split.active());

      if (Blocks.CoveragePermille < SplitOptions().MinCoveragePermille) {
        // Under-covered counts degrade wholesale: no CU splits and the
        // reason is recorded on the image's diagnostics.
        EXPECT_EQ(Img.Split.SplitCus, 0u);
        EXPECT_EQ(Img.Split.DegradedCus, uint32_t(Img.code().CUs.size()));
        EXPECT_FALSE(Img.ProfileDiag.BlockProfileApplied);
        bool SawSlug = false;
        for (const ProfileIssue &I : Img.ProfileDiag.Issues)
          SawSlug |= I.Kind == ProfileError::InsufficientBlockProfile;
        EXPECT_TRUE(SawSlug);
      }
      // Split or degraded, the fragment accounting never loses bytes.
      for (size_t Cu = 0; Cu < Img.Split.PerCu.size(); ++Cu) {
        const CuSplit &S = Img.Split.PerCu[Cu];
        EXPECT_EQ(uint64_t(S.HotSize) + S.ColdSize,
                  uint64_t(Img.code().CUs[Cu].CodeSize) + S.StubBytes);
      }

      if (Seed % 4 == 0) {
        RunStats S = runImage(Img, RunConfig());
        EXPECT_FALSE(S.Trapped) << S.TrapMessage;
        EXPECT_EQ(S.Output, C.BaselineOutput);
        EXPECT_LE(S.TextColdFaults, S.TextFaults);
      }
    }
  }
}

TEST(FaultInjection, CollectedProfilesFromCleanRunsSalvageClean) {
  Corpus &C = corpus();
  EXPECT_TRUE(C.Prof.CuSalvage.clean());
  EXPECT_TRUE(C.Prof.MethodSalvage.clean());
  EXPECT_TRUE(C.Prof.HeapSalvage.clean());
  EXPECT_EQ(C.Prof.RetriedRuns, 0);
}

// A compile worker throwing mid-build must not deadlock or fail the build:
// the victim unit degrades to root-only with a recorded WorkerFault issue,
// the run still produces the baseline output, and degradation stays
// deterministic across worker counts.
TEST(FaultInjection, WorkerFaultDegradesBuildDeterministically) {
  Corpus &C = corpus();
  MethodId Victim = C.P.MainMethod;
  setCompileFaultHookForTest(
      [Victim](MethodId Root) { return Root == Victim; });

  auto BuildFaulted = [&](int Jobs) {
    setJobs(Jobs);
    BuildConfig Cfg;
    Cfg.Seed = 2;
    return buildNativeImage(C.P, Cfg);
  };

  NativeImage Img = BuildFaulted(4);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  ASSERT_EQ(Img.code().CompileFaults.size(), 1u);
  EXPECT_EQ(Img.code().CompileFaults[0].first, Victim);
  // The degraded unit holds only its root: every inlining decision of the
  // faulted task was discarded.
  EXPECT_EQ(Img.code().cuOf(Victim).Copies.size(), 1u);

  bool SawWorkerFault = false;
  for (const ProfileIssue &I : Img.ProfileDiag.Issues)
    SawWorkerFault |= I.Kind == ProfileError::WorkerFault;
  EXPECT_TRUE(SawWorkerFault);

  // The image still runs the workload to completion with correct output.
  RunStats S = runImage(Img, RunConfig());
  EXPECT_FALSE(S.Trapped) << S.TrapMessage;
  EXPECT_EQ(S.Output, C.BaselineOutput);

  // Degradation itself is deterministic: 1 worker and 8 workers produce
  // byte-identical images under the same injected fault.
  NativeImage One = BuildFaulted(1);
  NativeImage Eight = BuildFaulted(8);
  ASSERT_FALSE(One.Built.Failed);
  ASSERT_FALSE(Eight.Built.Failed);
  EXPECT_EQ(serializeImage(C.P, One), serializeImage(C.P, Eight));

  setCompileFaultHookForTest(nullptr);
  setJobs(0);

  // With the hook cleared the same config builds clean again.
  BuildConfig CleanCfg;
  CleanCfg.Seed = 2;
  NativeImage Clean = buildNativeImage(C.P, CleanCfg);
  EXPECT_TRUE(Clean.code().CompileFaults.empty());
}

//===----------------------------------------------------------------------===//
// Fleet-merge fault matrix: every MemberFault kind injected at every
// member position of an 8-member profile set. The aggregate must always
// drive a *completed* build; semantic faults must be quarantined with
// their exact typed reason (mechanical faults' reasons depend on where
// the damage lands, but the member never survives unnoticed).
//===----------------------------------------------------------------------===//

namespace {

/// The corpus cu profile re-stamped to generation \p Gen and renamed — a
/// clean fleet member as one instance would have uploaded it.
std::string stampedCuCsv(Corpus &C, uint64_t Gen) {
  CodeProfile P = C.Prof.Cu;
  P.Header.Generation = Gen;
  return P.toCsv();
}

/// Builds the 8-member set (generations 100..107), faults the member at
/// \p FaultPos with \p Kind under \p Seed, and returns the loaded set.
std::vector<MemberProfile> faultedMemberSet(Corpus &C, uint64_t Seed,
                                            MemberFault Kind,
                                            size_t FaultPos) {
  const uint64_t BaseGen = 100, NewestGen = 107;
  std::vector<MemberProfile> Members;
  FaultInjector Inj(Seed);
  for (size_t I = 0; I < 8; ++I) {
    std::string Text = stampedCuCsv(C, BaseGen + I);
    if (I == FaultPos)
      EXPECT_TRUE(Inj.applyMemberFault(Text, Kind, NewestGen));
    Members.push_back(
        loadMemberProfile("inst" + std::to_string(I), Text));
  }
  return Members;
}

} // namespace

TEST(FaultInjection, MergeMemberFaultMatrixAlwaysBuilds) {
  Corpus &C = corpus();
  for (MemberFault Kind : AllMemberFaults) {
    for (size_t Pos = 0; Pos < 8; ++Pos) {
      uint64_t Seed = 17 + uint64_t(Kind) * 8 + Pos;
      SCOPED_TRACE(::testing::Message()
                   << "kind=" << int(Kind) << " pos=" << Pos
                   << " seed=" << Seed);
      std::vector<MemberProfile> Members =
          faultedMemberSet(C, Seed, Kind, Pos);

      BuildConfig Cfg;
      Cfg.Seed = 3;
      Cfg.CodeOrder = CodeStrategy::CuOrder;
      Cfg.CodeMembers = &Members;
      NativeImage Img = buildNativeImage(C.P, Cfg);
      ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;

      const MergeManifest &M = Img.ProfileDiag.Merge;
      ASSERT_EQ(M.Members.size(), 8u);
      EXPECT_NE(M.Outcome, MergeOutcome::NotAttempted);
      const MergeMemberReport &R = M.Members[Pos];

      // Semantic kinds carry a fresh CRC, so only their dedicated gate
      // can (and must) name them.
      switch (Kind) {
      case MemberFault::VersionSkew:
        EXPECT_EQ(R.Status, MergeMemberStatus::Quarantined);
        EXPECT_EQ(R.Reason, ProfileError::FingerprintMismatch);
        break;
      case MemberFault::StaleGeneration:
        EXPECT_EQ(R.Status, MergeMemberStatus::Quarantined);
        EXPECT_EQ(R.Reason, ProfileError::StaleGeneration);
        break;
      case MemberFault::DriftSkew:
        EXPECT_EQ(R.Status, MergeMemberStatus::Quarantined);
        EXPECT_EQ(R.Reason, ProfileError::DriftOutlier);
        break;
      case MemberFault::CoverageCollapse:
        EXPECT_EQ(R.Status, MergeMemberStatus::Quarantined);
        EXPECT_EQ(R.Reason, ProfileError::CoverageBelowGate);
        break;
      case MemberFault::AbsurdPeriod:
        EXPECT_EQ(R.Status, MergeMemberStatus::Quarantined);
        EXPECT_EQ(R.Reason, ProfileError::ImplausibleSamplePeriod);
        break;
      case MemberFault::TruncateCsv:
      case MemberFault::BitFlipCsv:
        // Where the mechanical damage lands picks the reason (BadHeader,
        // ChecksumMismatch, ...); it must never pass as fully accepted
        // *unless* the flip landed in a cell the gates legitimately
        // re-derive (then the set still merges).
        break;
      }

      // The other 7 members survive every single-member fault. (A bit
      // flip *can* legitimately implicate others — e.g. inflating the
      // victim's generation stamp makes the rest look stale — so the
      // cross-member claim is only made for the targeted kinds.)
      size_t LiveOthers = 0;
      for (size_t I = 0; I < 8; ++I)
        if (I != Pos && M.Members[I].Status != MergeMemberStatus::Quarantined)
          ++LiveOthers;
      if (Kind != MemberFault::BitFlipCsv) {
        EXPECT_EQ(LiveOthers, 7u);
        EXPECT_EQ(M.Outcome, MergeOutcome::Merged);
        EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);
      }

      // Seed-determinism: replaying the same scenario (and the build's
      // ExpectedFingerprint) reproduces the classification bit-for-bit.
      std::vector<MemberProfile> Replay =
          faultedMemberSet(C, Seed, Kind, Pos);
      MergeOptions MOpts;
      MOpts.ExpectedFingerprint = C.Fp;
      MergeResult MR = aggregateProfiles(Replay, MOpts);
      EXPECT_EQ(MR.Manifest.Members[Pos].Status, R.Status);
      EXPECT_EQ(MR.Manifest.Members[Pos].Reason, R.Reason);
    }
  }
}

// The acceptance bar from the issue: 8 members, 7 of them damaged, must
// still produce a successful build with every quarantine visible as a
// typed reason in the startup report.
TEST(FaultInjection, SevenOfEightCorruptMembersStillBuild) {
  Corpus &C = corpus();
  // Deterministically-quarantined kinds only: each faulted member must be
  // *caught*, leaving exactly the one clean member.
  const MemberFault Kinds[] = {
      MemberFault::TruncateCsv, MemberFault::VersionSkew,
      MemberFault::StaleGeneration, MemberFault::CoverageCollapse};
  FaultInjector Inj(99);
  std::vector<MemberProfile> Members;
  for (size_t I = 0; I < 8; ++I) {
    std::string Text = stampedCuCsv(C, 100 + I);
    if (I != 3) // Member 3 stays clean.
      ASSERT_TRUE(Inj.applyMemberFault(Text, Kinds[I % 4], 107));
    Members.push_back(loadMemberProfile("inst" + std::to_string(I), Text));
  }

  BuildConfig Cfg;
  Cfg.Seed = 3;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeMembers = &Members;
  NativeImage Img = buildNativeImage(C.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  EXPECT_EQ(Img.ProfileDiag.Merge.Outcome, MergeOutcome::BestSingle);
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);
  EXPECT_EQ(Img.ProfileDiag.Merge.countWithStatus(
                MergeMemberStatus::Quarantined),
            7u);

  // The image still runs the workload with baseline output.
  RunStats S = runImage(Img, RunConfig());
  EXPECT_FALSE(S.Trapped) << S.TrapMessage;
  EXPECT_EQ(S.Output, C.BaselineOutput);

  // Every quarantined member shows up in the report with a typed reason.
  obs::StartupReport Report;
  Report.Target = "fleet";
  Report.Command = "build";
  Report.setImage(Img);
  obs::JsonValue V;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Report.toJson(), V, &Error)) << Error;
  const obs::JsonValue *Merge = V.get("merge");
  ASSERT_NE(Merge, nullptr);
  EXPECT_EQ(Merge->get("outcome")->Str, "best_single");
  EXPECT_EQ(uint64_t(Merge->get("quarantined")->Num), 7u);
  const obs::JsonValue *Manifest = Merge->get("manifest");
  ASSERT_NE(Manifest, nullptr);
  ASSERT_EQ(Manifest->Arr.size(), 8u);
  size_t TypedReasons = 0;
  for (const obs::JsonValue &Row : Manifest->Arr) {
    const obs::JsonValue *Status = Row.get("status");
    ASSERT_NE(Status, nullptr);
    if (Status->Str == "quarantined") {
      const obs::JsonValue *Reason = Row.get("reason");
      ASSERT_NE(Reason, nullptr);
      EXPECT_FALSE(Reason->Str.empty());
      ++TypedReasons;
    }
  }
  EXPECT_EQ(TypedReasons, 7u);
}

TEST(FaultInjection, AllCorruptMembersFallBackAndStillBuild) {
  Corpus &C = corpus();
  // Only kinds quarantined by per-input evidence: StaleGeneration is
  // *relative* — a fleet where everyone is equally ancient is legitimate
  // and would survive, which is not the ladder bottom this test wants.
  const MemberFault Kinds[] = {
      MemberFault::TruncateCsv, MemberFault::VersionSkew,
      MemberFault::CoverageCollapse, MemberFault::AbsurdPeriod};
  FaultInjector Inj(7);
  std::vector<MemberProfile> Members;
  for (size_t I = 0; I < 8; ++I) {
    std::string Text = stampedCuCsv(C, 100 + I);
    ASSERT_TRUE(Inj.applyMemberFault(Text, Kinds[I % 4], 107));
    Members.push_back(loadMemberProfile("inst" + std::to_string(I), Text));
  }
  BuildConfig Cfg;
  Cfg.Seed = 3;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeMembers = &Members;
  NativeImage Img = buildNativeImage(C.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  EXPECT_FALSE(Img.ProfileDiag.CodeProfileApplied);
  EXPECT_TRUE(Img.ProfileDiag.degraded());

  // Fallback still runs correctly on the default layout.
  RunStats S = runImage(Img, RunConfig());
  EXPECT_FALSE(S.Trapped) << S.TrapMessage;
  EXPECT_EQ(S.Output, C.BaselineOutput);
}

// The mid-write-kill scenario the atomic writer exists for: a profile
// artifact overwrite that dies partway must leave the previous artifact
// ingestible — the fleet never quarantines a member because the *writer*
// crashed.
TEST(FaultInjection, MidWriteKillLeavesPreviousProfileIngestible) {
  Corpus &C = corpus();
  namespace fs = std::filesystem;
  fs::path Path = fs::temp_directory_path() / "nimg_fault_cu.csv";
  fs::remove(Path);

  std::string Old = stampedCuCsv(C, 100);
  ASSERT_TRUE(atomicWriteFile(Path.string(), Old));

  // The rewrite is killed after a handful of bytes.
  std::string New = stampedCuCsv(C, 101);
  setAtomicWriteTruncationForTest(16);
  EXPECT_FALSE(atomicWriteFile(Path.string(), New));
  EXPECT_FALSE(fs::exists(Path.string() + ".tmp"));

  // The survivor is the *old complete* profile, and it ingests cleanly.
  std::vector<MemberProfile> Members =
      loadMemberProfiles({Path.string()});
  ASSERT_EQ(Members.size(), 1u);
  EXPECT_EQ(Members[0].Profile.LoadError, ProfileError::None);
  EXPECT_EQ(Members[0].Profile.Header.Generation, 100u);

  MergeResult R = aggregateProfiles(Members);
  EXPECT_EQ(R.Manifest.Outcome, MergeOutcome::BestSingle);
  EXPECT_EQ(R.Manifest.Members[0].Status, MergeMemberStatus::Accepted);
  fs::remove(Path);
}

// A sampled upload cut off mid-payload (the uploader died between row
// writes) is not thrown away: the CRC mismatch downgrades to a row-prefix
// salvage, and the surviving prefix still rides along in a sampled fleet
// merge that drives a completed build.
TEST(FaultInjection, TruncatedSampledUploadSalvagesToUsablePrefix) {
  Corpus &C = corpus();
  CodeProfile Samp =
      analyzeSampledCuOrder(C.P, C.Caps[size_t(TraceMode::Sampled)]);
  ASSERT_EQ(Samp.LoadError, ProfileError::None);
  ASSERT_GT(Samp.Sigs.size(), 1u);
  Samp.Header.Fingerprint = C.Fp;
  auto StampedCsv = [&](uint64_t Gen) {
    CodeProfile P = Samp;
    P.Header.Generation = Gen;
    return P.toCsv();
  };

  // Cut away the final payload row: the header CRC no longer matches, but
  // every surviving row is intact.
  std::string Cut = StampedCsv(107);
  size_t LastRow = Cut.rfind('\n', Cut.size() - 2);
  ASSERT_NE(LastRow, std::string::npos);
  Cut.resize(LastRow + 1);

  MemberProfile Victim = loadMemberProfile("inst7", Cut);
  EXPECT_EQ(Victim.Profile.LoadError, ProfileError::None);
  EXPECT_TRUE(Victim.Read.usable());
  EXPECT_TRUE(Victim.Read.PrefixSalvaged);
  EXPECT_EQ(Victim.Profile.Sigs.size(), Samp.Sigs.size() - 1);

  std::vector<MemberProfile> Members;
  for (size_t I = 0; I < 7; ++I)
    Members.push_back(
        loadMemberProfile("inst" + std::to_string(I), StampedCsv(100 + I)));
  Members.push_back(Victim);

  BuildConfig Cfg;
  Cfg.Seed = 3;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeMembers = &Members;
  NativeImage Img = buildNativeImage(C.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;

  const MergeManifest &M = Img.ProfileDiag.Merge;
  ASSERT_EQ(M.Members.size(), 8u);
  EXPECT_EQ(M.Outcome, MergeOutcome::Merged);
  EXPECT_EQ(M.Members[7].Status, MergeMemberStatus::Salvaged);
  EXPECT_EQ(M.Members[7].Reason, ProfileError::ChecksumMismatch);
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);

  // The salvaged-prefix image still runs the workload to baseline output.
  RunStats S = runImage(Img, RunConfig());
  EXPECT_FALSE(S.Trapped) << S.TrapMessage;
  EXPECT_EQ(S.Output, C.BaselineOutput);
}
