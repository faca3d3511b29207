//===- FleetTest.cpp - Fleet serving simulator correctness ------------------===//
//
// The COW-cache correctness contract of src/fleet/: a 1-instance fleet
// reproduces the single-run PagingSim byte for byte (fault count AND
// modeled time) for every layout strategy; fleet results are deterministic
// across seeds and worker counts; warm sharing and capacity thrash behave
// as modeled; the arrival generator is seeded and sorted; the hoisted
// CostModel matches what ExecEngine charges; and the startup report's
// fleet section round-trips through the JSON parser. This binary carries
// the "fleet" ctest label (plus "tsan" for the sanitizer lane).
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/fleet/FleetCache.h"
#include "src/fleet/FleetSim.h"
#include "src/lang/Compile.h"
#include "src/obs/Json.h"
#include "src/obs/StartupReport.h"
#include "src/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

using namespace nimg;

namespace {

/// A workload big enough to span multiple text pages with a cold tail:
/// NumClasses classes of four methods each, where only every third class
/// is ever called.
std::string syntheticWorkload(int NumClasses) {
  std::string Src;
  for (int C = 0; C < NumClasses; ++C) {
    std::string Name = "Gen" + std::to_string(C);
    Src += "class " + Name + " {\n";
    Src += "  static String blob = \"class-" + std::to_string(C) +
           " payload payload payload payload payload payload\";\n";
    for (int M = 0; M < 6; ++M) {
      std::string MN = "m" + std::to_string(M);
      Src += "  static int " + MN + "(int x) {\n"
             "    int acc = x + " + std::to_string(C * 31 + M) + ";\n";
      for (int S = 0; S < 8; ++S)
        Src += "    acc = acc * 3 + (acc / " + std::to_string(S + 2) +
               ") - " + std::to_string(C * 97 + S) + ";\n";
      Src += "    for (int i = 0; i < 7; i = i + 1) { acc = acc + i * x; }\n"
             "    return acc;\n  }\n";
    }
    Src += "}\n";
  }
  Src += "class Main {\n  static int main() {\n    int t = 0;\n";
  for (int C = 0; C < NumClasses; C += 3)
    for (int M = 0; M < 6; ++M)
      Src += "    t = t + Gen" + std::to_string(C) + ".m" +
             std::to_string(M) + "(" + std::to_string(C + M) + ");\n";
  Src += "    Sys.print(\"t=\" + t);\n    return t;\n  }\n}\n";
  return Src;
}

struct Env {
  Program P;
  CollectedProfiles Prof;

  Env() {
    std::vector<std::string> Errors;
    bool Ok = compileSources({syntheticWorkload(48)}, P, Errors);
    EXPECT_TRUE(Ok);
    for (auto &E : Errors)
      ADD_FAILURE() << E;
    BuildConfig ProfCfg;
    ProfCfg.Seed = 1001;
    Prof = collectProfiles(P, ProfCfg, RunConfig());
  }

  NativeImage build(CodeStrategy Code, bool Split) {
    BuildConfig Cfg;
    Cfg.Seed = 1;
    Cfg.CodeOrder = Code;
    Cfg.CodeProf = Code == CodeStrategy::CuOrder
                       ? &Prof.Cu
                       : Code == CodeStrategy::MethodOrder ? &Prof.Method
                                                          : &Prof.Cluster;
    if (Split) {
      Cfg.Split = SplitMode::HotCold;
      Cfg.BlockProf = &Prof.Blocks;
    }
    NativeImage Img = buildNativeImage(P, Cfg);
    EXPECT_FALSE(Img.Built.Failed);
    return Img;
  }
};

/// Demand-fault every page so layout differences are visible and the
/// replay trace is dense.
RunConfig demandRun() {
  RunConfig Run;
  Run.Paging.ReadaheadPages = 1;
  return Run;
}

} // namespace

//===----------------------------------------------------------------------===//
// The N=1 anchor: a 1-instance fleet IS the single run.
//===----------------------------------------------------------------------===//

TEST(FleetSim, OneInstanceEqualsSingleRunForEveryStrategy) {
  Env E;
  struct Variant {
    CodeStrategy Code;
    bool Split;
  };
  const Variant Variants[] = {
      {CodeStrategy::CuOrder, false},
      {CodeStrategy::MethodOrder, false},
      {CodeStrategy::Cluster, false},
      {CodeStrategy::Cluster, true},
  };
  for (const Variant &V : Variants) {
    SCOPED_TRACE(::testing::Message()
                 << "code=" << int(V.Code) << " split=" << V.Split);
    NativeImage Img = E.build(V.Code, V.Split);
    RunConfig Run = demandRun();
    RunStats Single = runImage(Img, Run);
    ASSERT_FALSE(Single.Trapped) << Single.TrapMessage;

    FleetConfig FC;
    FC.Instances = 1;
    RunStats Ref;
    FleetResult FR = runFleet(Img, Run, FC, &Ref);

    // Fault counts byte-for-byte, and the modeled p50 equals the single
    // run's TimeNs exactly (the cost sums are integer-exact in double).
    EXPECT_EQ(FR.TotalMajors, Single.totalFaults());
    EXPECT_EQ(FR.ReferenceFaults, Single.totalFaults());
    EXPECT_EQ(FR.UniquePages, Single.totalFaults());
    EXPECT_EQ(FR.TotalWarmHits, 0u);
    EXPECT_EQ(FR.P50Ns, Single.TimeNs);
    EXPECT_EQ(FR.P99Ns, Single.TimeNs);
    EXPECT_EQ(FR.ReferenceTimeNs, Single.TimeNs);
    EXPECT_EQ(Ref.totalFaults(), Single.totalFaults());
    EXPECT_EQ(Ref.Output, Single.Output);
  }
}

TEST(FleetSim, OneInstanceStaysExactUnderTinyCache) {
  // The first-touch trace touches each demand page once, so capacity
  // eviction can never force a re-fault at N=1: exactness must survive
  // even a minimal cache.
  Env E;
  NativeImage Img = E.build(CodeStrategy::Cluster, true);
  RunConfig Run = demandRun();
  RunStats Single = runImage(Img, Run);

  FleetConfig FC;
  FC.Instances = 1;
  FC.CachePages = 2;
  FleetResult FR = runFleet(Img, Run, FC);
  EXPECT_EQ(FR.TotalMajors, Single.totalFaults());
  EXPECT_EQ(FR.P50Ns, Single.TimeNs);
  EXPECT_GT(FR.Evictions, 0u);
}

TEST(FleetSim, OneInstanceStaysExactWithHugePages) {
  // The anchor must hold at any page-size mix: per-fault accumulation of
  // majorFaultNs(native size) equals the single run's multiplied formula
  // because both cost values are integer-valued doubles.
  Env E;
  BuildConfig Cfg;
  Cfg.Seed = 1;
  Cfg.CodeOrder = CodeStrategy::Cluster;
  Cfg.CodeProf = &E.Prof.Cluster;
  Cfg.Image.HugePages = 1;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);
  ASSERT_GT(Img.Layout.HugePages, 0u);

  RunConfig Run = demandRun();
  RunStats Single = runImage(Img, Run);
  ASSERT_GT(Single.TextHugeFaults, 0u);

  FleetConfig FC;
  FC.Instances = 1;
  RunStats Ref;
  FleetResult FR = runFleet(Img, Run, FC, &Ref);
  EXPECT_EQ(FR.TotalMajors, Single.totalFaults());
  EXPECT_EQ(FR.ReferenceFaults, Single.totalFaults());
  EXPECT_EQ(FR.TotalWarmHits, 0u);
  EXPECT_EQ(FR.P50Ns, Single.TimeNs);
  EXPECT_EQ(FR.P99Ns, Single.TimeNs);
  EXPECT_EQ(Ref.TextHugeFaults, Single.TextHugeFaults);
}

//===----------------------------------------------------------------------===//
// Determinism: seeds and worker counts.
//===----------------------------------------------------------------------===//

TEST(FleetSim, ByteIdenticalAcrossJobs) {
  Env E;
  FleetConfig FC;
  FC.Instances = 16;
  FC.ArrivalWindowNs = 5e6;

  uint64_t Majors = 0, Warm = 0;
  double P50 = 0, P99 = 0, Mean = 0;
  const int JobsLadder[] = {1, 2, 5, 8};
  for (size_t I = 0; I < 4; ++I) {
    setJobs(JobsLadder[I]);
    NativeImage Img = E.build(CodeStrategy::Cluster, true);
    FleetResult FR = runFleet(Img, demandRun(), FC);
    if (I == 0) {
      Majors = FR.TotalMajors;
      Warm = FR.TotalWarmHits;
      P50 = FR.P50Ns;
      P99 = FR.P99Ns;
      Mean = FR.MeanNs;
      EXPECT_GT(Warm, 0u);
    } else {
      SCOPED_TRACE(::testing::Message() << "jobs=" << JobsLadder[I]);
      EXPECT_EQ(FR.TotalMajors, Majors);
      EXPECT_EQ(FR.TotalWarmHits, Warm);
      // Bit-equal doubles, not approximate: the whole pipeline must be
      // order-independent.
      EXPECT_EQ(FR.P50Ns, P50);
      EXPECT_EQ(FR.P99Ns, P99);
      EXPECT_EQ(FR.MeanNs, Mean);
    }
  }
  setJobs(0);
}

TEST(FleetSim, SeedChangesArrivalsButNotColdPageEconomy) {
  Env E;
  NativeImage Img = E.build(CodeStrategy::CuOrder, false);
  RunConfig Run = demandRun();
  RunConfig RefCfg = Run;
  RefCfg.RecordTouches = true;
  RunStats Ref = runImage(Img, RefCfg);

  FleetConfig FC;
  FC.Instances = 24;
  FC.ArrivalWindowNs = 8e6;
  FleetResult A = simulateFleet(Ref, Img.Layout.TextSize, Img.Layout.HeapSize,
                                Run.Paging, Run.Cost, FC);
  FleetResult B = simulateFleet(Ref, Img.Layout.TextSize, Img.Layout.HeapSize,
                                Run.Paging, Run.Cost, FC);
  // Same seed: everything identical.
  EXPECT_EQ(A.TotalMajors, B.TotalMajors);
  EXPECT_EQ(A.P99Ns, B.P99Ns);
  EXPECT_EQ(A.MeanNs, B.MeanNs);

  FC.Seed = 99;
  FleetResult C = simulateFleet(Ref, Img.Layout.TextSize, Img.Layout.HeapSize,
                                Run.Paging, Run.Cost, FC);
  // Different seed: arrivals move, but with an unlimited cache each page
  // majors exactly once fleet-wide and every instance replays the same
  // trace — so the fleet-wide page economy is seed-invariant.
  EXPECT_EQ(C.TotalMajors, A.TotalMajors);
  EXPECT_EQ(C.UniquePages, A.UniquePages);
  EXPECT_EQ(C.TotalMajors + C.TotalWarmHits, A.TotalMajors + A.TotalWarmHits);
  EXPECT_EQ(C.Evictions, 0u);
}

//===----------------------------------------------------------------------===//
// Warm sharing and capacity thrash.
//===----------------------------------------------------------------------===//

TEST(FleetSim, SecondInstanceRidesWarmPages) {
  Env E;
  NativeImage Img = E.build(CodeStrategy::Cluster, false);
  FleetConfig FC;
  FC.Instances = 2;
  FC.ArrivalWindowNs = 1e6;

  FleetResult FR = runFleet(Img, demandRun(), FC);
  // With an unlimited cache every demand page majors exactly once
  // fleet-wide; both instances touch the full set, so warm hits equal
  // majors and the ratio is exactly one half.
  EXPECT_EQ(FR.TotalMajors, FR.UniquePages);
  EXPECT_EQ(FR.TotalWarmHits, FR.TotalMajors);
  EXPECT_DOUBLE_EQ(FR.warmHitRatio(), 0.5);
  // The overlapping instances split the major bill (they leapfrog through
  // the trace), so both beat a lone cold start and neither exceeds it.
  EXPECT_LT(FR.P50Ns, FR.ReferenceTimeNs);
  EXPECT_LE(FR.P99Ns, FR.ReferenceTimeNs);
}

TEST(FleetSim, TinyCacheThrashesButUniquePagesHold) {
  Env E;
  NativeImage Img = E.build(CodeStrategy::CuOrder, false);
  FleetConfig Unlimited;
  Unlimited.Instances = 8;
  Unlimited.ArrivalWindowNs = 40e6; // Spread out: later arrivals find a
                                    // fully warm (or evicted) cache.
  FleetConfig Tiny = Unlimited;
  Tiny.CachePages = 4;

  FleetResult Free = runFleet(Img, demandRun(), Unlimited);
  FleetResult Thrash = runFleet(Img, demandRun(), Tiny);

  EXPECT_EQ(Free.Evictions, 0u);
  EXPECT_GT(Thrash.Evictions, 0u);
  // Thrash re-faults evicted pages: more majors than distinct pages, and
  // more than the unlimited cache pays.
  EXPECT_GT(Thrash.TotalMajors, Thrash.UniquePages);
  EXPECT_GT(Thrash.TotalMajors, Free.TotalMajors);
  // The distinct-page universe is a property of the trace, not the cache.
  EXPECT_EQ(Thrash.UniquePages, Free.UniquePages);
  // Event count is conserved: every demand touch is major or warm.
  EXPECT_EQ(Thrash.TotalMajors + Thrash.TotalWarmHits,
            Free.TotalMajors + Free.TotalWarmHits);
  // p99 is the fully-cold straggler's bill in BOTH runs (cold start is
  // service time, not queueing) — the thrash tax shows up in the mean and
  // median, where the unlimited cache hands later arrivals cheap starts.
  EXPECT_GT(Thrash.MeanNs, Free.MeanNs);
  EXPECT_GT(Thrash.P50Ns, Free.P50Ns);
}

//===----------------------------------------------------------------------===//
// Traffic generator.
//===----------------------------------------------------------------------===//

TEST(Traffic, ArrivalsAreSortedSeededAndInWindow) {
  for (ArrivalKind Kind :
       {ArrivalKind::Uniform, ArrivalKind::Poisson, ArrivalKind::Storm}) {
    SCOPED_TRACE(arrivalKindName(Kind));
    TrafficConfig Cfg;
    Cfg.Kind = Kind;
    Cfg.Instances = 200;
    Cfg.WindowNs = 1e7;
    std::vector<double> A = generateArrivals(Cfg);
    ASSERT_EQ(A.size(), 200u);
    EXPECT_TRUE(std::is_sorted(A.begin(), A.end()));
    EXPECT_GE(A.front(), 0.0);
    if (Kind != ArrivalKind::Poisson) // Poisson tail may pass the window.
      EXPECT_LE(A.back(), Cfg.WindowNs);

    std::vector<double> B = generateArrivals(Cfg);
    EXPECT_EQ(A, B);

    TrafficConfig Other = Cfg;
    Other.Seed = Cfg.Seed + 1;
    EXPECT_NE(generateArrivals(Other), A);
  }
}

TEST(Traffic, StormConcentratesArrivalsIntoBursts) {
  TrafficConfig Cfg;
  Cfg.Kind = ArrivalKind::Storm;
  Cfg.Instances = 400;
  Cfg.WindowNs = 1e8;
  Cfg.StormBursts = 4;
  std::vector<double> A = generateArrivals(Cfg);
  // Bursts sit a quarter-window apart with 2% jitter: every arrival lands
  // within 3% of one of the four burst centers, so the distinct "times"
  // rounded to a 10th of the spacing collapse to at most StormBursts
  // clusters.
  double Spacing = Cfg.WindowNs / 4.0;
  std::set<long> Clusters;
  for (double T : A)
    Clusters.insert(lround(T / Spacing));
  EXPECT_LE(Clusters.size(), 4u);
}

TEST(Traffic, KindNamesRoundTrip) {
  for (ArrivalKind Kind :
       {ArrivalKind::Uniform, ArrivalKind::Poisson, ArrivalKind::Storm}) {
    ArrivalKind Parsed;
    EXPECT_TRUE(parseArrivalKind(arrivalKindName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  ArrivalKind Parsed;
  EXPECT_FALSE(parseArrivalKind("bursty", Parsed));
}

//===----------------------------------------------------------------------===//
// CostModel: the hoisted constants are what ExecEngine charges.
//===----------------------------------------------------------------------===//

TEST(CostModel, MajorFaultCostMatchesLegacyConstantsAtBasePageSize) {
  CostModel C;
  EXPECT_DOUBLE_EQ(C.majorFaultNs(4096), C.FaultNs);
  EXPECT_DOUBLE_EQ(C.majorFaultNs(8192), C.FaultNs + 4.0 * C.TransferNsPerKiB);
  // Below-base page sizes never discount a fault.
  EXPECT_DOUBLE_EQ(C.majorFaultNs(1024), C.FaultNs);
}

TEST(CostModel, StartupFormulaReproducesRunStatsTime) {
  Env E;
  NativeImage Img = E.build(CodeStrategy::CuOrder, false);
  RunConfig Run = demandRun();
  RunStats S = runImage(Img, Run);
  EXPECT_EQ(S.TimeNs,
            Run.Cost.startupNs(S.Instructions, S.ProbeUnits, S.totalFaults()));
}

//===----------------------------------------------------------------------===//
// PagingSim eviction + first-touch recording primitives.
//===----------------------------------------------------------------------===//

TEST(PagingSim, EvictPageForcesRefault) {
  PagingConfig Cfg;
  Cfg.ReadaheadPages = 1;
  PagingSim Sim(4 * Cfg.PageSize, 0, Cfg);
  Sim.touch(ImageSection::Text, 0, 1);
  ASSERT_EQ(Sim.totalFaults(), 1u);
  ASSERT_EQ(Sim.residentPages(ImageSection::Text), 1u);

  EXPECT_TRUE(Sim.evictPage(ImageSection::Text, 0));
  EXPECT_EQ(Sim.residentPages(ImageSection::Text), 0u);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[0], PageState::Untouched);
  // Evicting an already-cold or out-of-range page is a no-op.
  EXPECT_FALSE(Sim.evictPage(ImageSection::Text, 0));
  EXPECT_FALSE(Sim.evictPage(ImageSection::Text, 999));

  Sim.touch(ImageSection::Text, 0, 1);
  EXPECT_EQ(Sim.totalFaults(), 2u);
  EXPECT_EQ(Sim.counters().EvictedPages, 1u);
}

TEST(PagingSim, FirstTouchTraceAccountsForEveryFault) {
  Env E;
  NativeImage Img = E.build(CodeStrategy::Cluster, true);
  RunConfig Run = demandRun();
  Run.RecordTouches = true;
  RunStats S = runImage(Img, Run);

  ASSERT_FALSE(S.Touches.empty());
  uint64_t FaultTouches = 0;
  std::set<std::pair<int, uint64_t>> Seen;
  uint64_t LastClock = 0;
  for (const PageTouch &T : S.Touches) {
    if (T.WasFault)
      ++FaultTouches;
    // Each (section, page) appears at most once, in nondecreasing model
    // clock order.
    EXPECT_TRUE(Seen.insert({int(T.Sec), T.Page}).second);
    EXPECT_GE(T.Clock, LastClock);
    LastClock = T.Clock;
  }
  EXPECT_EQ(FaultTouches, S.totalFaults());
}

//===----------------------------------------------------------------------===//
// FleetPageCache capacity clamp.
//===----------------------------------------------------------------------===//

TEST(FleetPageCache, CapacityIsClampedToReadaheadCluster) {
  PagingConfig Cfg; // Default readahead cluster (4 pages).
  FleetPageCache Cache(16 * Cfg.PageSize, 0, Cfg, 1);
  // One touch pulls a whole readahead cluster in; a capacity below the
  // cluster size would evict pages from the very cluster being faulted,
  // so the cache clamps instead of thrashing its own readahead.
  EXPECT_EQ(Cache.touchPage(ImageSection::Text, 0), FleetTouch::Major);
  EXPECT_EQ(Cache.touchPage(ImageSection::Text, 1), FleetTouch::WarmHit);
  EXPECT_EQ(Cache.evictions(), 0u);
}

//===----------------------------------------------------------------------===//
// The report's fleet section.
//===----------------------------------------------------------------------===//

TEST(FleetReport, FleetSectionRoundTripsThroughJson) {
  Env E;
  NativeImage Img = E.build(CodeStrategy::Cluster, true);
  FleetConfig FC;
  FC.Instances = 10;
  FC.ArrivalWindowNs = 2e6;
  RunStats Ref;
  FleetResult FR = runFleet(Img, demandRun(), FC, &Ref);

  obs::StartupReport Report;
  Report.Target = "fleet-workload";
  Report.Command = "run";
  Report.setRun(Ref);
  Report.setImage(Img);
  Report.setFleet(FR, FC);

  std::string Json = Report.toJson();
  obs::JsonValue V;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Json, V, &Error)) << Error;
  for (const char *Key :
       {"\"fleet\"", "\"instances\"", "\"arrivals\"", "\"warm_hit_permille\"",
        "\"cold_start_p50_ns\"", "\"cold_start_p99_ns\"", "\"unique_pages\"",
        "\"reference_faults\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;

  // CSV mirrors the same section.
  std::string Csv = Report.toCsv();
  EXPECT_NE(Csv.find("fleet,warm_hits,"), std::string::npos);
  EXPECT_NE(Csv.find("fleet,cold_start_p99_ns,"), std::string::npos);
}
