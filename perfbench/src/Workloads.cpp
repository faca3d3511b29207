//===- Workloads.cpp - The benchmark's three workloads ----------------------===//

#include "Workloads.h"

#include "src/core/Evaluation.h"
#include "src/fleet/FleetSim.h"
#include "src/image/ImageFile.h"
#include "src/support/SplitMix64.h"
#include "src/workloads/WorkloadSources.h"

#include <algorithm>

using namespace bench;
using namespace nimg;

namespace {

/// The paper's own strategies only (Sec. 4, 5 and the combined one of
/// Fig. 5). Beyond-paper strategies are deliberately absent, so pruning
/// them never touches the benchmark.
struct Variant {
  const char *Name;
  CodeStrategy Code;
  bool UseHeap;
  HeapStrategy Heap;
};
const Variant Variants[] = {
    {"baseline", CodeStrategy::None, false, HeapStrategy::HeapPath},
    {"cu", CodeStrategy::CuOrder, false, HeapStrategy::HeapPath},
    {"method", CodeStrategy::MethodOrder, false, HeapStrategy::HeapPath},
    {"incremental id", CodeStrategy::None, true, HeapStrategy::IncrementalId},
    {"structural hash", CodeStrategy::None, true,
     HeapStrategy::StructuralHash},
    {"heap path", CodeStrategy::None, true, HeapStrategy::HeapPath},
    {"cu+heap path", CodeStrategy::CuOrder, true, HeapStrategy::HeapPath},
};
constexpr uint8_t NumVariants = sizeof(Variants) / sizeof(Variants[0]);
constexpr uint8_t Baseline = 0;
constexpr uint8_t CuHeapPath = NumVariants - 1;

const uint32_t FleetSizes[] = {1, 10, 100, 1000};
constexpr uint32_t P99FleetSize = 100;
constexpr int ProfileSetMembers = 4;

/// A rung of the scale ladder: micronaut with \p Factor times each of its
/// class counts (controllers, services, repositories, workers and the
/// runtime-library prelude) and its resources. x4 has 1.3 MB of .text,
/// x10 3.0 MB and a 10 MB image file.
BenchmarkSpec rung(int Factor) {
  BenchmarkSpec Spec = microserviceBenchmark("micronaut");
  Spec.Name = "micronaut-x" + std::to_string(Factor);
  Spec.Sources = {somLibrarySource(), runtimePreludeSource(140 * Factor),
                  workloads::microserviceSource("micronaut", 60 * Factor,
                                                46 * Factor, 30 * Factor,
                                                3 * Factor)};
  return Spec;
}

/// layout_sweep's AWFY strata, cheapest last.
const std::vector<std::vector<std::string>> AwfyStrata = {
    {"Mandelbrot"},
    {"Havlak", "Richards"},
    {"Sieve", "CD", "NBody"},
    {"Towers", "DeltaBlue", "Permute"},
    {"Storage", "Bounce", "Queens"},
    {"List", "Json"},
};

/// Time axis of Sec. 7.1: end to end for AWFY, to first response for
/// microservices.
double timeOf(const RunStats &S, bool Microservice) {
  return Microservice && S.Responded ? S.TimeToFirstResponseNs : S.TimeNs;
}

RunConfig runConfigFor(const Subject &G) {
  RunConfig RC;
  RC.StopAtFirstResponse = G.Spec.Microservice;
  return RC;
}

BuildConfig configFor(const Variant &V, uint64_t Seed,
                      const CollectedProfiles &Prof) {
  BuildConfig C;
  C.Seed = Seed;
  C.CodeOrder = V.Code;
  if (V.Code == CodeStrategy::CuOrder)
    C.CodeProf = &Prof.Cu;
  else if (V.Code == CodeStrategy::MethodOrder)
    C.CodeProf = &Prof.Method;
  C.UseHeapOrder = V.UseHeap;
  if (V.UseHeap) {
    C.HeapOrder = V.Heap;
    C.HeapProf = &Prof.forStrategy(V.Heap);
  }
  return C;
}

/// The profiling build of a program whose optimized builds use
/// \p BuildSeed.
BuildConfig instrumentedConfig(uint64_t BuildSeed) {
  BuildConfig C;
  C.Seed = BuildSeed + 1000;
  return C;
}

/// A build whose offered profile was rejected would silently measure the
/// baseline layout under a strategy's name.
std::string checkBuild(const NativeImage &Img, const Variant &V) {
  if (Img.Built.Failed)
    return std::string("build failed: ") + Img.Built.FailureMessage;
  if (V.Code != CodeStrategy::None && !Img.ProfileDiag.CodeProfileApplied)
    return std::string(V.Name) + ": code profile not applied";
  if (V.UseHeap && !Img.ProfileDiag.HeapProfileApplied)
    return std::string(V.Name) + ": heap profile not applied";
  return "";
}

/// No run traps or exhausts its fuel, and every microservice responds.
std::string checkCompleted(const RunStats &S, const Subject &G) {
  if (S.Trapped)
    return G.Spec.Name + ": run trapped: " + S.TrapMessage;
  if (S.FuelExhausted)
    return G.Spec.Name + ": run exhausted its fuel";
  if (G.Spec.Microservice && !S.Responded)
    return G.Spec.Name + ": microservice never responded";
  return "";
}

/// ...and an optimized image prints exactly what the baseline printed.
std::string checkRun(const RunStats &S, const Subject &G) {
  std::string Err = checkCompleted(S, G);
  if (Err.empty() && S.Output != G.Reference.Output)
    Err = G.Spec.Name + ": output differs from the baseline image's";
  return Err;
}

RunStats tracedRun(const NativeImage &Img, const RunConfig &RC, Tracer &T) {
  Span S(T, "runtime.run");
  RunStats St = runImage(Img, RC);
  S.value("runtime.text_faults", double(St.TextFaults));
  S.value("runtime.heap_faults", double(St.HeapFaults));
  S.value("runtime.prefetched_pages", double(St.PrefetchedPages));
  S.value("runtime.instructions", double(St.Instructions));
  return St;
}

FleetConfig stormConfig(uint64_t ArrivalSeed) {
  // Four tight bursts across 20 ms, so instances of one burst overlap each
  // other's few-ms cold start (the fleet_storm geometry).
  FleetConfig FC;
  FC.Arrivals = ArrivalKind::Storm;
  FC.ArrivalWindowNs = 20e6;
  FC.StormBursts = 4;
  FC.Seed = ArrivalSeed;
  return FC;
}

/// Half the pages one instance major-faults: a shared cache that small
/// must evict during a storm.
uint64_t capBelowWorkingSet(const RunStats &Recorded, const ImageLayout &L,
                            const RunConfig &RC) {
  FleetResult FR = simulateFleet(Recorded, L.TextSize, L.HeapSize, RC.Paging,
                                 RC.Cost, FleetConfig());
  return std::max<uint64_t>(1, FR.UniquePages / 2);
}

/// The fleet sweep of one recorded run. At N = 1 the fleet must equal the
/// single run exactly, whatever the cache.
std::string fleetSweep(const RunStats &Recorded, const ImageLayout &L,
                       const RunConfig &RC, uint64_t Cap, uint64_t ArrivalSeed,
                       Tracer &T) {
  for (uint32_t N : FleetSizes) {
    for (uint64_t CachePages : {uint64_t(0), Cap}) {
      FleetConfig FC = stormConfig(ArrivalSeed);
      FC.Instances = N;
      FC.CachePages = CachePages;
      Span S(T, "fleet.sim");
      FleetResult FR = simulateFleet(Recorded, L.TextSize, L.HeapSize,
                                     RC.Paging, RC.Cost, FC);
      if (N == P99FleetSize && CachePages != 0) {
        S.value("fleet.majors", double(FR.TotalMajors));
        S.value("fleet.warm_hit_ratio", FR.warmHitRatio());
        S.value("fleet.evictions", double(FR.Evictions));
      }
      if (N == 1 && (FR.TotalMajors != Recorded.totalFaults() ||
                     FR.P50Ns != Recorded.TimeNs))
        return "fleet N=1 differs from the single run";
    }
  }
  return "";
}

const std::vector<std::string> &rowsOf(const CodeProfile &P) { return P.Sigs; }
const std::vector<uint64_t> &rowsOf(const HeapProfile &P) { return P.Ids; }

template <typename ProfileT>
std::string reload(const ProfileT &From, ProfileT &To, size_t &Bytes) {
  std::string Text = From.toCsv();
  Bytes += Text.size();
  ProfileReadReport Report;
  To = ProfileT::fromCsv(Text, &Report);
  if (To.LoadError != ProfileError::None)
    return std::string("csv reload failed: ") + profileErrorName(To.LoadError);
  if (Report.RowsSkipped != 0 || rowsOf(To) != rowsOf(From))
    return "csv reload lost rows";
  return "";
}

/// The CLI's disk interchange done in memory: every paper profile goes
/// through toCsv() and back, and must come back whole.
std::string csvRoundTrip(const CollectedProfiles &In, CollectedProfiles &Out,
                         Tracer &T) {
  Span S(T, "profiling.csv");
  size_t Bytes = 0;
  std::string Err;
  for (const std::string &E :
       {reload(In.Cu, Out.Cu, Bytes), reload(In.Method, Out.Method, Bytes),
        reload(In.IncrementalId, Out.IncrementalId, Bytes),
        reload(In.StructuralHash, Out.StructuralHash, Bytes),
        reload(In.HeapPath, Out.HeapPath, Bytes)})
    if (Err.empty())
      Err = E;
  S.value("profiling.csv_kb", double(Bytes) / 1024.0);
  return Err;
}

/// Captures a 4-member sampled cu profile set and merges it.
std::string captureAndMerge(Subject &G, uint64_t BuildSeed, Tracer &T) {
  BuildConfig C = instrumentedConfig(BuildSeed);
  C.ProfileCapture = CaptureKind::Sampled;
  C.ProfileGeneration = 1;
  std::vector<std::string> Names;
  for (int I = 0; I < ProfileSetMembers; ++I)
    Names.push_back("member" + std::to_string(I));
  std::vector<MemberProfile> Members;
  {
    Span S(T, "core.profile_set");
    Members = collectProfileSet(*G.P, C, runConfigFor(G), Names);
  }
  Span S(T, "profiling.aggregate");
  MergeOptions MO;
  MO.ExpectedFingerprint = programFingerprint(*G.P);
  MergeResult MR = aggregateProfiles(Members, MO);
  // Sampled members land as "salvaged" (their coverage is an estimate);
  // both accepted and salvaged members feed the merge, so both count.
  S.value("profiling.members_accepted_ratio",
          1.0 - double(MR.Manifest.countWithStatus(
                    MergeMemberStatus::Quarantined)) /
                    double(Members.size()));
  if (!MR.usable())
    return G.Spec.Name + ": every profile-set member was quarantined";
  return "";
}

} // namespace

bool bench::parseKind(const std::string &Name, Kind &Out) {
  if (Name == "layout_sweep")
    Out = Kind::LayoutSweep;
  else if (Name == "profile_capture")
    Out = Kind::ProfileCapture;
  else if (Name == "cold_start_storm")
    Out = Kind::ColdStartStorm;
  else
    return false;
  return true;
}

Workload::Workload(Kind K, uint64_t Seed, bool Smoke) : K(K) {
  SplitMix64 Rng(mix64(Seed, 0x6e696d67));
  BuildSeeds = {1 + Rng.nextBelow(1000), 1001 + Rng.nextBelow(1000)};
  ArrivalSeed = Rng.next();
  const std::vector<std::string> Macro = {"CD", "DeltaBlue", "Havlak", "Json",
                                          "Richards"};

  switch (K) {
  case Kind::LayoutSweep:
    // One program from each stratum of AWFY programs with similar op cost
    // and similar modeled startup. A plain 6-of-14 draw moves the op mix,
    // and with it every host metric, by ~15% from seed to seed; Mandelbrot
    // (3x the op cost and fleet p99 of any other) is a stratum of its own.
    for (const auto &Stratum : AwfyStrata)
      if (!Smoke || &Stratum == &AwfyStrata.back())
        Specs.push_back(
            awfyBenchmark(Stratum[Rng.nextBelow(Stratum.size())]));
    if (Smoke) {
      Specs.push_back(microserviceBenchmark("quarkus"));
    } else {
      for (const std::string &Name : microserviceNames())
        Specs.push_back(microserviceBenchmark(Name));
      Specs.push_back(rung(4));
    }
    break;
  case Kind::ProfileCapture:
    if (Smoke) {
      Specs.push_back(awfyBenchmark(Macro[Rng.nextBelow(Macro.size())]));
      Specs.push_back(microserviceBenchmark("quarkus"));
      break;
    }
    for (const std::string &Name : Macro)
      Specs.push_back(awfyBenchmark(Name));
    for (const std::string &Name : microserviceNames())
      Specs.push_back(microserviceBenchmark(Name));
    break;
  case Kind::ColdStartStorm:
    if (Smoke) {
      Specs.push_back(microserviceBenchmark("quarkus"));
      break;
    }
    for (const std::string &Name : microserviceNames())
      Specs.push_back(microserviceBenchmark(Name));
    Specs.push_back(rung(4));
    Specs.push_back(rung(10));
    break;
  }

  for (uint32_t S = 0; S < Specs.size(); ++S) {
    switch (K) {
    case Kind::LayoutSweep:
      for (uint8_t Seed = 0; Seed < BuildSeeds.size(); ++Seed)
        for (uint8_t V = 0; V < NumVariants; ++V)
          Cycle.push_back({S, V, Seed});
      break;
    case Kind::ProfileCapture:
      Cycle.push_back({S, CuHeapPath, 0});
      break;
    case Kind::ColdStartStorm:
      Cycle.push_back({S, Baseline, 0});
      Cycle.push_back({S, CuHeapPath, 0});
      break;
    }
  }
  Rng.shuffle(Cycle);
}

std::string Workload::describe() const {
  std::string Out = "programs=";
  for (size_t I = 0; I < Specs.size(); ++I)
    Out += (I ? "," : "") + Specs[I].Name;
  Out += " variants=";
  switch (K) {
  case Kind::LayoutSweep:
    for (uint8_t V = 0; V < NumVariants; ++V)
      Out += std::string(V ? "," : "") + Variants[V].Name;
    break;
  case Kind::ProfileCapture:
    Out += Variants[CuHeapPath].Name;
    break;
  case Kind::ColdStartStorm:
    Out += std::string(Variants[Baseline].Name) + "," +
           Variants[CuHeapPath].Name;
    break;
  }
  Out += " build_seeds=" + std::to_string(BuildSeeds[0]) + "," +
         std::to_string(BuildSeeds[1]);
  Out += " arrival_seed=" + std::to_string(ArrivalSeed);
  Out += " ops_per_cycle=" + std::to_string(Cycle.size());
  return Out;
}

std::string Workload::setup(Tracer &T) {
  Subjects.clear();
  for (const BenchmarkSpec &Spec : Specs) {
    Subject G;
    G.Spec = Spec;
    {
      Span S(T, "lang.compile");
      std::vector<std::string> Errors;
      G.P = compileBenchmark(Spec, Errors);
      if (!G.P)
        return Spec.Name + ": compile failed: " +
               (Errors.empty() ? "" : Errors.front());
    }
    RunConfig RC = runConfigFor(G);
    if (K != Kind::ProfileCapture) {
      Span S(T, "core.profile");
      G.Prof = collectProfiles(*G.P, instrumentedConfig(BuildSeeds[0]), RC);
      G.HasProf = true;
    }
    // Image 0 (baseline) is the output oracle; cold_start_storm also
    // prepares the cu+heap path image it loads.
    const uint8_t Images[] = {Baseline, CuHeapPath};
    bool Storm = K == Kind::ColdStartStorm;
    for (size_t I = 0; I < (Storm ? 2u : 1u); ++I) {
      const Variant &V = Variants[Images[I]];
      NativeImage Img;
      {
        Span S(T, "core.build");
        Img = buildNativeImage(*G.P, configFor(V, BuildSeeds[0], G.Prof));
      }
      if (std::string Err = checkBuild(Img, V); !Err.empty())
        return Spec.Name + ": " + Err;
      RunConfig Rec = RC;
      Rec.RecordTouches = Storm;
      RunStats St = tracedRun(Img, Rec, T);
      if (I == 0)
        G.Reference = St;
      if (std::string Err = checkRun(St, G); !Err.empty())
        return Err;
      if (!Storm)
        continue;
      {
        Span S(T, "image.serialize");
        G.File[I] = serializeImage(*G.P, Img);
        S.value("image.file_kb", double(G.File[I].size()) / 1024.0);
      }
      G.CapPages[I] = capBelowWorkingSet(St, Img.Layout, Rec);
      G.Recorded[I] = std::move(St);
    }
    Subjects.push_back(std::move(G));
  }
  return "";
}

std::string Workload::run(const Op &O, Tracer &T) {
  switch (K) {
  case Kind::LayoutSweep:
    return runLayoutOp(O, T);
  case Kind::ProfileCapture:
    return runProfileOp(O, T);
  case Kind::ColdStartStorm:
    return runStormOp(O, T);
  }
  return "unknown workload";
}

std::string Workload::runLayoutOp(const Op &O, Tracer &T) {
  Subject &G = Subjects[O.Subject];
  const Variant &V = Variants[O.Variant];
  NativeImage Img;
  {
    Span S(T, "core.build");
    Img = buildNativeImage(*G.P, configFor(V, BuildSeeds[O.Seed], G.Prof));
  }
  if (std::string Err = checkBuild(Img, V); !Err.empty())
    return G.Spec.Name + ": " + Err;
  return checkRun(tracedRun(Img, runConfigFor(G), T), G);
}

std::string Workload::runProfileOp(const Op &O, Tracer &T) {
  Subject &G = Subjects[O.Subject];
  RunConfig RC = runConfigFor(G);
  CollectedProfiles Prof;
  {
    Span S(T, "core.profile");
    Prof = collectProfiles(*G.P, instrumentedConfig(BuildSeeds[O.Seed]), RC);
  }
  for (const RunStats *St : {&Prof.CuRun, &Prof.MethodRun, &Prof.HeapRun})
    if (std::string Err = checkCompleted(*St, G); !Err.empty())
      return "instrumented " + Err;
  CollectedProfiles Parsed;
  if (std::string Err = csvRoundTrip(Prof, Parsed, T); !Err.empty())
    return G.Spec.Name + ": " + Err;
  if (std::string Err = captureAndMerge(G, BuildSeeds[O.Seed], T);
      !Err.empty())
    return Err;
  const Variant &V = Variants[O.Variant];
  NativeImage Img;
  {
    Span S(T, "core.build");
    Img = buildNativeImage(*G.P, configFor(V, BuildSeeds[O.Seed], Parsed));
  }
  if (std::string Err = checkBuild(Img, V); !Err.empty())
    return G.Spec.Name + ": " + Err;
  return checkRun(tracedRun(Img, RC, T), G);
}

std::string Workload::runStormOp(const Op &O, Tracer &T) {
  Subject &G = Subjects[O.Subject];
  size_t I = O.Variant == Baseline ? 0 : 1;
  NativeImage Img;
  {
    Span S(T, "image.load");
    std::string Err;
    if (!deserializeImage(*G.P, G.File[I], Img, Err))
      return G.Spec.Name + ": image load failed: " + Err;
  }
  RunConfig RC = runConfigFor(G);
  RC.RecordTouches = true;
  RunStats St = tracedRun(Img, RC, T);
  if (std::string Err = checkRun(St, G); !Err.empty())
    return Err;
  const RunStats &Mem = G.Recorded[I];
  if (St.TextFaults != Mem.TextFaults || St.HeapFaults != Mem.HeapFaults ||
      St.TimeNs != Mem.TimeNs || St.Output != Mem.Output)
    return G.Spec.Name + ": loaded image ran differently from the in-memory "
                         "image";
  if (std::string Err =
          fleetSweep(St, Img.Layout, RC, G.CapPages[I], ArrivalSeed, T);
      !Err.empty())
    return G.Spec.Name + ": " + Err;
  return "";
}

std::string Workload::modeled(Modeled &Out) {
  std::vector<double> Speedup, Faults, Overhead, P99;
  for (Subject &G : Subjects) {
    RunConfig RC = runConfigFor(G);
    CollectedProfiles Fresh;
    if (!G.HasProf)
      Fresh = collectProfiles(*G.P, instrumentedConfig(BuildSeeds[0]), RC);
    const CollectedProfiles &Prof = G.HasProf ? G.Prof : Fresh;
    RC.RecordTouches = true;
    bool Micro = G.Spec.Microservice;
    // Both build seeds, so one seed's layout luck weighs half as much.
    for (uint64_t Seed : BuildSeeds) {
      RunStats St[2];
      ImageLayout Layout;
      for (size_t I = 0; I < 2; ++I) {
        const Variant &V = Variants[I == 0 ? Baseline : CuHeapPath];
        NativeImage Img = buildNativeImage(*G.P, configFor(V, Seed, Prof));
        if (std::string Err = checkBuild(Img, V); !Err.empty())
          return G.Spec.Name + ": " + Err;
        St[I] = runImage(Img, RC);
        if (std::string Err = checkRun(St[I], G); !Err.empty())
          return Err;
        Layout = std::move(Img.Layout);
      }
      double Base = timeOf(St[0], Micro);
      Speedup.push_back(Base / timeOf(St[1], Micro));
      Faults.push_back(double(St[0].totalFaults()) /
                       double(St[1].totalFaults()));
      for (const RunStats *R : {&Prof.CuRun, &Prof.MethodRun, &Prof.HeapRun})
        Overhead.push_back(timeOf(*R, Micro) / Base);
      FleetConfig FC = stormConfig(ArrivalSeed);
      FC.Instances = P99FleetSize;
      FC.CachePages = capBelowWorkingSet(St[1], Layout, RC);
      FleetResult FR = simulateFleet(St[1], Layout.TextSize, Layout.HeapSize,
                                     RC.Paging, RC.Cost, FC);
      P99.push_back(FR.P99Ns / 1e6);
    }
  }
  Out.Speedup = geomean(Speedup);
  Out.FaultFactor = geomean(Faults);
  Out.ProfilingOverhead = geomean(Overhead);
  Out.FleetP99Ms = geomean(P99);
  return "";
}

std::string Workload::layerPass(Tracer &T) {
  const uint64_t Seed = BuildSeeds[0];
  for (Subject &G : Subjects) {
    Program &P = *G.P;
    RunConfig RC = runConfigFor(G);
    CollectedProfiles Fresh;
    if (!G.HasProf) {
      Span S(T, "core.profile");
      Fresh = collectProfiles(P, instrumentedConfig(Seed), RC);
    }
    const CollectedProfiles &Prof = G.HasProf ? G.Prof : Fresh;

    // The build stages of one cu+heap path build, called directly in
    // buildNativeImage's order on the same inputs.
    ensureClassMetaClass(P);
    int64_t StageNs = 0;
    Span Reach(T, "compiler.reach");
    ReachabilityResult R = analyzeReachability(P);
    StageNs += Reach.close();
    Span Cus(T, "compiler.cu_formation");
    CompiledProgram Code = buildCompilationUnits(P, R, InlinerConfig(), false);
    StageNs += Cus.close();
    Cus.value("compiler.cus", double(Code.CUs.size()));
    Span CodeOrder(T, "ordering.order");
    std::vector<int32_t> CuOrder =
        orderCusWithProfile(P, Code, Prof.Cu, CodeStrategy::CuOrder);
    StageNs += CodeOrder.close();
    Span Init(T, "heap.init");
    BuildHeapResult Built = initializeBuildHeap(P, R, Seed);
    StageNs += Init.close();
    if (Built.Failed)
      return G.Spec.Name + ": build-time initialization failed";
    SnapshotConfig SnapCfg;
    SnapCfg.PeaFingerprint = mix64(Code.InlineFingerprint, Seed);
    SnapCfg.CuOrder = CuOrder;
    Span Snapshot(T, "heap.snapshot");
    HeapSnapshot Snap =
        buildSnapshot(P, *Built.BuildHeap, Built, Code, R, SnapCfg);
    StageNs += Snapshot.close();
    Snapshot.value("heap.snapshot_objects", double(Snap.numStored()));
    Span IdSpan(T, "ordering.id_table");
    IdTable Ids = computeIdTable(P, *Built.BuildHeap, Snap);
    StageNs += IdSpan.close();
    Span HeapOrder(T, "ordering.order");
    std::vector<int32_t> ObjOrder = orderObjectsWithProfile(
        Snap, Ids, HeapStrategy::HeapPath, Prof.HeapPath);
    StageNs += HeapOrder.close();
    Span LayoutSpan(T, "image.layout");
    ImageLayout Layout = computeImageLayout(P, Code, Snap, CuOrder, ObjOrder);
    StageNs += LayoutSpan.close();
    LayoutSpan.value("image.text_kb", double(Layout.TextSize) / 1024.0);
    LayoutSpan.value("image.heap_kb", double(Layout.HeapSize) / 1024.0);

    const Variant &V = Variants[CuHeapPath];
    Span BuildSpan(T, "core.build");
    NativeImage Img = buildNativeImage(P, configFor(V, Seed, Prof));
    int64_t BuildNs = BuildSpan.close();
    BuildSpan.value("core.stage_coverage", double(StageNs) / double(BuildNs));
    if (std::string Err = checkBuild(Img, V); !Err.empty())
      return G.Spec.Name + ": " + Err;
    if (Img.Layout.CuOrder != Layout.CuOrder ||
        Img.Layout.ObjectOrder != Layout.ObjectOrder ||
        Img.Layout.TextSize != Layout.TextSize ||
        Img.Layout.HeapSize != Layout.HeapSize)
      return G.Spec.Name + ": the stage calls laid out a different image "
                           "than buildNativeImage";
    RunConfig Rec = RC;
    Rec.RecordTouches = true;
    RunStats St = tracedRun(Img, Rec, T);
    if (std::string Err = checkRun(St, G); !Err.empty())
      return Err;

    // One traced run and its analysis per trace mode.
    NativeImage Instr;
    {
      Span S(T, "core.build");
      BuildConfig IC = instrumentedConfig(Seed);
      IC.Instrumented = true;
      Instr = buildNativeImage(P, IC);
    }
    PathGraphCache Paths(P);
    for (TraceMode Mode :
         {TraceMode::CuOrder, TraceMode::MethodOrder, TraceMode::HeapOrder}) {
      TraceOptions TO;
      TO.Mode = Mode;
      TO.Dump = G.Spec.Microservice ? DumpMode::MemoryMapped
                                    : DumpMode::FlushOnFull;
      TO.Encoding = TraceEncoding::VarintDelta;
      RunConfig TRC = RC;
      TRC.Trace = &TO;
      TraceCapture Cap;
      {
        Span S(T, "runtime.traced_run");
        RunStats TS = runImage(Instr, TRC, &Cap);
        S.value("profiling.trace_kwords", double(Cap.totalWords()) / 1000.0);
        S.value("runtime.probe_units", double(TS.ProbeUnits));
        if (std::string Err = checkCompleted(TS, G); !Err.empty())
          return "traced " + Err;
      }
      Span S(T, "profiling.post");
      SalvageStats Salvage;
      if (Mode == TraceMode::CuOrder)
        analyzeCuOrder(P, Cap, &Salvage);
      else if (Mode == TraceMode::MethodOrder)
        analyzeMethodOrder(P, Cap, Paths, &Salvage);
      else
        heapProfileFor(analyzeHeapAccessOrder(P, Cap, Paths, &Salvage),
                       Instr.Ids, HeapStrategy::HeapPath);
      S.value("profiling.salvage_permille",
              Salvage.WordsScanned == 0
                  ? 1000.0
                  : 1000.0 * double(Salvage.WordsKept) /
                        double(Salvage.WordsScanned));
    }

    CollectedProfiles Parsed;
    if (std::string Err = csvRoundTrip(Prof, Parsed, T); !Err.empty())
      return G.Spec.Name + ": " + Err;
    if (std::string Err = captureAndMerge(G, Seed, T); !Err.empty())
      return Err;

    std::vector<uint8_t> File;
    {
      Span S(T, "image.serialize");
      File = serializeImage(P, Img);
      S.value("image.file_kb", double(File.size()) / 1024.0);
    }
    {
      Span S(T, "image.load");
      NativeImage Loaded;
      std::string Err;
      if (!deserializeImage(P, File, Loaded, Err))
        return G.Spec.Name + ": image load failed: " + Err;
    }
    if (std::string Err =
            fleetSweep(St, Img.Layout, Rec,
                       capBelowWorkingSet(St, Img.Layout, Rec), ArrivalSeed, T);
        !Err.empty())
      return G.Spec.Name + ": " + Err;
  }
  return "";
}
