//===- micro_pipeline.cpp - google-benchmark: pipeline-stage costs ---------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Micro-benchmarks for the build-pipeline stages (what "approximate time
// to reproduce" is made of): frontend compilation, reachability analysis,
// CU formation, the layout stage of a cached-base build, path-graph
// numbering, trace replay, the paging simulator, the fleet simulator's
// evicting replay, the deploy side's image load and per-run heap copy,
// and the interpreter with and without the engine's hooks.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/core/Evaluation.h"
#include "src/fleet/FleetSim.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/profiling/Analyses.h"
#include "src/runtime/Paging.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

using namespace nimg;

static void BM_FrontendCompile(benchmark::State &State) {
  BenchmarkSpec Spec = awfyBenchmark("Richards");
  for (auto _ : State) {
    std::vector<std::string> Errors;
    std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_FrontendCompile);

namespace {

struct ProgFixture {
  std::unique_ptr<Program> P;
  ReachabilityResult Reach;

  ProgFixture() {
    std::vector<std::string> Errors;
    P = compileBenchmark(awfyBenchmark("Richards"), Errors);
    assert(P && "Richards failed to compile");
    ensureClassMetaClass(*P);
    Reach = analyzeReachability(*P);
  }
  static ProgFixture &get() {
    static ProgFixture F;
    return F;
  }
};

} // namespace

static void BM_Reachability(benchmark::State &State) {
  ProgFixture &F = ProgFixture::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeReachability(*F.P));
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(F.P->numMethods()));
}
BENCHMARK(BM_Reachability);

static void BM_InlinerCuFormation(benchmark::State &State) {
  ProgFixture &F = ProgFixture::get();
  InlinerConfig Cfg;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        buildCompilationUnits(*F.P, F.Reach, Cfg, State.range(0) != 0));
}
BENCHMARK(BM_InlinerCuFormation)->Arg(0)->Arg(1);

static void BM_FullImageBuild(benchmark::State &State) {
  ProgFixture &F = ProgFixture::get();
  BuildConfig Cfg;
  Cfg.Seed = 9;
  for (auto _ : State)
    benchmark::DoNotOptimize(buildNativeImage(*F.P, Cfg));
}
BENCHMARK(BM_FullImageBuild);

static void BM_LayoutBuild(benchmark::State &State) {
  // The layout stage alone: the seven paper variants (baseline, cu,
  // method, incremental id, structural hash, heap path, cu+heap path) at
  // one seed, over a base every build finds in the cache. Arg 0 is
  // Richards, 1 micronaut. Items are builds.
  BenchmarkSpec Spec = State.range(0) ? microserviceBenchmark("micronaut")
                                      : awfyBenchmark("Richards");
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  assert(P && "layout-build subject failed to compile");
  RunConfig Run;
  Run.StopAtFirstResponse = Spec.Microservice;
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, ProfCfg, Run);
  std::vector<BuildConfig> Cfgs;
  for (const PaperVariant &V : PaperVariants)
    if (V.Code != CodeStrategy::Cluster) {
      BuildConfig Base;
      Base.Seed = 1;
      Cfgs.push_back(variantConfig(V, Base, Prof));
    }
  for (const BuildConfig &Cfg : Cfgs)
    benchmark::DoNotOptimize(buildNativeImage(*P, Cfg));
  for (auto _ : State)
    for (const BuildConfig &Cfg : Cfgs)
      benchmark::DoNotOptimize(buildNativeImage(*P, Cfg));
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(Cfgs.size()));
}
BENCHMARK(BM_LayoutBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_PathGraphBuild(benchmark::State &State) {
  ProgFixture &F = ProgFixture::get();
  std::vector<MethodId> Methods = F.Reach.compiledMethods(*F.P);
  for (auto _ : State) {
    size_t Paths = 0;
    for (MethodId M : Methods)
      Paths += PathGraph::build(*F.P, M)->numPaths();
    benchmark::DoNotOptimize(Paths);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Methods.size()));
}
BENCHMARK(BM_PathGraphBuild);

static void BM_TraceCollectAndReplay(benchmark::State &State) {
  ProgFixture &F = ProgFixture::get();
  BuildConfig Cfg;
  Cfg.Seed = 3;
  Cfg.Instrumented = true;
  NativeImage Img = buildNativeImage(*F.P, Cfg);
  TraceOptions TOpts;
  TOpts.Mode = TraceMode::HeapOrder;
  RunConfig RC;
  RC.Trace = &TOpts;
  TraceCapture Capture;
  runImage(Img, RC, &Capture);
  PathGraphCache Paths(*F.P);
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeHeapAccessOrder(*F.P, Capture, Paths));
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Capture.totalWords()));
}
BENCHMARK(BM_TraceCollectAndReplay);

static void BM_PagingTouch(benchmark::State &State) {
  PagingSim Paging(16 << 20, 16 << 20, PagingConfig());
  uint64_t Off = 0;
  for (auto _ : State) {
    Paging.touch(ImageSection::Text, Off % (16 << 20), 64);
    Off += 4096;
    if (Off >= (16u << 20)) {
      Off = 0;
      Paging.dropCaches();
    }
  }
  State.SetItemsProcessed(int64_t(State.iterations()));
}
BENCHMARK(BM_PagingTouch);

static void BM_PagingDropCaches(benchmark::State &State) {
  // Guard for the intrusive resident-list LRU: dropCaches() must walk
  // only the resident pages, so a sparse working set in a large section
  // costs O(residents), not O(section pages). Arg = touched pages; the
  // per-item rate should be flat between the sparse and dense shapes
  // (the old implementation scanned all 64 Ki page slots every drop).
  const uint64_t TextSize = 256ull << 20;
  PagingSim Paging(TextSize, 4096, PagingConfig());
  const int64_t Residents = State.range(0);
  const uint64_t Stride = TextSize / uint64_t(Residents);
  for (auto _ : State) {
    for (int64_t I = 0; I < Residents; ++I)
      Paging.touch(ImageSection::Text, uint64_t(I) * Stride, 1);
    Paging.dropCaches();
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Residents);
}
BENCHMARK(BM_PagingDropCaches)->Arg(16)->Arg(4096);

static void BM_FleetEvictingReplay(benchmark::State &State) {
  // The thrash regime of a cold-start storm: micronaut x4 (scaleRung(4))
  // built with cu + heap path ordering, 1000 instances arriving in 4
  // bursts over 20 ms, and a shared cache of half the pages one instance
  // faults in. Items are replayed demand-fault events (instances x trace
  // length), so the rate reads as ns per event beside the paging
  // simulator's per-touch numbers.
  BenchmarkSpec Spec = scaleRung(4);
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  assert(P && "scaleRung(4) failed to compile");
  RunConfig Run;
  Run.StopAtFirstResponse = Spec.Microservice;
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, ProfCfg, Run);
  BuildConfig Cfg;
  Cfg.Seed = 1;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeProf = &Prof.Cu;
  Cfg.UseHeapOrder = true;
  Cfg.HeapOrder = HeapStrategy::HeapPath;
  Cfg.HeapProf = &Prof.HeapPath;
  NativeImage Img = buildNativeImage(*P, Cfg);
  Run.RecordTouches = true;
  RunStats Ref = runImage(Img, Run);
  uint64_t Text = Img.Layout.TextSize, Heap = Img.Layout.HeapSize;

  FleetConfig FC;
  FC.Arrivals = ArrivalKind::Storm;
  FC.ArrivalWindowNs = 20e6;
  FC.StormBursts = 4;
  uint64_t WorkingSet =
      simulateFleet(Ref, Text, Heap, Run.Paging, Run.Cost, FC).UniquePages;
  FC.Instances = 1000;
  FC.CachePages = std::max<uint64_t>(1, WorkingSet / 2);
  int64_t Events = 0;
  for (auto _ : State) {
    FleetResult FR = simulateFleet(Ref, Text, Heap, Run.Paging, Run.Cost, FC);
    Events += int64_t(FR.TotalMajors + FR.TotalWarmHits);
    benchmark::DoNotOptimize(FR);
  }
  State.SetItemsProcessed(Events);
}
BENCHMARK(BM_FleetEvictingReplay)->Unit(benchmark::kMillisecond);

namespace {

/// micronaut x4 (scaleRung(4)) built once with the default configuration,
/// and its image file: the subject of the deploy-side layer benchmarks.
struct DeployFixture {
  std::unique_ptr<Program> P;
  NativeImage Img;
  std::vector<uint8_t> File;

  DeployFixture() {
    std::vector<std::string> Errors;
    P = compileBenchmark(scaleRung(4), Errors);
    assert(P && "scaleRung(4) failed to compile");
    BuildConfig Cfg;
    Cfg.Seed = 1;
    Img = buildNativeImage(*P, Cfg);
    File = serializeImage(*P, Img);
  }
  static DeployFixture &get() {
    static DeployFixture F;
    return F;
  }
};

} // namespace

static void BM_ImageLoad(benchmark::State &State) {
  // One deployed process's image handling: decode and validate the file,
  // then tear the loaded image down. Items are heap cells.
  DeployFixture &F = DeployFixture::get();
  for (auto _ : State) {
    NativeImage Loaded;
    std::string Error;
    bool Ok = deserializeImage(*F.P, F.File, Loaded, Error);
    assert(Ok && "image failed to load");
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Loaded);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(F.Img.Built.BuildHeap->numCells()));
}
BENCHMARK(BM_ImageLoad)->Unit(benchmark::kMillisecond);

static void BM_RunHeapCopy(benchmark::State &State) {
  // The copy-on-write heap every run executes on: copy the image heap,
  // then free the copy. Items are heap cells.
  DeployFixture &F = DeployFixture::get();
  const Heap &Image = *F.Img.Built.BuildHeap;
  for (auto _ : State) {
    Heap RunHeap(Image);
    benchmark::DoNotOptimize(RunHeap);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Image.numCells()));
}
BENCHMARK(BM_RunHeapCopy)->Unit(benchmark::kMillisecond);

static void BM_InterpreterThroughput(benchmark::State &State) {
  ProgFixture &F = ProgFixture::get();
  for (auto _ : State) {
    Heap H(*F.P);
    InterpConfig Cfg;
    Cfg.RunClinits = true;
    Interpreter I(*F.P, H, Cfg);
    Value R = I.runToCompletion(F.P->MainMethod, {});
    benchmark::DoNotOptimize(R);
    State.SetItemsProcessed(State.items_processed() +
                            int64_t(I.instructionsExecuted()));
  }
}
BENCHMARK(BM_InterpreterThroughput);

static void BM_InterpretLoadedImage(benchmark::State &State) {
  // The deployed path: runImage of a Richards image read back from its
  // file. A loaded image has no cached build base, so every run interprets
  // through the engine's hooks (paging, code model), as every profile
  // capture and cold start does. Items are IR instructions.
  ProgFixture &F = ProgFixture::get();
  BuildConfig Cfg;
  Cfg.Seed = 9;
  NativeImage Built = buildNativeImage(*F.P, Cfg);
  NativeImage Loaded;
  std::string Error;
  bool Ok = deserializeImage(*F.P, serializeImage(*F.P, Built), Loaded, Error);
  assert(Ok && "image failed to load");
  (void)Ok;
  for (auto _ : State) {
    RunStats S = runImage(Loaded, RunConfig());
    benchmark::DoNotOptimize(S);
    State.SetItemsProcessed(State.items_processed() +
                            int64_t(S.Instructions));
  }
}
BENCHMARK(BM_InterpretLoadedImage)->Unit(benchmark::kMillisecond);

// Custom main instead of BENCHMARK_MAIN(): the bench-smoke ctest label
// invokes every driver with --smoke, which google-benchmark's parser
// would reject — rewrite it into a tiny min-time so one fast iteration
// of every benchmark still runs.
int main(int Argc, char **Argv) {
  static char MinTime[] = "--benchmark_min_time=0.01";
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Argv[I] = MinTime;
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
