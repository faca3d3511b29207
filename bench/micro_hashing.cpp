//===- micro_hashing.cpp - google-benchmark: identity-strategy costs -------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Micro-benchmarks for the object-identity machinery of Sec. 5:
// MurmurHash3 throughput, structural-hash encoding at several MAX_DEPTH
// values (the paper's compute-time/robustness trade-off), heap-path
// hashing, and full identity-table computation over a real snapshot; and
// the program fingerprint that ties images and profiles to their
// classpath, hashed cold and served from its memo.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/image/ImageFile.h"
#include "src/ordering/IdStrategies.h"
#include "src/support/Murmur3.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace nimg;

static void BM_Murmur3(benchmark::State &State) {
  std::string Data(size_t(State.range(0)), 'x');
  for (auto _ : State)
    benchmark::DoNotOptimize(murmurHash3(Data));
  State.SetBytesProcessed(int64_t(State.iterations()) * State.range(0));
}
BENCHMARK(BM_Murmur3)->Arg(16)->Arg(256)->Arg(4096);

namespace {

/// One shared image of the Bounce workload for snapshot-based benchmarks.
struct SnapshotFixture {
  std::unique_ptr<Program> P;
  NativeImage Img;

  SnapshotFixture() {
    std::vector<std::string> Errors;
    P = compileBenchmark(awfyBenchmark("Bounce"), Errors);
    assert(P && "Bounce failed to compile");
    BuildConfig Cfg;
    Cfg.Seed = 5;
    Img = buildNativeImage(*P, Cfg);
  }

  static SnapshotFixture &get() {
    static SnapshotFixture F;
    return F;
  }
};

} // namespace

static void BM_StructuralHash(benchmark::State &State) {
  SnapshotFixture &F = SnapshotFixture::get();
  int MaxDepth = int(State.range(0));
  const Heap &H = *F.Img.Built.BuildHeap;
  size_t N = F.Img.Snapshot.Entries.size();
  size_t I = 0;
  for (auto _ : State) {
    const SnapshotEntry &E = F.Img.Snapshot.Entries[I % N];
    benchmark::DoNotOptimize(structuralHashOf(*F.P, H, E.Cell, MaxDepth));
    ++I;
  }
}
BENCHMARK(BM_StructuralHash)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

static void BM_HeapPathHash(benchmark::State &State) {
  SnapshotFixture &F = SnapshotFixture::get();
  const Heap &H = *F.Img.Built.BuildHeap;
  size_t N = F.Img.Snapshot.Entries.size();
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        heapPathHashOf(*F.P, H, F.Img.Snapshot, int32_t(I % N)));
    ++I;
  }
}
BENCHMARK(BM_HeapPathHash);

static void BM_IncrementalIdTable(benchmark::State &State) {
  SnapshotFixture &F = SnapshotFixture::get();
  const Heap &H = *F.Img.Built.BuildHeap;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeIdTable(*F.P, H, F.Img.Snapshot, /*MaxDepth=*/2));
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(F.Img.Snapshot.Entries.size()));
}
BENCHMARK(BM_IncrementalIdTable);

/// Arg 0 hashes the whole program on every call (a dropped edit handle
/// moves its version); arg 1 is the memo hit every unedited build takes.
static void BM_ProgramFingerprint(benchmark::State &State) {
  SnapshotFixture &F = SnapshotFixture::get();
  bool Cold = State.range(0) == 0;
  for (auto _ : State) {
    if (Cold)
      (void)F.P->method(F.P->MainMethod);
    benchmark::DoNotOptimize(programFingerprint(*F.P));
  }
}
BENCHMARK(BM_ProgramFingerprint)->ArgName("memo")->Arg(0)->Arg(1);

// Custom main: accept the bench-smoke label's --smoke by rewriting it
// into a tiny min-time (see micro_pipeline.cpp).
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
