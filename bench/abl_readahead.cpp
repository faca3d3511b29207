//===- abl_readahead.cpp - Ablation: readahead-window sensitivity ----------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// The paper measures on an SSD with 4 KiB pages (and reports similar
// results on NFS, Sec. 7.1). Device and kernel readahead determine how
// much locality is worth: this ablation sweeps the simulator's readahead
// cluster and reports the cu and cu+heap-path factors — at window 1 only
// sub-page packing helps; large windows amortize scattered layouts too.
//
//===----------------------------------------------------------------------===//

#include "src/core/Evaluation.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <cstring>

using namespace nimg;

int main(int Argc, char **Argv) {
  // --smoke: two readahead windows only (bench-smoke ctest label).
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  BenchmarkSpec Spec = awfyBenchmark("Havlak");
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  if (!P)
    return 1;

  RunConfig Run;
  BuildConfig InstrCfg;
  InstrCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, InstrCfg, Run);

  BuildConfig Base;
  Base.Seed = 1;
  NativeImage Baseline = buildNativeImage(*P, Base);

  const PaperVariant &CuHeapPath = PaperVariants[7];
  NativeImage Combined =
      buildNativeImage(*P, variantConfig(CuHeapPath, Base, Prof));

  std::printf("Ablation — readahead window sweep (AWFY Havlak, "
              "cu+heap path)\n");
  std::printf("%10s %14s %14s %14s %10s\n", "pages", "baseFaults",
              "optFaults", "totalFactor", "speedup");
  std::vector<uint32_t> Windows = {1u, 2u, 4u, 8u, 16u, 32u};
  if (Smoke)
    Windows = {1u, 4u};
  for (uint32_t Window : Windows) {
    RunConfig RC = Run;
    RC.Paging.ReadaheadPages = Window;
    RunStats B = runImage(Baseline, RC);
    RunStats O = runImage(Combined, RC);
    double Factor = O.totalFaults() == 0
                        ? 1.0
                        : double(B.totalFaults()) / double(O.totalFaults());
    double Speedup = O.TimeNs == 0 ? 1.0 : B.TimeNs / O.TimeNs;
    std::printf("%10u %14llu %14llu %14.2f %10.2f\n", Window,
                (unsigned long long)B.totalFaults(),
                (unsigned long long)O.totalFaults(), Factor, Speedup);
  }
  return 0;
}
