//===- fig6_text_visualization.cpp - Reproduces the paper's Figure 6 -------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Figure 6: visual representation of the .text section of the AWFY Bounce
// workload and the page faults it causes. Each cell is one 4 KiB page:
//   '#' green  — page caused a major fault,
//   '+' red    — page mapped in by readahead without a fault,
//   '.' black  — page never mapped.
// The regular binary's faults are scattered across the whole section; the
// cu-ordered binary compacts the executed code at the front, leaving the
// unprofiled native tail at the end (the paper's future-work note). Panel
// (c) adds hot/cold splitting on top: the cold tail (marked '|' at its
// first page) collects the never-executed block bytes and stays unmapped
// on the first run.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "src/core/Evaluation.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <cstring>

using namespace nimg;

namespace {

struct MapSummary {
  size_t Faults = 0;
  size_t Prefetched = 0;
  uint64_t ColdFaults = 0;
};

/// Prints the page map; \p BoundaryPage (if >= 0) draws a '|' before that
/// page to mark where the cold tail begins.
MapSummary printPages(const std::vector<PageState> &Pages,
                      int64_t BoundaryPage = -1) {
  const int Columns = 64;
  int Col = 0;
  MapSummary Sum;
  for (size_t I = 0; I < Pages.size(); ++I) {
    if (int64_t(I) == BoundaryPage)
      std::putchar('|');
    PageState S = Pages[I];
    char C = '.';
    if (S == PageState::Faulted) {
      C = '#';
      ++Sum.Faults;
    } else if (S == PageState::Prefetched) {
      C = '+';
      ++Sum.Prefetched;
    }
    std::putchar(C);
    if (++Col == Columns) {
      std::putchar('\n');
      Col = 0;
    }
  }
  if (Col)
    std::putchar('\n');
  std::printf("faults=%zu, readahead-mapped=%zu\n", Sum.Faults,
              Sum.Prefetched);
  return Sum;
}

MapSummary printPageMap(const char *Title, const RunStats &Stats,
                        const NativeImage *Split = nullptr,
                        uint64_t HugeLane = 0) {
  std::printf("%s\n", Title);
  int64_t Boundary = -1;
  if (Split && Split->Layout.ColdTailSize > 0)
    Boundary = int64_t(Split->Layout.ColdTailOffset /
                       Split->Layout.PageSize);
  std::printf(".text (%zu pages; # fault, + readahead, . unmapped%s):\n",
              Stats.TextPages.size(),
              Boundary >= 0 ? ", | cold-tail start" : "");
  if (HugeLane > 0) {
    // Page-size lane: the map above is indexed in native pages, so one 'H'
    // cell is a whole 2 MiB page (512 small cells' worth of bytes).
    std::printf("page sizes (H = 2 MiB, . = 4 KiB):\n");
    const int Columns = 64;
    int Col = 0;
    for (size_t I = 0; I < Stats.TextPages.size(); ++I) {
      std::putchar(I < HugeLane ? 'H' : '.');
      if (++Col == Columns) {
        std::putchar('\n');
        Col = 0;
      }
    }
    if (Col)
      std::putchar('\n');
  }
  MapSummary Sum = printPages(Stats.TextPages, Boundary);
  if (Split) {
    Sum.ColdFaults = Stats.TextColdFaults;
    std::printf("cold tail: %llu bytes at offset %llu (pages %lld+), "
                "first-run faults inside it: %llu\n",
                (unsigned long long)Split->Layout.ColdTailSize,
                (unsigned long long)Split->Layout.ColdTailOffset,
                (long long)Boundary, (unsigned long long)Sum.ColdFaults);
  }
  // The paper's appendix plans "a similar visualization for the
  // heap-snapshot section" as future work; here it is.
  std::printf(".svm_heap (%zu pages):\n", Stats.HeapPages.size());
  printPages(Stats.HeapPages);
  std::printf("\n");
  return Sum;
}

} // namespace

int main(int Argc, char **Argv) {
  // --smoke is accepted for the bench-smoke ctest label; a single
  // workload's three builds are already smoke-sized, so it only tags the
  // JSON artifact.
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  BenchmarkSpec Spec = awfyBenchmark("Bounce");
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  if (!P) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "%s\n", E.c_str());
    return 1;
  }

  RunConfig Run;
  BuildConfig InstrCfg;
  InstrCfg.Seed = 1042;
  CollectedProfiles Prof = collectProfiles(*P, InstrCfg, Run);

  std::printf("Figure 6 — .text page-fault visualization, AWFY Bounce\n\n");

  BuildConfig Base;
  Base.Seed = 7;
  NativeImage Regular = buildNativeImage(*P, Base);
  RunStats RegularStats = runImage(Regular, Run);
  MapSummary RegularSum = printPageMap("(a) regular binary", RegularStats);

  const PaperVariant &CuHeapPath = PaperVariants[7];
  NativeImage Optimized =
      buildNativeImage(*P, variantConfig(CuHeapPath, Base, Prof));
  RunStats OptimizedStats = runImage(Optimized, Run);
  MapSummary OptimizedSum = printPageMap(
      "(b) binary optimized with the cu + heap-path strategies",
      OptimizedStats);

  BuildConfig SplitBase = Base;
  SplitBase.Split = SplitMode::HotCold;
  NativeImage SplitImg =
      buildNativeImage(*P, variantConfig(CuHeapPath, SplitBase, Prof));
  RunStats SplitStats = runImage(SplitImg, Run);
  MapSummary SplitSum = printPageMap(
      "(c) same, plus --split hotcold (cold tail after '|')", SplitStats,
      &SplitImg);

  // Panel (d): the cu-ordered image with a 2 MiB huge page over the hot
  // prefix. The first map cell is the whole huge page: every hot fault it
  // absorbs collapses into one bigger (284.4 us vs 80 us) device read.
  BuildConfig HugeBase = Base;
  HugeBase.Image.HugePages = 1;
  NativeImage HugeImg =
      buildNativeImage(*P, variantConfig(CuHeapPath, HugeBase, Prof));
  RunStats HugeStats = runImage(HugeImg, Run);
  MapSummary HugeSum =
      printPageMap("(d) same as (b), plus --huge-pages 1 ('H' lane below)",
                   HugeStats, nullptr, HugeImg.Layout.HugePages);

  bool Ok = benchjson::writeBenchJson(
      "BENCH_fig6.json", "fig6", [&](obs::JsonWriter &W) {
        W.member("benchmark", std::string(Spec.Name));
        W.member("smoke", Smoke);
        auto Panel = [&](const char *Key, const MapSummary &S,
                         const RunStats &Stats) {
          W.key(Key);
          W.beginObject();
          W.member("text_pages", uint64_t(Stats.TextPages.size()));
          W.member("text_faults", uint64_t(S.Faults));
          W.member("text_readahead_pages", uint64_t(S.Prefetched));
          W.endObject();
        };
        Panel("regular", RegularSum, RegularStats);
        Panel("cu_heap_path", OptimizedSum, OptimizedStats);
        Panel("cu_heap_path_split", SplitSum, SplitStats);
        Panel("cu_heap_path_huge", HugeSum, HugeStats);
        W.member("huge_pages", uint64_t(HugeImg.Layout.HugePages));
        W.member("huge_region_size", HugeImg.Layout.HugeRegionSize);
        W.member("huge_text_faults", HugeStats.TextHugeFaults);
        W.member("cold_tail_offset", SplitImg.Layout.ColdTailOffset);
        W.member("cold_tail_size", SplitImg.Layout.ColdTailSize);
        W.member("cold_tail_first_run_faults", SplitStats.TextColdFaults);
        W.member("cus_split", uint64_t(SplitImg.Split.SplitCus));
      });
  return Ok ? 0 : 1;
}
