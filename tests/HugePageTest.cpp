//===- HugePageTest.cpp - Multi-size paging and huge-page layout tests ------===//
//
// The --huge-pages lane: per-size fault costs, the mixed-size page index
// space of PagingSim, eviction at both page sizes, the layout overlay
// invariant (no byte offset moves) and the end-to-end budget-0
// byte-identity guarantee.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/fleet/FleetCache.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/runtime/ExecEngine.h"
#include "src/runtime/Paging.h"

#include <gtest/gtest.h>

using namespace nimg;

namespace {

PagingConfig hugeCfg(uint32_t HugeTextPages, uint32_t Readahead = 4) {
  PagingConfig Cfg;
  Cfg.ReadaheadPages = Readahead;
  Cfg.HugeTextPages = HugeTextPages;
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cost model.
//===----------------------------------------------------------------------===//

TEST(HugeCostModel, PerSizeFaultCosts) {
  CostModel Cost;
  EXPECT_EQ(Cost.majorFaultNs(BasePageBytes), Cost.FaultNs);
  // 2 MiB page: one seek plus (2048 - 4) KiB of extra transfer.
  EXPECT_EQ(Cost.majorFaultNs(HugePageBytes),
            Cost.FaultNs + 2044.0 * Cost.TransferNsPerKiB);
  EXPECT_EQ(Cost.majorFaultNs(HugePageBytes), 284400.0);
}

TEST(HugeCostModel, FiveArgFormulaIsBitIdenticalWithZeroHugeFaults) {
  CostModel Cost;
  for (uint64_t Faults : {0ull, 1ull, 17ull, 4096ull}) {
    double Three = Cost.startupNs(123456, 789, Faults);
    double Five = Cost.startupNs(123456, 789, Faults, 0, HugePageBytes);
    EXPECT_EQ(Three, Five);
  }
  // And with huge faults it charges exactly the per-size increment.
  EXPECT_EQ(Cost.startupNs(100, 0, 2, 3, HugePageBytes),
            Cost.startupNs(100, 0, 2) + 3.0 * 284400.0);
}

//===----------------------------------------------------------------------===//
// Mixed-size page index space.
//===----------------------------------------------------------------------===//

TEST(HugePaging, MixedSizeIndexSpace) {
  // 2 huge pages + a 100-byte small tail.
  uint64_t TextSize = 2ull * HugePageBytes + 100;
  PagingSim Sim(TextSize, 1 << 16, hugeCfg(2));
  EXPECT_EQ(Sim.hugeTextPages(), 2u);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text).size(), 3u);

  EXPECT_EQ(Sim.pageOf(ImageSection::Text, 0), 0u);
  EXPECT_EQ(Sim.pageOf(ImageSection::Text, HugePageBytes - 1), 0u);
  EXPECT_EQ(Sim.pageOf(ImageSection::Text, HugePageBytes), 1u);
  EXPECT_EQ(Sim.pageOf(ImageSection::Text, 2ull * HugePageBytes), 2u);

  EXPECT_EQ(Sim.pageSizeBytes(ImageSection::Text, 0), HugePageBytes);
  EXPECT_EQ(Sim.pageSizeBytes(ImageSection::Text, 1), HugePageBytes);
  EXPECT_EQ(Sim.pageSizeBytes(ImageSection::Text, 2), BasePageBytes);
  EXPECT_EQ(Sim.pageSizeBytes(ImageSection::HeapSec, 0), BasePageBytes);

  EXPECT_EQ(Sim.pageStartOffset(ImageSection::Text, 1),
            uint64_t(HugePageBytes));
  EXPECT_EQ(Sim.pageStartOffset(ImageSection::Text, 2),
            2ull * HugePageBytes);

  // The heap never maps huge.
  EXPECT_EQ(Sim.pageOf(ImageSection::HeapSec, 2 * BasePageBytes), 2u);
}

TEST(HugePaging, BudgetClampsToSectionSize) {
  // A 10-page budget over a 3 MiB section covers at most 2 huge pages.
  PagingSim Sim(3ull * 1024 * 1024, 0, hugeCfg(10));
  EXPECT_EQ(Sim.hugeTextPages(), 2u);
  // 2 huge pages cover 4 MiB > 3 MiB: the region clamps to the section
  // and no small pages remain.
  EXPECT_EQ(Sim.pageStates(ImageSection::Text).size(), 2u);
}

TEST(HugePaging, HugeFaultAccountingAndNoReadaheadInRegion) {
  uint64_t TextSize = HugePageBytes + 64 * BasePageBytes;
  PagingSim Sim(TextSize, 0, hugeCfg(1));

  // First touch anywhere in the huge page: one huge major, and no
  // readahead (the huge page is its own cluster).
  Sim.touch(ImageSection::Text, 12345, 1);
  EXPECT_EQ(Sim.faults(ImageSection::Text), 1u);
  EXPECT_EQ(Sim.counters().TextHugeFaults, 1u);
  EXPECT_EQ(Sim.prefetchedPages(), 0u);
  EXPECT_EQ(Sim.residentPages(ImageSection::Text), 1u);

  // The whole 2 MiB is now resident: no further fault inside it.
  Sim.touch(ImageSection::Text, HugePageBytes - 1, 1);
  EXPECT_EQ(Sim.faults(ImageSection::Text), 1u);

  // First small page behind the region: a base-size major whose cluster
  // aligns relative to the region end.
  Sim.touch(ImageSection::Text, HugePageBytes, 1);
  EXPECT_EQ(Sim.faults(ImageSection::Text), 2u);
  EXPECT_EQ(Sim.counters().TextHugeFaults, 1u);
  EXPECT_EQ(Sim.prefetchedPages(), 3u); // readahead 4 - the faulting page
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[1], PageState::Faulted);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[4], PageState::Prefetched);
}

TEST(HugePaging, SmallClustersAlignRelativeToRegionEnd) {
  uint64_t TextSize = HugePageBytes + 64 * BasePageBytes;
  PagingSim Sim(TextSize, 0, hugeCfg(1));
  // Page index 6 = small page 5 behind the region; its cluster is small
  // pages [4, 8) = indices [5, 9).
  uint64_t Start = 0, End = 0;
  Sim.clusterRange(ImageSection::Text, 6, Start, End);
  EXPECT_EQ(Start, 5u);
  EXPECT_EQ(End, 9u);
  // A huge page is its own cluster.
  Sim.clusterRange(ImageSection::Text, 0, Start, End);
  EXPECT_EQ(Start, 0u);
  EXPECT_EQ(End, 1u);

  Sim.touch(ImageSection::Text, HugePageBytes + 5 * BasePageBytes, 1);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[6], PageState::Faulted);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[5], PageState::Prefetched);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[8], PageState::Prefetched);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[9], PageState::Untouched);
}

//===----------------------------------------------------------------------===//
// Eviction at mixed sizes.
//===----------------------------------------------------------------------===//

TEST(HugePaging, EvictHugePageRefaultsAsHuge) {
  PagingSim Sim(HugePageBytes + 16 * BasePageBytes, 0, hugeCfg(1));
  Sim.touch(ImageSection::Text, 0, 1);
  ASSERT_EQ(Sim.counters().TextHugeFaults, 1u);

  EXPECT_TRUE(Sim.evictPage(ImageSection::Text, 0));
  EXPECT_EQ(Sim.residentPages(ImageSection::Text), 0u);
  EXPECT_EQ(Sim.counters().EvictedPages, 1u);
  EXPECT_EQ(Sim.pageStates(ImageSection::Text)[0], PageState::Untouched);
  // Double-evict is a no-op.
  EXPECT_FALSE(Sim.evictPage(ImageSection::Text, 0));

  Sim.touch(ImageSection::Text, HugePageBytes / 2, 1);
  EXPECT_EQ(Sim.faults(ImageSection::Text), 2u);
  EXPECT_EQ(Sim.counters().TextHugeFaults, 2u);
}

TEST(HugePaging, EvictPrefetchedSmallPageBehindHugeRegion) {
  PagingSim Sim(HugePageBytes + 16 * BasePageBytes, 0, hugeCfg(1));
  // Fault small page index 1 (first behind the region); indices 2..4 come
  // in by readahead.
  Sim.touch(ImageSection::Text, HugePageBytes, 1);
  ASSERT_EQ(Sim.pageStates(ImageSection::Text)[2], PageState::Prefetched);

  EXPECT_TRUE(Sim.evictPage(ImageSection::Text, 2));
  EXPECT_EQ(Sim.prefetchedPages(), 2u);
  // Re-touching the evicted prefetched page is a fresh small major.
  uint64_t HugeBefore = Sim.counters().TextHugeFaults;
  Sim.touch(ImageSection::Text, HugePageBytes + BasePageBytes, 1);
  EXPECT_EQ(Sim.faults(ImageSection::Text), 2u);
  EXPECT_EQ(Sim.counters().TextHugeFaults, HugeBefore);
}

TEST(HugePaging, FleetCacheFifoClampsAndEvictsAcrossSizes) {
  // Capacity 2 clamps up to the readahead cluster (4). The huge page
  // occupies ONE slot, exactly like the per-instance resident list.
  PagingConfig Cfg = hugeCfg(1);
  FleetPageCache Cache(HugePageBytes + 64 * BasePageBytes, 0, Cfg, 2);

  EXPECT_EQ(Cache.touchPage(ImageSection::Text, 0), FleetTouch::Major);
  EXPECT_EQ(Cache.touchPage(ImageSection::Text, 0), FleetTouch::WarmHit);

  // A small-page fault behind the region pulls its 4-page cluster: with
  // the huge page that is 5 residents > 4, so the oldest (the huge page)
  // is evicted.
  EXPECT_EQ(Cache.touchPage(ImageSection::Text, 1), FleetTouch::Major);
  EXPECT_GT(Cache.evictions(), 0u);
  EXPECT_EQ(Cache.touchPage(ImageSection::Text, 0), FleetTouch::Major);
  EXPECT_EQ(Cache.uniquePages(), 2u); // re-faults do not re-count
}

TEST(HugePaging, ZeroBudgetIsByteIdenticalToNoBudget) {
  PagingConfig Plain;
  Plain.ReadaheadPages = 4;
  PagingSim A(48 * BasePageBytes, 8 * BasePageBytes, Plain);
  PagingSim B(48 * BasePageBytes, 8 * BasePageBytes, hugeCfg(0));
  for (uint64_t Off : {0ull, 4097ull, 100000ull, 5ull, 190000ull}) {
    A.touch(ImageSection::Text, Off, 3);
    B.touch(ImageSection::Text, Off, 3);
  }
  A.touch(ImageSection::HeapSec, 9000, 1);
  B.touch(ImageSection::HeapSec, 9000, 1);
  EXPECT_EQ(A.faults(ImageSection::Text), B.faults(ImageSection::Text));
  EXPECT_EQ(A.prefetchedPages(), B.prefetchedPages());
  EXPECT_EQ(A.pageStates(ImageSection::Text), B.pageStates(ImageSection::Text));
  EXPECT_EQ(A.counters().TextHugeFaults, 0u);
  EXPECT_EQ(B.counters().TextHugeFaults, 0u);
}

//===----------------------------------------------------------------------===//
// Layout overlay.
//===----------------------------------------------------------------------===//

namespace {

const char *kSource = R"MJ(
class Worker {
  static int step(int x) { return x * 3 + 1; }
}
class Main { static int main() {
  int acc = 0;
  for (int i = 0; i < 32; i = i + 1) { acc = acc + Worker.step(i); }
  Sys.print("acc=" + acc);
  return acc;
} }
)MJ";

struct Compiled {
  Program P;
  Compiled() {
    std::vector<std::string> Errors;
    EXPECT_TRUE(compileSources({kSource}, P, Errors));
    for (auto &E : Errors)
      ADD_FAILURE() << E;
  }
};

} // namespace

TEST(HugeLayout, OverlayMovesNoByteOffset) {
  Compiled C;
  BuildConfig Base;
  Base.Seed = 11;
  NativeImage Plain = buildNativeImage(C.P, Base);
  BuildConfig HCfg = Base;
  HCfg.Image.HugePages = 2;
  NativeImage Huge = buildNativeImage(C.P, HCfg);

  EXPECT_EQ(Plain.Layout.CuOffsets, Huge.Layout.CuOffsets);
  EXPECT_EQ(Plain.Layout.CuOrder, Huge.Layout.CuOrder);
  EXPECT_EQ(Plain.Layout.TextSize, Huge.Layout.TextSize);
  EXPECT_EQ(Plain.Layout.NativeTailOffset, Huge.Layout.NativeTailOffset);
  EXPECT_EQ(Plain.Layout.ObjectOffsets, Huge.Layout.ObjectOffsets);
  EXPECT_EQ(Plain.Layout.HeapSize, Huge.Layout.HeapSize);

  EXPECT_EQ(Huge.Layout.HugePagesRequested, 2u);
  EXPECT_GT(Huge.Layout.HugePages, 0u);
  EXPECT_GT(Huge.Layout.HugeRegionSize, 0u);
  EXPECT_LE(Huge.Layout.HugeRegionSize, Huge.Layout.TextSize);
}

TEST(HugeLayout, UnfillableBudgetClampsAndRecordsTypedIssue) {
  Compiled C;
  BuildConfig Cfg;
  Cfg.Seed = 11;
  Cfg.Image.HugePages = 64; // far beyond the hot prefix of a tiny image
  NativeImage Img = buildNativeImage(C.P, Cfg);
  EXPECT_LT(Img.Layout.HugePages, Img.Layout.HugePagesRequested);
  bool Found = false;
  for (const ProfileIssue &I : Img.ProfileDiag.Issues)
    if (I.Kind == ProfileError::HugeBudgetUnfillable)
      Found = true;
  EXPECT_TRUE(Found) << "missing huge_budget_unfillable diagnostic";
}

TEST(HugeLayout, BudgetZeroBuildIsByteIdentical) {
  Compiled C;
  BuildConfig Base;
  Base.Seed = 23;
  NativeImage Plain = buildNativeImage(C.P, Base);
  BuildConfig Zero = Base;
  Zero.Image.HugePages = 0;
  NativeImage ZeroImg = buildNativeImage(C.P, Zero);
  EXPECT_EQ(serializeImage(C.P, Plain), serializeImage(C.P, ZeroImg));

  RunConfig RC;
  RunStats A = runImage(Plain, RC);
  RunStats B = runImage(ZeroImg, RC);
  EXPECT_EQ(A.TextFaults, B.TextFaults);
  EXPECT_EQ(A.TextHugeFaults, 0u);
  EXPECT_EQ(B.TextHugeFaults, 0u);
  EXPECT_EQ(A.TimeNs, B.TimeNs);
}

TEST(HugeLayout, HugeBuildChargesPerSizeCostsAndNeverAddsMajors) {
  Compiled C;
  BuildConfig Base;
  Base.Seed = 31;
  NativeImage Plain = buildNativeImage(C.P, Base);
  BuildConfig HCfg = Base;
  HCfg.Image.HugePages = 1;
  NativeImage Huge = buildNativeImage(C.P, HCfg);
  EXPECT_NE(Plain.Split.DecisionFingerprint, Huge.Split.DecisionFingerprint);

  RunConfig RC;
  RunStats A = runImage(Plain, RC);
  RunStats B = runImage(Huge, RC);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_GT(B.TextHugeFaults, 0u);
  EXPECT_LE(B.TextFaults, A.TextFaults);
  // The time model reproduces the per-size formula exactly.
  CostModel Cost;
  EXPECT_EQ(B.TimeNs,
            Cost.startupNs(B.Instructions, B.ProbeUnits,
                           B.totalFaults() - B.TextHugeFaults,
                           B.TextHugeFaults, HugePageBytes));
}
