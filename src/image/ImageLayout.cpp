//===- ImageLayout.cpp - Binary image layout --------------------------------===//

#include "src/image/ImageLayout.h"

#include <cassert>

using namespace nimg;

static uint64_t alignUp(uint64_t V, uint64_t A) { return (V + A - 1) & ~(A - 1); }

ImageLayout nimg::computeImageLayout(const Program &P,
                                     const CompiledProgram &CP,
                                     const HeapSnapshot &Snap,
                                     const std::vector<int32_t> &CuOrder,
                                     const std::vector<int32_t> &ObjectOrder,
                                     const ImageOptions &Opts,
                                     const SplitResult *Split) {
  ImageLayout L;
  L.PageSize = Opts.PageSize;
  bool Splitting = Split && Split->active();
  assert((!Splitting || Split->PerCu.size() == CP.CUs.size()) &&
         "split result must cover every CU");

  // --- .text ---------------------------------------------------------------
  L.CuOrder = CuOrder;
  if (L.CuOrder.empty())
    for (size_t I = 0; I < CP.CUs.size(); ++I)
      L.CuOrder.push_back(int32_t(I));
  assert(L.CuOrder.size() == CP.CUs.size() && "CU order must be a permutation");

  // Hot fragments (or whole CUs) go wherever the active code strategy puts
  // them — splitting composes with cu/method/cluster ordering.
  L.CuOffsets.assign(CP.CUs.size(), 0);
  uint64_t Off = 0;
  for (int32_t CuIdx : L.CuOrder) {
    Off = alignUp(Off, Opts.CuAlignment);
    L.CuOffsets[size_t(CuIdx)] = Off;
    Off += Splitting ? Split->PerCu[size_t(CuIdx)].HotSize
                     : CP.CUs[size_t(CuIdx)].CodeSize;
  }
  if (Splitting) {
    // Cold fragments pack after the last page the hot code can touch, in
    // the same placement order (a pure function of the split decisions and
    // the CU order — byte-identical at any worker count).
    L.ColdTailOffset = alignUp(Off, Opts.PageSize);
    L.CuColdOffsets.assign(CP.CUs.size(), ImageLayout::NotStored);
    uint64_t ColdOff = L.ColdTailOffset;
    for (int32_t CuIdx : L.CuOrder) {
      const CuSplit &S = Split->PerCu[size_t(CuIdx)];
      if (!S.Split)
        continue;
      ColdOff = alignUp(ColdOff, Opts.CuAlignment);
      L.CuColdOffsets[size_t(CuIdx)] = ColdOff;
      ColdOff += S.ColdSize;
    }
    L.ColdTailSize = ColdOff - L.ColdTailOffset;
    Off = ColdOff;
  }
  L.NativeTailOffset = alignUp(Off, Opts.PageSize);
  L.NativeTailSize = Opts.NativeTailSize;
  L.TextSize = L.NativeTailOffset + L.NativeTailSize;

  // --- huge-page overlay ---------------------------------------------------
  // The budget maps the hot .text prefix (everything the code strategies
  // placed, before the cold tail) at 2 MiB granularity. Clamp to the pages
  // the hot prefix justifies: huge pages covering only cold-tail or
  // native-tail bytes would pay the bigger fault for code that never runs
  // at startup. The region is an overlay — no offset above moved.
  L.HugePagesRequested = Opts.HugePages;
  if (Opts.HugePages > 0) {
    uint64_t HotEnd = Splitting ? L.ColdTailOffset : L.NativeTailOffset;
    uint64_t Justified = (HotEnd + HugePageBytes - 1) / HugePageBytes;
    L.HugePages = uint32_t(Opts.HugePages < Justified ? Opts.HugePages
                                                      : Justified);
    L.HugeRegionSize = uint64_t(L.HugePages) * HugePageBytes;
    if (L.HugeRegionSize > L.TextSize)
      L.HugeRegionSize = L.TextSize;
  }

  // --- .svm_heap --------------------------------------------------------------
  L.StaticsBase.assign(P.numClasses(), 0);
  uint64_t HOff = 0;
  for (size_t C = 0; C < P.numClasses(); ++C) {
    L.StaticsBase[C] = HOff;
    HOff += 8 * P.classDef(ClassId(C)).StaticFields.size();
  }
  L.StaticsSize = HOff = alignUp(HOff, Opts.PageSize);

  L.ObjectOrder = ObjectOrder;
  if (L.ObjectOrder.empty())
    for (size_t I = 0; I < Snap.Entries.size(); ++I)
      if (!Snap.Entries[I].Elided)
        L.ObjectOrder.push_back(int32_t(I));
  assert(L.ObjectOrder.size() == Snap.numStored() &&
         "object order must cover exactly the stored entries");

  L.ObjectOffsets.assign(Snap.Entries.size(), ImageLayout::NotStored);
  for (int32_t EntryIdx : L.ObjectOrder) {
    const SnapshotEntry &E = Snap.Entries[size_t(EntryIdx)];
    assert(!E.Elided && "elided entries are not stored");
    HOff = alignUp(HOff, Opts.ObjectAlignment);
    L.ObjectOffsets[size_t(EntryIdx)] = HOff;
    HOff += E.SizeBytes;
  }
  L.HeapSize = alignUp(HOff, Opts.PageSize);
  return L;
}
