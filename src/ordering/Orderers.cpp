//===- Orderers.cpp - Code and heap ordering steps --------------------------===//

#include "src/ordering/Orderers.h"

#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"
#include "src/support/SplitMix64.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <string_view>

using namespace nimg;

const char *nimg::codeStrategyName(CodeStrategy S) {
  switch (S) {
  case CodeStrategy::None:
    return "baseline";
  case CodeStrategy::CuOrder:
    return "cu";
  case CodeStrategy::MethodOrder:
    return "method";
  case CodeStrategy::Cluster:
    return "cluster";
  }
  return "?";
}

namespace {

uint64_t sigHash(std::string_view Sig) {
  return std::hash<std::string_view>()(Sig);
}

} // namespace

std::vector<uint64_t> nimg::methodSigHashes(const Program &P) {
  std::vector<uint64_t> Hashes(P.numMethods());
  for (size_t M = 0; M < Hashes.size(); ++M)
    Hashes[M] = sigHash(P.method(MethodId(M)).Sig);
  return Hashes;
}

std::vector<int32_t> nimg::orderCusWithProfile(const Program &P,
                                               const CompiledProgram &CP,
                                               const CodeProfile &Profile,
                                               CodeStrategy Strategy) {
  return orderCusWithProfile(P, CP, Profile, Strategy, methodSigHashes(P));
}

std::vector<int32_t>
nimg::orderCusWithProfile(const Program &P, const CompiledProgram &CP,
                          const CodeProfile &Profile, CodeStrategy Strategy,
                          std::span<const uint64_t> SigHashes) {
  bool MethodBased = Strategy == CodeStrategy::MethodOrder;
  NIMG_SPAN_NAMED(OrderSpan, "order", "orderCusWithProfile");
  NIMG_SPAN_ARG(OrderSpan, "based_on", codeStrategyName(Strategy));
  NIMG_COUNTER_ADD("nimg.order.code.runs", 1);
  NIMG_COUNTER_ADD("nimg.order.code.profile_sigs", Profile.Sigs.size());
  assert(SigHashes.size() == P.numMethods() && "hashes of another program");

  // Profile position by signature, in an open-addressed table of (hash,
  // position) at most half full. A repeated signature keeps its first
  // position; signatures whose hashes collide each keep their own slot.
  const size_t Unranked = ~size_t(0);
  struct Slot {
    uint64_t Hash = 0;
    size_t Rank = Unranked; ///< Unranked: an empty slot.
  };
  size_t Mask = 1;
  while (Mask + 1 < 2 * Profile.Sigs.size())
    Mask = 2 * Mask + 1;
  std::vector<Slot> Slots(Mask + 1);
  // The slot holding \p Sig, or the empty one where it would go.
  auto Find = [&](uint64_t Hash, std::string_view Sig) -> Slot & {
    size_t I = size_t(mix64(Hash, 0)) & Mask;
    while (Slots[I].Rank != Unranked &&
           (Slots[I].Hash != Hash || Profile.Sigs[Slots[I].Rank] != Sig))
      I = (I + 1) & Mask;
    return Slots[I];
  };
  for (size_t I = 0; I < Profile.Sigs.size(); ++I) {
    uint64_t Hash = sigHash(Profile.Sigs[I]);
    Slot &S = Find(Hash, Profile.Sigs[I]);
    if (S.Rank == Unranked)
      S = {Hash, I};
  }

  auto RankOf = [&](MethodId M) {
    return Find(SigHashes[size_t(M)], P.method(M).Sig).Rank;
  };

  std::vector<size_t> Key(CP.CUs.size(), Unranked);
  for (size_t Cu = 0; Cu < CP.CUs.size(); ++Cu) {
    if (!MethodBased) {
      Key[Cu] = RankOf(CP.CUs[Cu].Root);
      continue;
    }
    // Method ordering: a CU is as early as the earliest-executed method it
    // contains (root or inlined copy).
    size_t Best = Unranked;
    for (const InlineCopy &Copy : CP.CUs[Cu].Copies)
      Best = std::min(Best, RankOf(Copy.Method));
    Key[Cu] = Best;
  }

  std::vector<int32_t> Order(CP.CUs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = int32_t(I);
  // CUs are created in the default (alphabetical) order, so a stable sort
  // keeps unprofiled CUs in their default relative order.
  std::stable_sort(Order.begin(), Order.end(), [&](int32_t A, int32_t B) {
    return Key[size_t(A)] < Key[size_t(B)];
  });
  return Order;
}

std::vector<int32_t> nimg::orderObjectsWithProfile(const HeapSnapshot &Snap,
                                                   const IdTable &Ids,
                                                   HeapStrategy Strategy,
                                                   const HeapProfile &Profile,
                                                   HeapMatchStats *Stats) {
  NIMG_SPAN_NAMED(OrderSpan, "order", "orderObjectsWithProfile");
  NIMG_SPAN_ARG(OrderSpan, "strategy", heapStrategyName(Strategy));
  NIMG_COUNTER_ADD("nimg.order.heap.runs", 1);

  const std::vector<uint64_t> &Table = Ids.of(Strategy);
  assert(Table.size() == Snap.Entries.size() &&
         "identity table does not match the snapshot");

  // Id -> the earliest unmatched stored entry bearing it, in an
  // open-addressed table at most half full; Next[E] is the following
  // stored entry with E's id (-1 after the last). Built in reverse so each
  // chain runs in default order; a match pops its head.
  constexpr int32_t Empty = std::numeric_limits<int32_t>::min();
  struct Slot {
    uint64_t Id = 0;
    int32_t Head = Empty; ///< -1 once every entry with Id is matched.
  };
  size_t Mask = 1;
  while (Mask + 1 < 2 * Snap.Entries.size())
    Mask = 2 * Mask + 1;
  std::vector<Slot> Slots(Mask + 1);
  auto Find = [&](uint64_t Id) -> Slot & {
    size_t I = size_t(mix64(Id, 0)) & Mask;
    while (Slots[I].Head != Empty && Slots[I].Id != Id)
      I = (I + 1) & Mask;
    return Slots[I];
  };
  std::vector<int32_t> Next(Snap.Entries.size(), -1);
  for (size_t I = Snap.Entries.size(); I > 0; --I) {
    size_t Idx = I - 1;
    if (Snap.Entries[Idx].Elided)
      continue;
    Slot &S = Find(Table[Idx]);
    if (S.Head != Empty)
      Next[Idx] = S.Head;
    S.Id = Table[Idx];
    S.Head = int32_t(Idx);
  }

  std::vector<int32_t> Hot;
  std::vector<bool> Placed(Snap.Entries.size(), false);
  size_t Matched = 0;
  for (uint64_t Id : Profile.Ids) {
    Slot &S = Find(Id);
    if (S.Head < 0)
      continue;
    int32_t Entry = S.Head;
    S.Head = Next[size_t(Entry)];
    Hot.push_back(Entry);
    Placed[size_t(Entry)] = true;
    ++Matched;
  }

  std::vector<int32_t> Order = std::move(Hot);
  for (size_t I = 0; I < Snap.Entries.size(); ++I)
    if (!Snap.Entries[I].Elided && !Placed[I])
      Order.push_back(int32_t(I));

  if (Stats) {
    Stats->ProfileIds = Profile.Ids.size();
    Stats->Matched = Matched;
    Stats->Stored = Snap.numStored();
  }
  // Match quality drives the whole heap-ordering payoff (Sec. 5), so it is
  // always surfaced, with or without a Stats out-param.
  NIMG_COUNTER_ADD("nimg.order.heap.profile_ids", Profile.Ids.size());
  NIMG_COUNTER_ADD("nimg.order.heap.matched", Matched);
  return Order;
}
