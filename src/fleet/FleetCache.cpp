//===- FleetCache.cpp - Shared fork/COW page cache --------------------------===//

#include "src/fleet/FleetCache.h"

#include <algorithm>

using namespace nimg;

FleetPageCache::FleetPageCache(uint64_t TextSize, uint64_t HeapSize,
                               const PagingConfig &Config,
                               uint64_t CapacityPages)
    : Geometry(TextSize, HeapSize, Config), Capacity(CapacityPages) {
  if (Capacity != 0 && Capacity < Config.ReadaheadPages)
    Capacity = Config.ReadaheadPages;
  PageCount[0] = Geometry.pageStates(ImageSection::Text).size();
  PageCount[1] = Geometry.pageStates(ImageSection::HeapSec).size();
  Base[0] = 0;
  Base[1] = PageCount[0];
  uint64_t Pages = PageCount[0] + PageCount[1];
  State.assign(size_t(Pages), 0);
  // A fault queues at most one readahead cluster on top of what eviction
  // left resident (never more than the capacity, never more than the
  // image), so the ring never overflows — and a huge cap allocates
  // nothing proportional to itself.
  uint64_t Resident = Capacity == 0 ? Pages : std::min(Capacity, Pages);
  Fifo.assign(size_t(Resident + Config.ReadaheadPages), 0);
}

void FleetPageCache::faultIn(ImageSection Sec, uint64_t Page) {
  // Fleet-wide cold: a major that pulls the aligned readahead cluster in
  // exactly as a single run would. The FIFO takes the faulting page, then
  // the cluster's cold pages ascending. The cluster and the page sizes
  // come from the geometry, so a huge text page is its own cluster and
  // occupies one FIFO slot, same as in the per-instance resident list.
  uint64_t ClusterStart, ClusterEnd;
  Geometry.clusterRange(Sec, Page, ClusterStart, ClusterEnd);
  uint64_t B = Base[size_t(Sec)];
  uint8_t &Faulted = State[size_t(B + Page)];
  if (!(Faulted & EverFaulted))
    ++UniquePages;
  Faulted |= Resident | EverFaulted;
  pushFifo(B + Page);
  for (uint64_t Ahead = B + ClusterStart; Ahead < B + ClusterEnd; ++Ahead)
    if (!(State[size_t(Ahead)] & Resident)) {
      State[size_t(Ahead)] |= Resident;
      pushFifo(Ahead);
    }
  ++Majors;

  if (Capacity == 0)
    return;
  for (; FifoLen > Capacity; --FifoLen) {
    // The FIFO holds exactly the resident pages, each once, so the front
    // is always resident.
    State[size_t(Fifo[size_t(FifoHead)])] &= uint8_t(~Resident);
    if (++FifoHead == Fifo.size())
      FifoHead = 0;
    ++Evictions;
  }
}
