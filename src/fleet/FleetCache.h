//===- FleetCache.h - Shared fork/COW page cache ----------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's shared page cache: every simulated instance maps the same
/// image file, so a page one instance major-faults in is already in the
/// page cache when a later instance first touches it — the later instance
/// pays only a minor fault to map it copy-on-write (writes go to private
/// anonymous pages that cost nothing extra in this model). This fork/COW
/// sharing is the mechanism that amortizes layout quality across a fleet.
///
/// The cache takes its page geometry from a PagingSim — the page counts,
/// the native page size and the aligned readahead cluster a fault pulls
/// in, the same const functions single runs are measured with — which is
/// what makes the N=1 anchor exact: one instance driving the shared cache
/// reproduces the single-run fault set byte for byte. It never drives that
/// simulator, though, so fleet majors stay out of the nimg.paging.*
/// counters. Residency is one byte per page; an optional capacity knob
/// evicts in FIFO order (page-in order, no re-use promotion — the policy
/// PagingSim's resident list models) from a ring buffer sized to what can
/// be resident, so a storm larger than the cache can thrash.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_FLEET_FLEETCACHE_H
#define NIMG_FLEET_FLEETCACHE_H

#include "src/runtime/Paging.h"

#include <cstdint>
#include <vector>

namespace nimg {

/// Outcome of one instance first-touch against the shared cache.
enum class FleetTouch : uint8_t {
  Major,   ///< Page was cold fleet-wide: device read + readahead.
  WarmHit, ///< Page already in the shared cache: COW minor fault.
};

class FleetPageCache {
public:
  /// \p CapacityPages 0 = unlimited. A nonzero capacity is clamped up to
  /// the readahead cluster size so a single fault's own cluster cannot
  /// evict the page that faulted it in.
  FleetPageCache(uint64_t TextSize, uint64_t HeapSize,
                 const PagingConfig &Config, uint64_t CapacityPages = 0);

  /// An instance demand-faults \p Page of \p Sec (a WasFault event of the
  /// reference trace). Classifies it against the shared cache, pulls the
  /// readahead cluster in on a major, and applies capacity eviction.
  FleetTouch touchPage(ImageSection Sec, uint64_t Page) {
    if (Page >= PageCount[size_t(Sec)])
      return FleetTouch::WarmHit; // Out of range: free, like PagingSim::touch.
    if (State[size_t(Base[size_t(Sec)] + Page)] & Resident) {
      // Already in the shared cache (faulted or read ahead by an earlier
      // instance): minor fault only.
      ++WarmHits;
      return FleetTouch::WarmHit;
    }
    faultIn(Sec, Page);
    return FleetTouch::Major;
  }

  uint64_t majors() const { return Majors; }
  uint64_t warmHits() const { return WarmHits; }
  /// Distinct (section, page) pairs ever major-faulted fleet-wide — the
  /// device reads a fleet of private caches would each have repaid.
  uint64_t uniquePages() const { return UniquePages; }
  uint64_t evictions() const { return Evictions; }

  /// The page geometry (sizes, clusters) the cache classifies against.
  const PagingSim &geometry() const { return Geometry; }

private:
  enum : uint8_t { Resident = 1, EverFaulted = 2 };

  /// The major path: marks \p Page and the cold pages of its readahead
  /// cluster resident, queues them in page-in order, then evicts the
  /// oldest pages past the capacity.
  void faultIn(ImageSection Sec, uint64_t Page);

  void pushFifo(uint64_t Slot) {
    Fifo[size_t(FifoTail)] = Slot;
    if (++FifoTail == Fifo.size())
      FifoTail = 0;
    ++FifoLen;
  }

  const PagingSim Geometry;
  uint64_t Capacity; ///< In pages across both sections; 0 = unlimited.
  uint64_t PageCount[2];
  /// Index of a section's first page in State: text pages, then heap.
  uint64_t Base[2];
  /// Resident | EverFaulted bits, one byte per page of both sections.
  std::vector<uint8_t> State;
  /// Resident pages (State indices) in page-in order, a ring of
  /// min(capacity, image pages) + one readahead cluster slots: what stays
  /// resident plus what one fault adds before eviction trims it.
  std::vector<uint64_t> Fifo;
  uint64_t FifoHead = 0, FifoTail = 0, FifoLen = 0;
  uint64_t Majors = 0;
  uint64_t WarmHits = 0;
  uint64_t UniquePages = 0;
  uint64_t Evictions = 0;
};

} // namespace nimg

#endif // NIMG_FLEET_FLEETCACHE_H
