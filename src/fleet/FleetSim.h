//===- FleetSim.h - Fleet serving simulator ---------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet serving simulator: N simulated instances of one built image
/// start concurrently under a deterministic event-driven scheduler and
/// share a fork/COW page cache (FleetPageCache). It answers the question
/// the single-process paper setup cannot: what is a page fault worth at 1
/// vs 1000 instances, when the first instance's majors leave warm pages
/// for everyone after it?
///
/// Model: the image is interpreted ONCE, with first-touch recording on
/// (the reference run). Every instance executes the identical workload, so
/// each replays the identical ordered demand-fault trace {page, model
/// clock}; an event-driven scheduler interleaves the N replays by model
/// time. An instance's demand fault is classified against the shared
/// cache — fleet-cold pages pay the per-size major cost and pull their
/// readahead cluster in; warm pages pay only the COW minor cost. Pages the
/// reference run got from its *own* readahead stay free (the instance's
/// private mapping has them regardless of the shared cache). Fault service
/// time shifts every later event of that instance, so concurrent instances
/// leapfrog each other and fault costs spread across the storm.
///
/// Everything is deterministic: one seed drives arrivals, the scheduler
/// breaks time ties by instance id, and the replay trace is a pure
/// function of the (byte-deterministic) image — so fleet results are
/// byte-identical at any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_FLEET_FLEETSIM_H
#define NIMG_FLEET_FLEETSIM_H

#include "src/fleet/Traffic.h"
#include "src/runtime/ExecEngine.h"

#include <cstdint>
#include <vector>

namespace nimg {

struct FleetConfig {
  uint32_t Instances = 1;
  ArrivalKind Arrivals = ArrivalKind::Storm;
  /// Arrival window in model ns (TrafficConfig::WindowNs).
  double ArrivalWindowNs = 1e9;
  uint64_t Seed = 0x5eedf1ee7ULL;
  uint32_t StormBursts = 4;
  /// Shared-cache capacity in pages (both sections); 0 = unlimited.
  uint64_t CachePages = 0;
};

/// Per-instance outcome: when it arrived and how long its cold start took.
struct FleetInstanceStats {
  double ArrivalNs = 0;
  double ColdStartNs = 0; ///< Completion minus arrival.
  uint64_t Majors = 0;
  uint64_t WarmHits = 0;
};

struct FleetResult {
  std::vector<FleetInstanceStats> Instances;
  uint64_t TotalMajors = 0;
  uint64_t TotalWarmHits = 0;
  /// Distinct pages ever major-faulted fleet-wide (vs TotalMajors, which
  /// re-counts thrash re-faults).
  uint64_t UniquePages = 0;
  uint64_t Evictions = 0;
  /// Cold-start percentiles across instances (nearest-rank), model ns.
  double P50Ns = 0;
  double P90Ns = 0;
  double P99Ns = 0;
  double MeanNs = 0;
  /// The single-run anchor: the reference run's fault count and modeled
  /// time. At Instances=1 TotalMajors must equal ReferenceFaults exactly
  /// and P50Ns must equal ReferenceTimeNs, at any page-size mix (per-size
  /// fault charging is byte-exact against the single-run formula).
  uint64_t ReferenceFaults = 0;
  double ReferenceTimeNs = 0;

  /// Warm hits per first-touch classified, in [0, 1].
  double warmHitRatio() const {
    uint64_t Total = TotalMajors + TotalWarmHits;
    return Total == 0 ? 0.0 : double(TotalWarmHits) / double(Total);
  }
};

/// Replays an already-recorded reference run (RunStats with Touches from
/// RunConfig::RecordTouches) through the fleet scheduler. Lets callers
/// sweep fleet sizes / arrival profiles / cache capacities without
/// re-interpreting the workload per sweep point. \p TextSize / \p HeapSize
/// are the image's section sizes; \p Paging and \p Cost must match the
/// reference run's RunConfig for the N=1 anchor to hold.
FleetResult simulateFleet(const RunStats &Reference, uint64_t TextSize,
                          uint64_t HeapSize, const PagingConfig &Paging,
                          const CostModel &Cost, const FleetConfig &Cfg);

/// Runs the reference run (cold cache, first-touch recording) and then the
/// fleet simulation. Emits nimg.fleet.* metrics. \p ReferenceOut, when
/// non-null, receives the reference run's full RunStats (program output,
/// page maps, ...).
FleetResult runFleet(const NativeImage &Img, const RunConfig &RunCfg,
                     const FleetConfig &Cfg,
                     RunStats *ReferenceOut = nullptr);

} // namespace nimg

#endif // NIMG_FLEET_FLEETSIM_H
