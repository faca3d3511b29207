//===- FleetSim.cpp - Fleet serving simulator -------------------------------===//

#include "src/fleet/FleetSim.h"

#include "src/fleet/FleetCache.h"
#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"

#include <algorithm>
#include <cstring>

using namespace nimg;

namespace {

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  size_t Rank = size_t(Q * double(Sorted.size()) + 0.999999);
  if (Rank == 0)
    Rank = 1;
  if (Rank > Sorted.size())
    Rank = Sorted.size();
  return Sorted[Rank - 1];
}

/// Absolute model time of an instance's demand fault at recorded model
/// clock \p Clock, given the fault service time it has accumulated so far.
/// Both replay paths order instances by this one expression.
double eventTime(double ArrivalNs, const CostModel &Cost, uint64_t Clock,
                 double FaultAccumNs) {
  return ArrivalNs + Cost.BaseNs + double(Clock) * Cost.InstrNs +
         FaultAccumNs;
}

/// A trace index at which the fleet takes a major fault, and its cost.
struct MajorAt {
  size_t Index;
  double CostNs;
};

/// The no-eviction closed form. Pages never leave the cache, so each
/// readahead cluster majors exactly once, at the first trace index that
/// touches it (\p Majors, from the N=1 pass), and every other event is a
/// warm hit. The heap pops events in ascending (time, id) and an
/// instance's times never decrease along the trace, so that major goes to
/// the instance whose event at that index has the smallest (time, id).
/// Each instance's fault service time is summed in trace order, the same
/// += sequence the scheduler performs.
void replayClosedForm(const std::vector<MajorAt> &Majors, size_t TraceLen,
                      const std::vector<uint64_t> &DemandClocks,
                      const std::vector<double> &Arrivals,
                      const CostModel &Cost, FleetResult &R,
                      std::vector<double> &FaultAccumNs) {
  size_t N = FaultAccumNs.size();
  size_t NextMajor = 0;
  for (size_t K = 0; K < TraceLen; ++K) {
    size_t Winner = N; // N: every instance takes a warm hit at K.
    double MajorNs = 0;
    if (NextMajor < Majors.size() && Majors[NextMajor].Index == K) {
      MajorNs = Majors[NextMajor++].CostNs;
      double Best = 0;
      for (size_t Inst = 0; Inst < N; ++Inst) {
        double T = eventTime(Arrivals[Inst], Cost, DemandClocks[K],
                             FaultAccumNs[Inst]);
        if (Winner == N || T < Best) {
          Best = T;
          Winner = Inst;
        }
      }
      ++R.Instances[Winner].Majors;
    }
    for (size_t Inst = 0; Inst < N; ++Inst)
      FaultAccumNs[Inst] += Inst == Winner ? MajorNs : Cost.MinorFaultNs;
  }
  for (FleetInstanceStats &S : R.Instances)
    S.WarmHits = TraceLen - S.Majors;
}

/// A binary min-heap of each replaying instance's next demand fault,
/// ordered by (absolute model time, instance id): ties go to the lower id,
/// so the pop order is fully deterministic. Advancing the top instance to
/// its next event is one sift-down, not a pop and a push.
class EventHeap {
public:
  /// One event as a single integer key: the time's order-preserving bit
  /// pattern above the instance id. Integer compares of the key order
  /// events exactly as (time, id) does, at a fraction of the latency of a
  /// floating-point compare chain.
  using Key = unsigned __int128;

  static Key key(double TimeNs, uint32_t Inst) {
    // Adding +0.0 folds -0.0 into +0.0, so equal times get equal bits.
    // Flipping the sign bit of a positive double (every bit of a
    // negative one) makes the bits compare as unsigned integers in the
    // doubles' order.
    double Canonical = TimeNs + 0.0;
    uint64_t Bits;
    std::memcpy(&Bits, &Canonical, sizeof(Bits));
    Bits ^= uint64_t(int64_t(Bits) >> 63) | (uint64_t(1) << 63);
    return Key(Bits) << 32 | Inst;
  }

  explicit EventHeap(std::vector<Key> Keys)
      : H(std::move(Keys)), Size(H.size()) {
    // One slot past the end always holds a sentinel that sorts after
    // every event, so a sift-down compares both children unconditionally.
    H.push_back(~Key(0));
    for (size_t I = Size / 2; I-- > 0;)
      siftDown(I, H[I]);
  }

  bool empty() const { return Size == 0; }
  uint32_t top() const { return uint32_t(H[0]); }
  /// The top instance's next event replaces its current one.
  void replaceTop(Key K) { siftDown(0, K); }
  /// The top instance has replayed its whole trace.
  void popTop() {
    Key Last = H[--Size];
    H[Size] = ~Key(0);
    if (Size != 0)
      siftDown(0, Last);
  }

private:
  void siftDown(size_t I, Key K) {
    for (size_t C = 2 * I + 1; C < Size; C = 2 * I + 1) {
      C += H[C + 1] < H[C]; // The smaller child, without a branch.
      if (!(H[C] < K))
        break;
      H[I] = H[C];
      I = C;
    }
    H[I] = K;
  }

  std::vector<Key> H;
  size_t Size;
};

/// The event-driven scheduler, for caches that evict: every instance's
/// every demand fault is classified against the shared cache in
/// (time, id) order.
void replayScheduled(
    const std::vector<std::pair<ImageSection, uint64_t>> &DemandPages,
    const std::vector<uint64_t> &DemandClocks,
    const std::vector<double> &Arrivals, const CostModel &Cost,
    FleetPageCache &Cache, FleetResult &R,
    std::vector<double> &FaultAccumNs) {
  uint32_t N = uint32_t(FaultAccumNs.size());
  size_t TraceLen = DemandPages.size();
  if (TraceLen == 0)
    return;
  std::vector<size_t> NextEvent(N, 0);
  std::vector<EventHeap::Key> First(N);
  for (uint32_t Inst = 0; Inst < N; ++Inst)
    First[Inst] = EventHeap::key(
        eventTime(Arrivals[Inst], Cost, DemandClocks[0], 0.0), Inst);
  EventHeap Queue(std::move(First));
  while (!Queue.empty()) {
    uint32_t Inst = Queue.top();
    size_t Idx = NextEvent[Inst]++;
    auto [Sec, Page] = DemandPages[Idx];
    if (Cache.touchPage(Sec, Page) == FleetTouch::Major) {
      ++R.Instances[Inst].Majors;
      // Charged at the page's native size: a fault in the huge-page text
      // region pays the one-seek-plus-bigger-transfer huge service time,
      // everything else the base-page cost. All service costs are
      // integer-valued ns, so this per-fault accumulation reproduces the
      // reference run's multiplied formula exactly (the N=1 anchor).
      FaultAccumNs[Inst] +=
          Cost.majorFaultNs(Cache.geometry().pageSizeBytes(Sec, Page));
    } else {
      FaultAccumNs[Inst] += Cost.MinorFaultNs;
    }
    if (Idx + 1 < TraceLen)
      Queue.replaceTop(
          EventHeap::key(eventTime(Arrivals[Inst], Cost, DemandClocks[Idx + 1],
                                   FaultAccumNs[Inst]),
                         Inst));
    else
      Queue.popTop();
  }
  for (FleetInstanceStats &S : R.Instances)
    S.WarmHits = TraceLen - S.Majors;
}

} // namespace

FleetResult nimg::simulateFleet(const RunStats &Reference, uint64_t TextSize,
                                uint64_t HeapSize, const PagingConfig &Paging,
                                const CostModel &Cost,
                                const FleetConfig &Cfg) {
  FleetResult R;
  R.ReferenceFaults = Reference.totalFaults();
  R.ReferenceTimeNs = Reference.TimeNs;
  if (Cfg.Instances == 0)
    return R;

  // The shared demand-fault trace: WasFault first-touches of the reference
  // run, in program order. Touches the reference got from its own
  // readahead are dropped here — every instance's private readahead covers
  // them identically, at no additional device or mapping cost.
  std::vector<std::pair<ImageSection, uint64_t>> DemandPages;
  std::vector<uint64_t> DemandClocks;
  for (const PageTouch &T : Reference.Touches) {
    if (!T.WasFault)
      continue;
    DemandPages.emplace_back(T.Sec, T.Page);
    DemandClocks.push_back(T.Clock);
  }

  TrafficConfig Traffic;
  Traffic.Kind = Cfg.Arrivals;
  Traffic.Instances = Cfg.Instances;
  Traffic.WindowNs = Cfg.ArrivalWindowNs;
  Traffic.Seed = Cfg.Seed;
  Traffic.StormBursts = Cfg.StormBursts;
  std::vector<double> Arrivals = generateArrivals(Traffic);

  // Everything after the last demand fault: remaining instructions plus
  // any probe overhead, identical for every instance.
  double TailNs = Cost.BaseNs + double(Reference.Instructions) * Cost.InstrNs +
                  double(Reference.ProbeUnits) * Cost.ProbeUnitNs;

  R.Instances.resize(Cfg.Instances);
  for (uint32_t Inst = 0; Inst < Cfg.Instances; ++Inst)
    R.Instances[Inst].ArrivalNs = Arrivals[Inst];
  std::vector<double> FaultAccumNs(Cfg.Instances, 0.0);

  // The N=1 replay picks the path. Its majors are the first touches of
  // each readahead cluster; if it evicted nothing, no fleet size can
  // evict either (every instance loads the same clusters), and the
  // closed form replays the fleet without a scheduler.
  FleetPageCache Pass(TextSize, HeapSize, Paging, Cfg.CachePages);
  std::vector<MajorAt> Majors;
  for (size_t K = 0; K < DemandPages.size() && Pass.evictions() == 0; ++K) {
    auto [Sec, Page] = DemandPages[K];
    if (Pass.touchPage(Sec, Page) == FleetTouch::Major)
      Majors.push_back(
          {K, Cost.majorFaultNs(Pass.geometry().pageSizeBytes(Sec, Page))});
  }

  uint64_t Scheduled = 0;
  if (Pass.evictions() == 0) {
    replayClosedForm(Majors, DemandPages.size(), DemandClocks, Arrivals, Cost,
                     R, FaultAccumNs);
    R.TotalMajors = Pass.majors();
    // Every instance classifies the pass's in-range events; all but the
    // majors are warm fleet-wide. Out-of-range pages are warm hits for
    // the instance but are not counted by the cache.
    R.TotalWarmHits = (Pass.warmHits() + Pass.majors()) * Cfg.Instances -
                      Pass.majors();
    R.UniquePages = Pass.uniquePages();
  } else {
    FleetPageCache Cache(TextSize, HeapSize, Paging, Cfg.CachePages);
    replayScheduled(DemandPages, DemandClocks, Arrivals, Cost, Cache, R,
                    FaultAccumNs);
    Scheduled = uint64_t(Cfg.Instances) * DemandPages.size();
    R.TotalMajors = Cache.majors();
    R.TotalWarmHits = Cache.warmHits();
    R.UniquePages = Cache.uniquePages();
    R.Evictions = Cache.evictions();
  }
  NIMG_COUNTER_ADD("nimg.fleet.scheduled_events", Scheduled);

  std::vector<double> ColdStarts;
  ColdStarts.reserve(Cfg.Instances);
  for (uint32_t Inst = 0; Inst < Cfg.Instances; ++Inst) {
    FleetInstanceStats &S = R.Instances[Inst];
    S.ColdStartNs = TailNs + FaultAccumNs[Inst];
    ColdStarts.push_back(S.ColdStartNs);
    R.MeanNs += S.ColdStartNs;
  }
  R.MeanNs /= double(Cfg.Instances);
  std::sort(ColdStarts.begin(), ColdStarts.end());
  R.P50Ns = percentile(ColdStarts, 0.50);
  R.P90Ns = percentile(ColdStarts, 0.90);
  R.P99Ns = percentile(ColdStarts, 0.99);
  return R;
}

FleetResult nimg::runFleet(const NativeImage &Img, const RunConfig &RunCfg,
                           const FleetConfig &Cfg, RunStats *ReferenceOut) {
  NIMG_SPAN_NAMED(FleetSpan, "pipeline", "runFleet");
  RunConfig RefCfg = RunCfg;
  RefCfg.RecordTouches = true;
  // The simulation is about cold starts: a warm-cache reference would
  // record its pre-faulting as demand faults and break the N=1 anchor.
  RefCfg.ColdCache = true;
  RunStats Reference = runImage(Img, RefCfg);
  // Mirror the engine's paging setup: an image built with a huge-page
  // budget maps its text region at huge granularity unless the run config
  // overrides the count — the shared cache must use the same page index
  // space as the reference run for the N=1 anchor to hold.
  PagingConfig PC = RunCfg.Paging;
  if (PC.HugeTextPages == 0)
    PC.HugeTextPages = Img.Layout.HugePages;
  FleetResult R =
      simulateFleet(Reference, Img.Layout.TextSize, Img.Layout.HeapSize, PC,
                    RunCfg.Cost, Cfg);
  if (ReferenceOut)
    *ReferenceOut = std::move(Reference);
  NIMG_COUNTER_ADD("nimg.fleet.runs", 1);
  NIMG_COUNTER_ADD("nimg.fleet.instances", Cfg.Instances);
  NIMG_COUNTER_ADD("nimg.fleet.major_faults", R.TotalMajors);
  NIMG_COUNTER_ADD("nimg.fleet.warm_hits", R.TotalWarmHits);
  NIMG_COUNTER_ADD("nimg.fleet.unique_pages", R.UniquePages);
  NIMG_COUNTER_ADD("nimg.fleet.evictions", R.Evictions);
  for (const FleetInstanceStats &S : R.Instances)
    NIMG_HIST_RECORD("nimg.fleet.cold_start_ns", uint64_t(S.ColdStartNs));
  return R;
}
