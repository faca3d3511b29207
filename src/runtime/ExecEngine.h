//===- ExecEngine.h - Image execution engine --------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a built image: clones the image heap and statics, interprets the
/// program through the compilation-unit code model, drives the paging
/// simulator (cold page cache, Sec. 7.1), schedules cooperative threads
/// deterministically, and — for instrumented images — produces the
/// per-thread traces of Sec. 6.1.
///
/// The execution-time model mirrors the paper's measurement setup:
/// end-to-end time for AWFY-style runs; elapsed time until the first
/// response (followed by a simulated SIGKILL) for microservice runs.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_RUNTIME_EXECENGINE_H
#define NIMG_RUNTIME_EXECENGINE_H

#include "src/image/NativeImage.h"
#include "src/profiling/Trace.h"
#include "src/runtime/CostModel.h"
#include "src/runtime/Interpreter.h"
#include "src/runtime/Paging.h"

#include <string>
#include <vector>

namespace nimg {

class PathGraphCache;

/// Maps invocations onto compilation units and inline copies; implements
/// guarded devirtualization semantics (an inlined virtual callee is used
/// only when the runtime target matches).
class CuCodeModel : public CodeModel {
public:
  explicit CuCodeModel(const CompiledProgram &CP) : CP(CP) {}

  ExecContext enterContext(const ExecContext &Caller, uint32_t SiteId,
                           MethodId Target) override {
    if (Caller.Cu >= 0) {
      const CompilationUnit &CU = CP.CUs[size_t(Caller.Cu)];
      int32_t Copy = CU.inlinedCopyFor(Caller.Copy, SiteId, Target);
      if (Copy >= 0)
        return {Caller.Cu, Copy};
    }
    return {CP.CuOfMethod[size_t(Target)], 0};
  }

private:
  const CompiledProgram &CP;
};

struct RunConfig {
  /// Cold page cache (caches dropped before the run, Sec. 7.1).
  bool ColdCache = true;
  uint64_t ThreadQuantum = 4000;
  uint64_t MaxInstructions = 400'000'000;
  /// Microservice mode: stop timing at the first Sys.respond and SIGKILL
  /// the workload (Sec. 7.1).
  bool StopAtFirstResponse = false;
  PagingConfig Paging;
  CostModel Cost;
  /// Non-null: run with tracing probes enabled (instrumented image).
  const TraceOptions *Trace = nullptr;
  /// Record the ordered first-touch page trace into RunStats::Touches
  /// (reference run for the fleet serving simulator). Touch clocks carry
  /// scheduling-quantum granularity (<= ThreadQuantum instructions).
  bool RecordTouches = false;
};

struct RunStats {
  uint64_t TextFaults = 0;
  uint64_t HeapFaults = 0;
  /// Text faults attributed to the cold tail (subset of TextFaults; 0 for
  /// unsplit images). Hot-side faults are TextFaults - TextColdFaults.
  uint64_t TextColdFaults = 0;
  /// Text faults served by a 2 MiB huge page of the image's front region
  /// (subset of TextFaults; 0 without --huge-pages). These are charged at
  /// the per-size majorFaultNs cost; small-page majors are
  /// totalFaults() - TextHugeFaults.
  uint64_t TextHugeFaults = 0;
  uint64_t Instructions = 0;
  uint64_t ProbeUnits = 0;
  uint64_t PrefetchedPages = 0;
  double TimeNs = 0;
  /// Valid when Responded: elapsed model time at the first response.
  double TimeToFirstResponseNs = 0;
  bool Responded = false;
  bool Trapped = false;
  bool FuelExhausted = false;
  std::string TrapMessage;
  std::string Output;
  /// Distinct stored snapshot objects touched (the paper's ~4 % claim).
  size_t StoredObjectsTouched = 0;
  size_t StoredObjectsTotal = 0;
  /// Page-state maps for the Fig. 6 visualization.
  std::vector<PageState> TextPages;
  std::vector<PageState> HeapPages;
  /// Sampled-mode capture accounting (all zero for instrumented runs).
  /// SamplesTaken counts emitted sample records; SampleEventsSkipped counts
  /// the method-enter/CU-enter transitions the sampler deliberately did
  /// not record (the events an instrumented capture would have paid for).
  uint64_t SamplesTaken = 0;
  uint64_t SampleEventsSkipped = 0;
  /// Distinct sampled CU roots per distinct entered CU root, in permille —
  /// the run-side coverage estimate stamped into sampled profile headers.
  uint32_t SampleCoveragePermille = 0;
  /// Effective period the sampler ran at (0 for instrumented runs).
  uint64_t SamplePeriod = 0;
  /// Ordered first-touch page trace (only when RunConfig::RecordTouches).
  std::vector<PageTouch> Touches;

  uint64_t totalFaults() const { return TextFaults + HeapFaults; }
};

/// What one interpretation did, in terms every layout of the same base
/// shares: the first touch of each item — a CU inline copy entered, a cold
/// block reached (split images), a build-heap cell, a static slot, a
/// native stub — stamped with the scheduling-quantum clock, the response
/// marker, and the run's outcome. Replaying it through a fresh page cache
/// with another image's offsets reproduces that image's RunStats exactly:
/// a run never evicts, so only first touches can fault or prefetch.
struct AccessLog {
  enum class Kind : uint8_t {
    CopyEntry, ///< A = CU index, B = inline copy.
    ColdBlock, ///< A = CU index, B = inline copy, C = block.
    Cell,      ///< A = build-heap cell.
    Static,    ///< A = class, B = static slot.
    Native,    ///< A = native id.
    Respond,   ///< First response; Clock = instructions executed so far.
  };
  struct Event {
    uint64_t Clock;
    int32_t A, B, C;
    Kind K;
  };
  std::vector<Event> Events;
  uint64_t Instructions = 0;
  std::string Output;
  bool Trapped = false;
  bool FuelExhausted = false;
  std::string TrapMessage;
};

/// Runs \p Img to completion (or first response). When \p Cfg.Trace is
/// set, \p TraceOut receives the captured per-thread traces.
///
/// An untraced run of an image whose base sits in the program's build
/// cache interprets once per execution key (StopAtFirstResponse,
/// ThreadQuantum, MaxInstructions, split decisions) and keeps an
/// AccessLog on the base; later such runs of any image of that base
/// replay the log instead of interpreting. Traced and sampled runs and
/// runs of loaded images always interpret and never record.
RunStats runImage(const NativeImage &Img, const RunConfig &Cfg,
                  TraceCapture *TraceOut = nullptr);

/// Runs \p Img once with one tracer per entry of \p Modes attached
/// (\p Cfg.Trace is ignored). Scheduling counts instructions, not probe
/// cost, so every mode observes the same interleaving: capture I and
/// RunStats I equal those of runImage() tracing \p Modes[I] alone — faults,
/// page maps, output and instructions are shared; probe units, TimeNs and
/// TimeToFirstResponseNs are each tracer's own. Path graphs come from
/// \p Paths. TraceMode::Sampled is rejected (the process aborts): its
/// sampler clamps scheduling quanta and so changes the interleaving; run
/// it alone through runImage().
std::vector<RunStats> runImageTraced(const NativeImage &Img,
                                     const RunConfig &Cfg,
                                     const std::vector<TraceOptions> &Modes,
                                     std::vector<TraceCapture> &Captures,
                                     PathGraphCache &Paths);

} // namespace nimg

#endif // NIMG_RUNTIME_EXECENGINE_H
