//===- StartupReport.h - Unified startup-report exporter --------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One machine-readable artifact per pipeline invocation: per-section page
/// fault counts (the paper's Sec. 7.1 metric), the Fig. 6 page-state map,
/// trace-salvage statistics, and the build's profile-ingestion diagnostics,
/// unified into a single JSON (or flat CSV) document. `nimage_cli --report
/// out.json` writes it; tests parse it back and check the fault counts
/// against PagingSim exactly.
///
/// Schema (JSON): {"schema":"nimg-startup-report","version":1,"target":...,
/// "command":...,"run":{...},"image":{...},"profile_diag":{...},
/// "salvage":[...],"metrics":{...}}; absent sections are omitted, not
/// emitted empty. The CSV form flattens the same keys into section,key,value
/// rows (page maps are elided there).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_OBS_STARTUPREPORT_H
#define NIMG_OBS_STARTUPREPORT_H

#include "src/fleet/FleetSim.h"
#include "src/image/NativeImage.h"
#include "src/profiling/TraceSalvage.h"
#include "src/runtime/ExecEngine.h"

#include <string>
#include <utility>
#include <vector>

namespace nimg {
namespace obs {

inline constexpr uint32_t StartupReportVersion = 1;

/// Renders a Fig. 6 page map as one character per page: '#' faulted,
/// '+' prefetched by readahead, '.' untouched.
std::string pageMapString(const std::vector<PageState> &Pages);

class StartupReport {
public:
  std::string Target;  ///< Workload (benchmark name or source path).
  std::string Command; ///< Producing command ("run", "build", "profile").
  std::string Variant; ///< Strategy description, free-form.

  void setRun(const RunStats &Stats) {
    Run = Stats;
    HasRun = true;
  }
  /// Worker count the pipeline ran with (`--jobs` / NIMG_JOBS); 0 = unset.
  void setJobs(int N) { Jobs = N; }
  /// Image summary + its profile-ingestion diagnostics.
  void setImage(const NativeImage &Img);
  void addSalvage(std::string Phase, const SalvageStats &Stats) {
    Salvage.emplace_back(std::move(Phase), Stats);
  }
  /// Fleet serving-simulation summary (`nimage_cli run --fleet N`).
  void setFleet(const FleetResult &R, const FleetConfig &Cfg) {
    HasFleet = true;
    Fleet = R;
    Fleet.Instances.clear(); // Summary only; per-instance rows stay out.
    FleetCfg = Cfg;
  }
  /// Appends the global metrics registry snapshot at serialization time.
  void includeMetrics(bool On = true) { WithMetrics = On; }

  bool hasRun() const { return HasRun; }
  const RunStats &run() const { return Run; }

  std::string toJson() const;
  std::string toCsv() const;
  /// Writes JSON, or CSV when \p Path ends in ".csv".
  bool writeFile(const std::string &Path) const;

private:
  bool HasRun = false;
  RunStats Run;
  int Jobs = 0;

  bool HasImage = false;
  size_t NumCus = 0;
  size_t SnapshotObjects = 0;
  uint64_t TextSize = 0;
  uint64_t HeapSize = 0;
  uint64_t Seed = 0;
  bool Instrumented = false;
  bool BuildFailed = false;

  /// Hot/cold splitting summary (present when the image was built with
  /// --split hotcold, even if every CU degraded to unsplit).
  bool HasSplit = false;
  uint32_t SplitCus = 0;
  uint32_t SplitDegradedCus = 0;
  uint64_t SplitHotBytes = 0;
  uint64_t SplitColdBytes = 0;
  uint64_t SplitStubBytes = 0;
  uint64_t ColdTailOffset = 0;
  uint64_t ColdTailSize = 0;

  /// Multi-size page geometry (present when the image was built with
  /// --huge-pages, even if the budget was clamped to zero effective pages).
  bool HasPages = false;
  uint32_t HugePagesRequested = 0;
  uint32_t HugePages = 0;
  uint64_t HugeRegionSize = 0;
  uint32_t PageSize = 0;

  bool HasFleet = false;
  FleetResult Fleet;
  FleetConfig FleetCfg;

  bool HasDiag = false;
  ProfileDiagnostics Diag;

  std::vector<std::pair<std::string, SalvageStats>> Salvage;
  bool WithMetrics = false;
};

} // namespace obs
} // namespace nimg

#endif // NIMG_OBS_STARTUPREPORT_H
