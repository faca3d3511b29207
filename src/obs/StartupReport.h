//===- StartupReport.h - Unified startup-report exporter --------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One machine-readable artifact per pipeline invocation (`nimage_cli
/// --report`): per-section page faults (the paper's Sec. 7.1 metric), the
/// Fig. 6 page maps, salvage statistics and profile-ingestion diagnostics.
/// Tests parse it back and check the fault counts against PagingSim.
///
/// JSON and CSV render one ordered field table, `rows()`. JSON nests it as
/// {"schema","version","target","command","variant","run","capture",
/// "image","split","pages","fleet","profile_diag":{...,"issues":[...]},
/// "merge":{...,"manifest":[...]},"salvage":[{"phase","stats"}],"metrics"},
/// omitting absent sections; CSV writes `section,key,value` lines. Only
/// JSON has the page maps, `trap_message`, the issue and manifest objects,
/// salvage `phase` and `clean`, and `metrics`; only CSV has the
/// `profile_diag.issue` and `merge.member` rows.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_OBS_STARTUPREPORT_H
#define NIMG_OBS_STARTUPREPORT_H

#include "src/fleet/FleetSim.h"
#include "src/image/NativeImage.h"
#include "src/profiling/TraceSalvage.h"
#include "src/runtime/ExecEngine.h"

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace nimg {
namespace obs {

inline constexpr uint32_t StartupReportVersion = 1;

/// A report value. Each type has one spelling per form: JSON writes
/// doubles with "%.17g", CSV with std::to_string.
using ReportValue = std::variant<uint64_t, double, bool, std::string>;

/// Which forms carry a row.
enum class ReportForm : uint8_t { Both, JsonOnly, CsvOnly };

/// How JSON renders a row. CSV writes every row it carries as one line.
enum class JsonShape : uint8_t {
  Member, ///< "Key":Value.
  List,   ///< "Key":[...]: its elements are the rows scoped under
          ///< Scope + {Key, <index>}. Value is the element count.
  Splice, ///< "Key":Value, where Value is JSON text copied verbatim.
};

/// One report field. CSV writes it as `Section,Key,Value`; JSON writes it
/// into the object at `Scope`, a path of object names and array indices
/// ({"run"}, {"salvage", "1", "stats"}), empty for the top level.
struct ReportRow {
  std::string Section;
  std::vector<std::string> Scope;
  std::string Key;
  ReportValue Value;
  ReportForm Form = ReportForm::Both;
  JsonShape Shape = JsonShape::Member;
};

class StartupReport {
public:
  std::string Target;  ///< Workload (benchmark name or source path).
  std::string Command; ///< Producing command ("run", "build", "profile").
  std::string Variant; ///< Strategy description, free-form.

  /// The run's counters, trap message and page maps; not its output or
  /// touch trace, which rows() never reads.
  void setRun(const RunStats &Stats);
  /// Image summary + its profile-ingestion diagnostics.
  void setImage(const NativeImage &Img);
  void addSalvage(std::string Phase, const SalvageStats &Stats) {
    Salvage.emplace_back(std::move(Phase), Stats);
  }
  /// Fleet serving-simulation summary (`nimage_cli run --fleet N`).
  void setFleet(const FleetResult &R, const FleetConfig &Cfg);
  /// Appends the global metrics registry snapshot at serialization time.
  void includeMetrics(bool On = true) { WithMetrics = On; }

  /// Every field of the report in report order; toJson and toCsv render
  /// this table and nothing else.
  std::vector<ReportRow> rows() const;

  std::string toJson() const;
  std::string toCsv() const;
  /// Writes JSON, or CSV when \p Path ends in ".csv".
  bool writeFile(const std::string &Path) const;

private:
  /// What the report keeps of a built image: no per-CU or per-object data.
  struct ImageSummary {
    size_t NumCus, SnapshotObjects;
    uint64_t TextSize, HeapSize, HugeRegionSize, Seed;
    bool Instrumented, BuildFailed, Split;
    uint32_t SplitCus, DegradedCus, PageSize, HugePagesRequested, HugePages;
    uint64_t HotBytes, ColdBytes, StubBytes, ColdTailOffset, ColdTailSize;
    ProfileDiagnostics Diag;
  };

  std::optional<RunStats> Run;
  std::optional<ImageSummary> Image;
  /// The fleet's configuration and totals; no per-instance rows.
  std::optional<std::pair<FleetConfig, FleetResult>> Fleet;
  std::vector<std::pair<std::string, SalvageStats>> Salvage;
  bool WithMetrics = false;
};

} // namespace obs
} // namespace nimg

#endif // NIMG_OBS_STARTUPREPORT_H
