//===- StartupReport.cpp - Unified startup-report exporter ------------------===//

#include "src/obs/StartupReport.h"

#include "src/obs/Json.h"
#include "src/obs/Metrics.h"
#include "src/support/AtomicFile.h"
#include "src/support/Csv.h"

using namespace nimg;
using namespace nimg::obs;

void StartupReport::setImage(const NativeImage &Img) {
  const SplitResult &S = Img.Split;
  const ImageLayout &L = Img.Layout;
  Image = ImageSummary{
      Img.code().CUs.size(), Img.Snapshot.Entries.size(), L.TextSize,
      L.HeapSize, L.HugeRegionSize, Img.Seed, Img.Instrumented,
      Img.Built.Failed, S.active(), S.SplitCus, S.DegradedCus, L.PageSize,
      L.HugePagesRequested, L.HugePages, S.HotBytes, S.ColdBytes,
      S.StubBytes, L.ColdTailOffset, L.ColdTailSize, Img.ProfileDiag};
}

void StartupReport::setRun(const RunStats &S) {
  Run.emplace(RunStats{.TextFaults = S.TextFaults, .HeapFaults = S.HeapFaults,
      .TextColdFaults = S.TextColdFaults, .TextHugeFaults = S.TextHugeFaults,
      .Instructions = S.Instructions, .ProbeUnits = S.ProbeUnits,
      .PrefetchedPages = S.PrefetchedPages, .TimeNs = S.TimeNs,
      .TimeToFirstResponseNs = S.TimeToFirstResponseNs,
      .Responded = S.Responded, .Trapped = S.Trapped,
      .FuelExhausted = S.FuelExhausted, .TrapMessage = S.TrapMessage,
      .Output = {}, .StoredObjectsTouched = S.StoredObjectsTouched,
      .StoredObjectsTotal = S.StoredObjectsTotal, .TextPages = S.TextPages,
      .HeapPages = S.HeapPages, .SamplesTaken = S.SamplesTaken,
      .SampleEventsSkipped = S.SampleEventsSkipped,
      .SampleCoveragePermille = S.SampleCoveragePermille,
      .SamplePeriod = S.SamplePeriod, .Touches = {}});
}

void StartupReport::setFleet(const FleetResult &R, const FleetConfig &Cfg) {
  Fleet.emplace(Cfg, FleetResult{.Instances = {},
      .TotalMajors = R.TotalMajors, .TotalWarmHits = R.TotalWarmHits,
      .UniquePages = R.UniquePages, .Evictions = R.Evictions,
      .P50Ns = R.P50Ns, .P90Ns = R.P90Ns, .P99Ns = R.P99Ns,
      .MeanNs = R.MeanNs, .ReferenceFaults = R.ReferenceFaults,
      .ReferenceTimeNs = R.ReferenceTimeNs});
}

namespace {

/// Appends rows to the current CSV section and JSON scope.
struct RowWriter {
  std::vector<ReportRow> Rows;
  std::string Section = "report"; ///< The envelope: JSON's top level.
  std::vector<std::string> Scope;
  ReportRow List; ///< The last list row.

  void section(std::string Csv, std::vector<std::string> Json) {
    Section = std::move(Csv);
    Scope = std::move(Json);
  }
  void section(const std::string &Name) { section(Name, {Name}); }
  void add(std::string Key, ReportValue V, ReportForm Form = ReportForm::Both,
           JsonShape Shape = JsonShape::Member) {
    Rows.push_back({Section, Scope, std::move(Key), std::move(V), Form, Shape});
    if (Shape == JsonShape::List)
      List = Rows.back();
  }
  /// Starts element \p N of the last list: CSV section `<section>.<Name>`.
  void item(const std::string &Name, size_t N) {
    section(List.Section + '.' + Name, List.Scope);
    Scope.insert(Scope.end(), {List.Key, std::to_string(N)});
  }
};

} // namespace

std::vector<ReportRow> StartupReport::rows() const {
  using enum ReportForm;
  RowWriter W;
  W.add("schema", "nimg-startup-report");
  W.add("version", StartupReportVersion);
  if (!Target.empty())
    W.add("target", Target);
  if (!Command.empty())
    W.add("command", Command);
  if (!Variant.empty())
    W.add("variant", Variant);

  if (Run) {
    const RunStats &R = *Run;
    auto PageMap = [](const std::vector<PageState> &Pages) {
      std::string Map; // Fig. 6: '#' faulted, '+' prefetched, '.' untouched
      for (PageState S : Pages)
        Map += ".#+"[size_t(S)]; // indexed in PageState order
      return Map;
    };
    W.section("run");
    // The acceptance contract: these three mirror PagingSim::faults()
    // exactly (tests compare them field-for-field).
    W.add("text_faults", R.TextFaults);
    W.add("heap_faults", R.HeapFaults);
    W.add("text_cold_faults", R.TextColdFaults);
    W.add("total_faults", R.totalFaults());
    W.add("prefetched_pages", R.PrefetchedPages);
    W.add("instructions", R.Instructions);
    W.add("probe_units", R.ProbeUnits);
    W.add("time_ns", R.TimeNs);
    W.add("responded", R.Responded);
    if (R.Responded)
      W.add("time_to_first_response_ns", R.TimeToFirstResponseNs);
    W.add("trapped", R.Trapped);
    if (R.Trapped)
      W.add("trap_message", R.TrapMessage, JsonOnly);
    W.add("fuel_exhausted", R.FuelExhausted);
    W.add("stored_objects_touched", R.StoredObjectsTouched);
    W.add("stored_objects_total", R.StoredObjectsTotal);
    W.add("text_page_map", PageMap(R.TextPages), JsonOnly);
    W.add("heap_page_map", PageMap(R.HeapPages), JsonOnly);

    if (R.SamplePeriod > 0) {
      // Defined with no sample landed too: zero counts and a guarded ratio,
      // since NaN/Inf are not JSON.
      W.section("capture");
      W.add("mode", "sampled");
      W.add("sample_period", R.SamplePeriod);
      W.add("samples_taken", R.SamplesTaken);
      W.add("events_skipped", R.SampleEventsSkipped);
      W.add("coverage_permille", R.SampleCoveragePermille);
      // Modeled probe time (~1 ns per probe unit) over total modeled time.
      W.add("overhead_permille",
            R.TimeNs > 0 ? double(R.ProbeUnits) * 1000.0 / R.TimeNs : 0.0);
    }
  }

  if (Image) {
    const ImageSummary &I = *Image;
    W.section("image");
    W.add("num_cus", I.NumCus);
    W.add("snapshot_objects", I.SnapshotObjects);
    W.add("text_size", I.TextSize);
    W.add("heap_size", I.HeapSize);
    W.add("seed", I.Seed);
    W.add("instrumented", I.Instrumented);
    W.add("build_failed", I.BuildFailed);

    // Present for --split hotcold builds, even if every CU degraded.
    if (I.Split) {
      W.section("split");
      W.add("mode", "hotcold");
      W.add("cus_split", I.SplitCus);
      W.add("cus_degraded", I.DegradedCus);
      W.add("hot_bytes", I.HotBytes);
      W.add("cold_bytes", I.ColdBytes);
      W.add("stub_bytes", I.StubBytes);
      W.add("cold_tail_offset", I.ColdTailOffset);
      W.add("cold_tail_size", I.ColdTailSize);
      if (Run) {
        W.add("text_cold_faults", Run->TextColdFaults);
        W.add("text_hot_faults", Run->TextFaults - Run->TextColdFaults);
      }
    }

    // Present for --huge-pages builds, even if the budget clamped to zero.
    if (I.HugePagesRequested > 0) {
      W.section("pages");
      W.add("page_size", I.PageSize);
      W.add("huge_page_size", HugePageBytes);
      W.add("huge_pages_requested", I.HugePagesRequested);
      W.add("huge_pages", I.HugePages);
      W.add("huge_region_size", I.HugeRegionSize);
      if (Run) {
        W.add("text_huge_faults", Run->TextHugeFaults);
        W.add("text_small_faults", Run->TextFaults - Run->TextHugeFaults);
      }
    }
  }

  if (Fleet) {
    const auto &[C, F] = *Fleet;
    W.section("fleet");
    W.add("instances", C.Instances);
    W.add("arrivals", arrivalKindName(C.Arrivals));
    W.add("arrival_window_ns", C.ArrivalWindowNs);
    W.add("seed", C.Seed);
    if (C.Arrivals == ArrivalKind::Storm)
      W.add("storm_bursts", C.StormBursts);
    W.add("cache_pages", C.CachePages);
    W.add("major_faults", F.TotalMajors);
    W.add("warm_hits", F.TotalWarmHits);
    W.add("warm_hit_permille", uint64_t(F.warmHitRatio() * 1000.0));
    W.add("unique_pages", F.UniquePages);
    W.add("evictions", F.Evictions);
    W.add("cold_start_p50_ns", F.P50Ns);
    W.add("cold_start_p90_ns", F.P90Ns);
    W.add("cold_start_p99_ns", F.P99Ns);
    W.add("cold_start_mean_ns", F.MeanNs);
    W.add("reference_faults", F.ReferenceFaults);
    W.add("reference_time_ns", F.ReferenceTimeNs);
  }

  if (Image) {
    const ProfileDiagnostics &D = Image->Diag;
    W.section("profile_diag");
    W.add("code_profile_provided", D.CodeProfileProvided);
    W.add("code_profile_applied", D.CodeProfileApplied);
    W.add("heap_profile_provided", D.HeapProfileProvided);
    W.add("heap_profile_applied", D.HeapProfileApplied);
    W.add("degraded", D.degraded());
    W.add("issues", D.Issues.size(), Both, JsonShape::List);
    for (size_t N = 0; N < D.Issues.size(); ++N) {
      const ProfileIssue &I = D.Issues[N];
      W.item("issue", N);
      W.add("kind", profileErrorSlug(I.Kind), JsonOnly);
      W.add("row", I.Row, JsonOnly);
      if (!I.Detail.empty())
        W.add("detail", I.Detail, JsonOnly);
      W.add(profileErrorSlug(I.Kind),
            I.Detail.empty() ? std::to_string(I.Row) : I.Detail, CsvOnly);
    }

    if (const MergeManifest &M = D.Merge; M.attempted()) {
      W.section("merge");
      W.add("outcome", mergeOutcomeName(M.Outcome));
      W.add("members", M.Members.size());
      W.add("accepted", M.countWithStatus(MergeMemberStatus::Accepted));
      W.add("salvaged", M.countWithStatus(MergeMemberStatus::Salvaged));
      W.add("quarantined", M.countWithStatus(MergeMemberStatus::Quarantined));
      W.add("manifest", M.Members.size(), JsonOnly, JsonShape::List);
      for (size_t N = 0; N < M.Members.size(); ++N) {
        const MergeMemberReport &R = M.Members[N];
        std::string Status = mergeMemberStatusName(R.Status);
        W.item("member", N);
        W.add("name", R.Name, JsonOnly);
        W.add("status", Status, JsonOnly);
        if (R.Reason != ProfileError::None) {
          W.add("reason", profileErrorSlug(R.Reason), JsonOnly);
          Status = Status + ':' + profileErrorSlug(R.Reason);
        }
        if (!R.Detail.empty())
          W.add("detail", R.Detail, JsonOnly);
        W.add("coverage_permille", R.CoveragePermille, JsonOnly);
        W.add("generation", R.Generation, JsonOnly);
        W.add("drift_score", R.DriftScore, JsonOnly);
        W.add("weight", R.Weight, JsonOnly);
        W.add("rows", R.Rows, JsonOnly);
        W.add(R.Name, Status, CsvOnly);
      }
    }
  }

  if (!Salvage.empty()) {
    W.section("salvage", {});
    W.add(W.Section, Salvage.size(), JsonOnly, JsonShape::List);
    for (size_t N = 0; N < Salvage.size(); ++N) {
      const auto &[Phase, S] = Salvage[N];
      W.item(Phase, N);
      W.add("phase", Phase, JsonOnly);
      W.Scope.push_back("stats");
      W.add("words_scanned", S.WordsScanned);
      W.add("words_kept", S.WordsKept);
      W.add("words_dropped", S.WordsDropped);
      W.add("threads_truncated", S.ThreadsTruncated);
      W.add("threads_dropped", S.ThreadsDropped);
      W.add("incomplete_tail_records", S.IncompleteTailRecords);
      W.add("mode_mismatch", S.ModeMismatch);
      W.add("clean", S.clean(), JsonOnly);
    }
  }

  if (WithMetrics) {
    std::string Json;
    JsonWriter MW(Json);
    MetricsRegistry::global().writeJson(MW);
    W.section("metrics", {});
    W.add(W.Section, std::move(Json), JsonOnly, JsonShape::Splice);
  }
  return std::move(W.Rows);
}

std::string StartupReport::toJson() const {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  // Scopes open below the top-level object: name, and whether an array.
  std::vector<std::pair<std::string, bool>> Open;
  for (const ReportRow &R : rows()) {
    if (R.Form == ReportForm::CsvOnly)
      continue;
    size_t Keep = 0;
    while (Keep < Open.size() && Keep < R.Scope.size() &&
           Open[Keep].first == R.Scope[Keep])
      ++Keep;
    for (; Open.size() > Keep; Open.pop_back())
      Open.back().second ? W.endArray() : W.endObject();
    for (; Keep < R.Scope.size(); ++Keep) {
      if (Open.empty() || !Open.back().second)
        W.key(R.Scope[Keep]); // array elements have no key
      W.beginObject();
      Open.emplace_back(R.Scope[Keep], false);
    }
    W.key(R.Key);
    if (R.Shape == JsonShape::List) {
      W.beginArray();
      Open.emplace_back(R.Key, true);
    } else if (R.Shape == JsonShape::Splice) {
      W.rawValue(std::get<std::string>(R.Value));
    } else {
      std::visit([&](const auto &V) { W.value(V); }, R.Value);
    }
  }
  for (; !Open.empty(); Open.pop_back())
    Open.back().second ? W.endArray() : W.endObject();
  W.endObject();
  return Out;
}

static std::string csvCell(const ReportValue &V) {
  if (const bool *B = std::get_if<bool>(&V))
    return *B ? "true" : "false";
  if (const std::string *S = std::get_if<std::string>(&V))
    return *S;
  if (const double *D = std::get_if<double>(&V))
    return std::to_string(*D);
  return std::to_string(std::get<uint64_t>(V));
}

std::string StartupReport::toCsv() const {
  CsvDocument Doc{{{"section", "key", "value"}}};
  for (const ReportRow &R : rows())
    if (R.Form != ReportForm::JsonOnly)
      Doc.Rows.push_back({R.Section, R.Key, csvCell(R.Value)});
  return writeCsv(Doc);
}

bool StartupReport::writeFile(const std::string &Path) const {
  std::string Body = Path.size() >= 4 &&
                             Path.compare(Path.size() - 4, 4, ".csv") == 0
                         ? toCsv()
                         : toJson();
  // Temp-file + rename: a crash mid-write can never leave a truncated
  // report for a later ingestion step to trip over.
  return atomicWriteFile(Path, Body);
}
