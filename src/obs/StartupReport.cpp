//===- StartupReport.cpp - Unified startup-report exporter ------------------===//

#include "src/obs/StartupReport.h"

#include "src/obs/Json.h"
#include "src/obs/Metrics.h"
#include "src/support/AtomicFile.h"

using namespace nimg;
using namespace nimg::obs;

std::string obs::pageMapString(const std::vector<PageState> &Pages) {
  std::string Map;
  Map.reserve(Pages.size());
  for (PageState S : Pages) {
    switch (S) {
    case PageState::Untouched:
      Map += '.';
      break;
    case PageState::Faulted:
      Map += '#';
      break;
    case PageState::Prefetched:
      Map += '+';
      break;
    }
  }
  return Map;
}

void StartupReport::setImage(const NativeImage &Img) {
  HasImage = true;
  NumCus = Img.code().CUs.size();
  SnapshotObjects = Img.Snapshot.Entries.size();
  TextSize = Img.Layout.TextSize;
  HeapSize = Img.Layout.HeapSize;
  Seed = Img.Seed;
  Instrumented = Img.Instrumented;
  BuildFailed = Img.Built.Failed;
  HasDiag = true;
  Diag = Img.ProfileDiag;
  HasSplit = Img.Split.active();
  if (HasSplit) {
    SplitCus = Img.Split.SplitCus;
    SplitDegradedCus = Img.Split.DegradedCus;
    SplitHotBytes = Img.Split.HotBytes;
    SplitColdBytes = Img.Split.ColdBytes;
    SplitStubBytes = Img.Split.StubBytes;
    ColdTailOffset = Img.Layout.ColdTailOffset;
    ColdTailSize = Img.Layout.ColdTailSize;
  }
  HasPages = Img.Layout.HugePagesRequested > 0;
  if (HasPages) {
    HugePagesRequested = Img.Layout.HugePagesRequested;
    HugePages = Img.Layout.HugePages;
    HugeRegionSize = Img.Layout.HugeRegionSize;
    PageSize = Img.Layout.PageSize;
  }
}

static void writeSalvage(JsonWriter &W, const SalvageStats &S) {
  W.beginObject();
  W.member("words_scanned", uint64_t(S.WordsScanned));
  W.member("words_kept", uint64_t(S.WordsKept));
  W.member("words_dropped", uint64_t(S.WordsDropped));
  W.member("threads_truncated", uint64_t(S.ThreadsTruncated));
  W.member("threads_dropped", uint64_t(S.ThreadsDropped));
  W.member("incomplete_tail_records", uint64_t(S.IncompleteTailRecords));
  W.member("mode_mismatch", S.ModeMismatch);
  W.member("clean", S.clean());
  W.endObject();
}

std::string StartupReport::toJson() const {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "nimg-startup-report");
  W.member("version", uint64_t(StartupReportVersion));
  if (!Target.empty())
    W.member("target", Target);
  if (!Command.empty())
    W.member("command", Command);
  if (!Variant.empty())
    W.member("variant", Variant);
  if (Jobs > 0)
    W.member("jobs", uint64_t(Jobs));

  if (HasRun) {
    W.key("run");
    W.beginObject();
    // The acceptance contract: these three mirror PagingSim::faults()
    // exactly (tests compare them field-for-field).
    W.member("text_faults", Run.TextFaults);
    W.member("heap_faults", Run.HeapFaults);
    W.member("text_cold_faults", Run.TextColdFaults);
    W.member("total_faults", Run.totalFaults());
    W.member("prefetched_pages", Run.PrefetchedPages);
    W.member("instructions", Run.Instructions);
    W.member("probe_units", Run.ProbeUnits);
    W.member("time_ns", Run.TimeNs);
    W.member("responded", Run.Responded);
    if (Run.Responded)
      W.member("time_to_first_response_ns", Run.TimeToFirstResponseNs);
    W.member("trapped", Run.Trapped);
    if (Run.Trapped)
      W.member("trap_message", Run.TrapMessage);
    W.member("fuel_exhausted", Run.FuelExhausted);
    W.member("stored_objects_touched", uint64_t(Run.StoredObjectsTouched));
    W.member("stored_objects_total", uint64_t(Run.StoredObjectsTotal));
    // Fig. 6 page maps: '#' faulted, '+' prefetched, '.' untouched.
    W.member("text_page_map", pageMapString(Run.TextPages));
    W.member("heap_page_map", pageMapString(Run.HeapPages));
    W.endObject();
  }

  if (HasRun && Run.SamplePeriod > 0) {
    // Sampled-capture accounting. Every field is defined even when no
    // sample landed (a period longer than the whole run): counts are
    // plain zeros and the ratios guard their denominators, so the section
    // never emits NaN/Inf — which are not JSON.
    W.key("capture");
    W.beginObject();
    W.member("mode", "sampled");
    W.member("sample_period", Run.SamplePeriod);
    W.member("samples_taken", Run.SamplesTaken);
    W.member("events_skipped", Run.SampleEventsSkipped);
    W.member("coverage_permille", uint64_t(Run.SampleCoveragePermille));
    // Modeled capture overhead: probe time over total modeled time (probe
    // units are charged at ~1 ns each by the default cost model).
    W.member("overhead_permille",
             Run.TimeNs > 0 ? double(Run.ProbeUnits) * 1000.0 / Run.TimeNs
                            : 0.0);
    W.endObject();
  }

  if (HasImage) {
    W.key("image");
    W.beginObject();
    W.member("num_cus", uint64_t(NumCus));
    W.member("snapshot_objects", uint64_t(SnapshotObjects));
    W.member("text_size", TextSize);
    W.member("heap_size", HeapSize);
    W.member("seed", Seed);
    W.member("instrumented", Instrumented);
    W.member("build_failed", BuildFailed);
    W.endObject();
  }

  if (HasSplit) {
    W.key("split");
    W.beginObject();
    W.member("mode", "hotcold");
    W.member("cus_split", uint64_t(SplitCus));
    W.member("cus_degraded", uint64_t(SplitDegradedCus));
    W.member("hot_bytes", SplitHotBytes);
    W.member("cold_bytes", SplitColdBytes);
    W.member("stub_bytes", SplitStubBytes);
    W.member("cold_tail_offset", ColdTailOffset);
    W.member("cold_tail_size", ColdTailSize);
    if (HasRun) {
      W.member("text_cold_faults", Run.TextColdFaults);
      W.member("text_hot_faults", Run.TextFaults - Run.TextColdFaults);
    }
    W.endObject();
  }

  if (HasPages) {
    W.key("pages");
    W.beginObject();
    W.member("page_size", uint64_t(PageSize));
    W.member("huge_page_size", uint64_t(HugePageBytes));
    W.member("huge_pages_requested", uint64_t(HugePagesRequested));
    W.member("huge_pages", uint64_t(HugePages));
    W.member("huge_region_size", HugeRegionSize);
    if (HasRun) {
      W.member("text_huge_faults", Run.TextHugeFaults);
      W.member("text_small_faults", Run.TextFaults - Run.TextHugeFaults);
    }
    W.endObject();
  }

  if (HasFleet) {
    W.key("fleet");
    W.beginObject();
    W.member("instances", uint64_t(FleetCfg.Instances));
    W.member("arrivals", arrivalKindName(FleetCfg.Arrivals));
    W.member("arrival_window_ns", FleetCfg.ArrivalWindowNs);
    W.member("seed", FleetCfg.Seed);
    if (FleetCfg.Arrivals == ArrivalKind::Storm)
      W.member("storm_bursts", uint64_t(FleetCfg.StormBursts));
    W.member("cache_pages", FleetCfg.CachePages);
    W.member("major_faults", Fleet.TotalMajors);
    W.member("warm_hits", Fleet.TotalWarmHits);
    W.member("warm_hit_permille", uint64_t(Fleet.warmHitRatio() * 1000.0));
    W.member("unique_pages", Fleet.UniquePages);
    W.member("evictions", Fleet.Evictions);
    W.member("cold_start_p50_ns", Fleet.P50Ns);
    W.member("cold_start_p90_ns", Fleet.P90Ns);
    W.member("cold_start_p99_ns", Fleet.P99Ns);
    W.member("cold_start_mean_ns", Fleet.MeanNs);
    W.member("reference_faults", Fleet.ReferenceFaults);
    W.member("reference_time_ns", Fleet.ReferenceTimeNs);
    W.endObject();
  }

  if (HasDiag) {
    W.key("profile_diag");
    W.beginObject();
    W.member("code_profile_provided", Diag.CodeProfileProvided);
    W.member("code_profile_applied", Diag.CodeProfileApplied);
    W.member("heap_profile_provided", Diag.HeapProfileProvided);
    W.member("heap_profile_applied", Diag.HeapProfileApplied);
    W.member("degraded", Diag.degraded());
    W.key("issues");
    W.beginArray();
    for (const ProfileIssue &I : Diag.Issues) {
      W.beginObject();
      W.member("kind", profileErrorSlug(I.Kind));
      W.member("row", uint64_t(I.Row));
      if (!I.Detail.empty())
        W.member("detail", I.Detail);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }

  if (HasDiag && Diag.Merge.attempted()) {
    const MergeManifest &M = Diag.Merge;
    W.key("merge");
    W.beginObject();
    W.member("outcome", mergeOutcomeName(M.Outcome));
    W.member("members", uint64_t(M.Members.size()));
    W.member("accepted",
             uint64_t(M.countWithStatus(MergeMemberStatus::Accepted)));
    W.member("salvaged",
             uint64_t(M.countWithStatus(MergeMemberStatus::Salvaged)));
    W.member("quarantined",
             uint64_t(M.countWithStatus(MergeMemberStatus::Quarantined)));
    W.key("manifest");
    W.beginArray();
    for (const MergeMemberReport &R : M.Members) {
      W.beginObject();
      W.member("name", R.Name);
      W.member("status", mergeMemberStatusName(R.Status));
      if (R.Reason != ProfileError::None)
        W.member("reason", profileErrorSlug(R.Reason));
      if (!R.Detail.empty())
        W.member("detail", R.Detail);
      W.member("coverage_permille", uint64_t(R.CoveragePermille));
      W.member("generation", R.Generation);
      W.member("drift_score", R.DriftScore);
      W.member("weight", R.Weight);
      W.member("rows", uint64_t(R.Rows));
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }

  if (!Salvage.empty()) {
    W.key("salvage");
    W.beginArray();
    for (const auto &[Phase, S] : Salvage) {
      W.beginObject();
      W.member("phase", Phase);
      W.key("stats");
      writeSalvage(W, S);
      W.endObject();
    }
    W.endArray();
  }

  if (WithMetrics) {
    W.key("metrics");
    MetricsRegistry::global().writeJson(W);
  }

  W.endObject();
  return Out;
}

//===----------------------------------------------------------------------===//
// CSV flattening.
//===----------------------------------------------------------------------===//

static void csvRow(std::string &Out, std::string_view Section,
                   std::string_view Key, const std::string &Value) {
  Out += Section;
  Out += ',';
  Out += Key;
  Out += ',';
  // Values here are numbers, booleans, or identifier-ish strings; quote
  // only when a comma would break the row.
  if (Value.find_first_of(",\"\n") != std::string::npos) {
    Out += '"';
    for (char C : Value) {
      if (C == '"')
        Out += '"';
      Out += C;
    }
    Out += '"';
  } else {
    Out += Value;
  }
  Out += '\n';
}

static std::string num(uint64_t V) { return std::to_string(V); }
static std::string boolStr(bool B) { return B ? "true" : "false"; }

std::string StartupReport::toCsv() const {
  std::string Out = "section,key,value\n";
  csvRow(Out, "report", "schema", "nimg-startup-report");
  csvRow(Out, "report", "version", num(StartupReportVersion));
  if (!Target.empty())
    csvRow(Out, "report", "target", Target);
  if (!Command.empty())
    csvRow(Out, "report", "command", Command);
  if (!Variant.empty())
    csvRow(Out, "report", "variant", Variant);
  if (Jobs > 0)
    csvRow(Out, "report", "jobs", num(uint64_t(Jobs)));

  if (HasRun) {
    csvRow(Out, "run", "text_faults", num(Run.TextFaults));
    csvRow(Out, "run", "heap_faults", num(Run.HeapFaults));
    csvRow(Out, "run", "text_cold_faults", num(Run.TextColdFaults));
    csvRow(Out, "run", "total_faults", num(Run.totalFaults()));
    csvRow(Out, "run", "prefetched_pages", num(Run.PrefetchedPages));
    csvRow(Out, "run", "instructions", num(Run.Instructions));
    csvRow(Out, "run", "probe_units", num(Run.ProbeUnits));
    csvRow(Out, "run", "time_ns", std::to_string(Run.TimeNs));
    csvRow(Out, "run", "responded", boolStr(Run.Responded));
    if (Run.Responded)
      csvRow(Out, "run", "time_to_first_response_ns",
             std::to_string(Run.TimeToFirstResponseNs));
    csvRow(Out, "run", "trapped", boolStr(Run.Trapped));
    csvRow(Out, "run", "fuel_exhausted", boolStr(Run.FuelExhausted));
    csvRow(Out, "run", "stored_objects_touched",
           num(Run.StoredObjectsTouched));
    csvRow(Out, "run", "stored_objects_total", num(Run.StoredObjectsTotal));
  }

  if (HasRun && Run.SamplePeriod > 0) {
    csvRow(Out, "capture", "mode", "sampled");
    csvRow(Out, "capture", "sample_period", num(Run.SamplePeriod));
    csvRow(Out, "capture", "samples_taken", num(Run.SamplesTaken));
    csvRow(Out, "capture", "events_skipped", num(Run.SampleEventsSkipped));
    csvRow(Out, "capture", "coverage_permille",
           num(Run.SampleCoveragePermille));
    csvRow(Out, "capture", "overhead_permille",
           std::to_string(Run.TimeNs > 0
                              ? double(Run.ProbeUnits) * 1000.0 / Run.TimeNs
                              : 0.0));
  }

  if (HasImage) {
    csvRow(Out, "image", "num_cus", num(NumCus));
    csvRow(Out, "image", "snapshot_objects", num(SnapshotObjects));
    csvRow(Out, "image", "text_size", num(TextSize));
    csvRow(Out, "image", "heap_size", num(HeapSize));
    csvRow(Out, "image", "seed", num(Seed));
    csvRow(Out, "image", "instrumented", boolStr(Instrumented));
    csvRow(Out, "image", "build_failed", boolStr(BuildFailed));
  }

  if (HasSplit) {
    csvRow(Out, "split", "mode", "hotcold");
    csvRow(Out, "split", "cus_split", num(SplitCus));
    csvRow(Out, "split", "cus_degraded", num(SplitDegradedCus));
    csvRow(Out, "split", "hot_bytes", num(SplitHotBytes));
    csvRow(Out, "split", "cold_bytes", num(SplitColdBytes));
    csvRow(Out, "split", "stub_bytes", num(SplitStubBytes));
    csvRow(Out, "split", "cold_tail_offset", num(ColdTailOffset));
    csvRow(Out, "split", "cold_tail_size", num(ColdTailSize));
    if (HasRun) {
      csvRow(Out, "split", "text_cold_faults", num(Run.TextColdFaults));
      csvRow(Out, "split", "text_hot_faults",
             num(Run.TextFaults - Run.TextColdFaults));
    }
  }

  if (HasPages) {
    csvRow(Out, "pages", "page_size", num(PageSize));
    csvRow(Out, "pages", "huge_page_size", num(HugePageBytes));
    csvRow(Out, "pages", "huge_pages_requested", num(HugePagesRequested));
    csvRow(Out, "pages", "huge_pages", num(HugePages));
    csvRow(Out, "pages", "huge_region_size", num(HugeRegionSize));
    if (HasRun) {
      csvRow(Out, "pages", "text_huge_faults", num(Run.TextHugeFaults));
      csvRow(Out, "pages", "text_small_faults",
             num(Run.TextFaults - Run.TextHugeFaults));
    }
  }

  if (HasFleet) {
    csvRow(Out, "fleet", "instances", num(FleetCfg.Instances));
    csvRow(Out, "fleet", "arrivals", arrivalKindName(FleetCfg.Arrivals));
    csvRow(Out, "fleet", "arrival_window_ns",
           std::to_string(FleetCfg.ArrivalWindowNs));
    csvRow(Out, "fleet", "seed", num(FleetCfg.Seed));
    if (FleetCfg.Arrivals == ArrivalKind::Storm)
      csvRow(Out, "fleet", "storm_bursts", num(FleetCfg.StormBursts));
    csvRow(Out, "fleet", "cache_pages", num(FleetCfg.CachePages));
    csvRow(Out, "fleet", "major_faults", num(Fleet.TotalMajors));
    csvRow(Out, "fleet", "warm_hits", num(Fleet.TotalWarmHits));
    csvRow(Out, "fleet", "warm_hit_permille",
           num(uint64_t(Fleet.warmHitRatio() * 1000.0)));
    csvRow(Out, "fleet", "unique_pages", num(Fleet.UniquePages));
    csvRow(Out, "fleet", "evictions", num(Fleet.Evictions));
    csvRow(Out, "fleet", "cold_start_p50_ns", std::to_string(Fleet.P50Ns));
    csvRow(Out, "fleet", "cold_start_p90_ns", std::to_string(Fleet.P90Ns));
    csvRow(Out, "fleet", "cold_start_p99_ns", std::to_string(Fleet.P99Ns));
    csvRow(Out, "fleet", "cold_start_mean_ns", std::to_string(Fleet.MeanNs));
    csvRow(Out, "fleet", "reference_faults", num(Fleet.ReferenceFaults));
    csvRow(Out, "fleet", "reference_time_ns",
           std::to_string(Fleet.ReferenceTimeNs));
  }

  if (HasDiag) {
    csvRow(Out, "profile_diag", "code_profile_provided",
           boolStr(Diag.CodeProfileProvided));
    csvRow(Out, "profile_diag", "code_profile_applied",
           boolStr(Diag.CodeProfileApplied));
    csvRow(Out, "profile_diag", "heap_profile_provided",
           boolStr(Diag.HeapProfileProvided));
    csvRow(Out, "profile_diag", "heap_profile_applied",
           boolStr(Diag.HeapProfileApplied));
    csvRow(Out, "profile_diag", "degraded", boolStr(Diag.degraded()));
    csvRow(Out, "profile_diag", "issues", num(Diag.Issues.size()));
    for (const ProfileIssue &I : Diag.Issues)
      csvRow(Out, "profile_diag.issue", profileErrorSlug(I.Kind),
             I.Detail.empty() ? num(I.Row) : I.Detail);
  }

  if (HasDiag && Diag.Merge.attempted()) {
    const MergeManifest &M = Diag.Merge;
    csvRow(Out, "merge", "outcome", mergeOutcomeName(M.Outcome));
    csvRow(Out, "merge", "members", num(M.Members.size()));
    csvRow(Out, "merge", "accepted",
           num(M.countWithStatus(MergeMemberStatus::Accepted)));
    csvRow(Out, "merge", "salvaged",
           num(M.countWithStatus(MergeMemberStatus::Salvaged)));
    csvRow(Out, "merge", "quarantined",
           num(M.countWithStatus(MergeMemberStatus::Quarantined)));
    for (const MergeMemberReport &R : M.Members)
      csvRow(Out, "merge.member", R.Name,
             std::string(mergeMemberStatusName(R.Status)) +
                 (R.Reason != ProfileError::None
                      ? std::string(":") + profileErrorSlug(R.Reason)
                      : std::string()));
  }

  for (const auto &[Phase, S] : Salvage) {
    std::string Section = "salvage." + Phase;
    csvRow(Out, Section, "words_scanned", num(S.WordsScanned));
    csvRow(Out, Section, "words_kept", num(S.WordsKept));
    csvRow(Out, Section, "words_dropped", num(S.WordsDropped));
    csvRow(Out, Section, "threads_truncated", num(S.ThreadsTruncated));
    csvRow(Out, Section, "threads_dropped", num(S.ThreadsDropped));
    csvRow(Out, Section, "incomplete_tail_records",
           num(S.IncompleteTailRecords));
    csvRow(Out, Section, "mode_mismatch", boolStr(S.ModeMismatch));
  }

  return Out;
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
