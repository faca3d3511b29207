//===- ObsTest.cpp - Metrics, span tracing, and startup-report tests --------===//
//
// Covers the observability subsystem end to end: histogram bucket math,
// per-thread counter merging, JSON writer/parser round trips, Chrome
// trace-event well-formedness (parsed back, not string-matched), and the
// startup report's contract that its fault counts equal the run's
// PagingSim counts exactly.
//
//===----------------------------------------------------------------------===//

#include "src/obs/Json.h"
#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"
#include "src/obs/StartupReport.h"

#include "src/core/Builder.h"
#include "src/lang/Compile.h"
#include "src/support/Csv.h"

#include "StartupReportFixtures.h"

#include <gtest/gtest.h>

#include <thread>

using namespace nimg;
using namespace nimg::obs;

//===----------------------------------------------------------------------===//
// JSON writer + parser.
//===----------------------------------------------------------------------===//

TEST(Json, WriterEscapesAndNesting) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("plain", "abc");
  W.member("quoted", "say \"hi\"\n\ttab\\slash");
  W.member("ctrl", std::string("\x01\x1f", 2));
  W.key("nested");
  W.beginArray();
  W.value(uint64_t(42));
  W.value(-7);
  W.value(true);
  W.null();
  W.beginObject();
  W.member("pi", 3.5);
  W.endObject();
  W.endArray();
  W.endObject();

  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Out, V, &Error)) << Error << "\n" << Out;
  EXPECT_EQ(V.get("plain")->Str, "abc");
  EXPECT_EQ(V.get("quoted")->Str, "say \"hi\"\n\ttab\\slash");
  EXPECT_EQ(V.get("ctrl")->Str, std::string("\x01\x1f", 2));
  const JsonValue *Arr = V.get("nested");
  ASSERT_NE(Arr, nullptr);
  ASSERT_EQ(Arr->Arr.size(), 5u);
  EXPECT_EQ(Arr->Arr[0].Num, 42.0);
  EXPECT_EQ(Arr->Arr[1].Num, -7.0);
  EXPECT_TRUE(Arr->Arr[2].B);
  EXPECT_EQ(Arr->Arr[3].K, JsonValue::Kind::Null);
  EXPECT_EQ(Arr->Arr[4].get("pi")->Num, 3.5);
}

TEST(Json, ParserRejectsMalformedInput) {
  JsonValue V;
  EXPECT_FALSE(parseJson("", V));
  EXPECT_FALSE(parseJson("{", V));
  EXPECT_FALSE(parseJson("{\"a\":1,}", V));
  EXPECT_FALSE(parseJson("[1 2]", V));
  EXPECT_FALSE(parseJson("{\"a\":1} trailing", V));
  EXPECT_FALSE(parseJson("\"unterminated", V));
  EXPECT_FALSE(parseJson("01", V));
  EXPECT_TRUE(parseJson("{\"a\": [1, 2, {\"b\": null}]}", V));
}

TEST(Json, ParserDecodesUnicodeEscapes) {
  JsonValue V;
  ASSERT_TRUE(parseJson("\"a\\u0041\\u00e9\\u20ac\"", V));
  EXPECT_EQ(V.Str, "aA\xc3\xa9\xe2\x82\xac"); // A, é, €
}

TEST(Json, DotPathLookup) {
  JsonValue V;
  ASSERT_TRUE(parseJson("{\"run\":{\"faults\":{\"text\":5}}}", V));
  const JsonValue *N = V.at("run.faults.text");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Num, 5.0);
  EXPECT_EQ(V.at("run.missing"), nullptr);
}

//===----------------------------------------------------------------------===//
// Histogram bucket math.
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketBoundaries) {
  // bucketOf(V) = bit_width(V): 0 -> 0, [2^(B-1), 2^B - 1] -> B.
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(7), 3u);
  EXPECT_EQ(Histogram::bucketOf(8), 4u);
  EXPECT_EQ(Histogram::bucketOf(~uint64_t(0)), Histogram::NumBuckets - 1);

  // Every bucket's stated [lo, hi] range maps back to that bucket, and
  // consecutive ranges tile the uint64 domain without gaps or overlap.
  EXPECT_EQ(Histogram::bucketLo(0), 0u);
  EXPECT_EQ(Histogram::bucketHi(0), 0u);
  for (size_t B = 1; B < Histogram::NumBuckets; ++B) {
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLo(B)), B) << B;
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHi(B)), B) << B;
    EXPECT_EQ(Histogram::bucketLo(B), Histogram::bucketHi(B - 1) + 1) << B;
  }
  EXPECT_EQ(Histogram::bucketHi(Histogram::NumBuckets - 1), ~uint64_t(0));
}

TEST(Histogram, RecordPlacesBoundaryValues) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u); // empty-histogram convention
  EXPECT_EQ(H.max(), 0u);

  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 4ull, 255ull, 256ull})
    H.record(V);
  EXPECT_EQ(H.count(), 7u);
  EXPECT_EQ(H.sum(), 0u + 1 + 2 + 3 + 4 + 255 + 256);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 256u);
  EXPECT_EQ(H.bucketCount(0), 1u); // 0
  EXPECT_EQ(H.bucketCount(1), 1u); // 1
  EXPECT_EQ(H.bucketCount(2), 2u); // 2, 3
  EXPECT_EQ(H.bucketCount(3), 1u); // 4
  EXPECT_EQ(H.bucketCount(8), 1u); // 255 = 2^8 - 1
  EXPECT_EQ(H.bucketCount(9), 1u); // 256 = 2^8

  uint64_t Total = 0;
  for (size_t B = 0; B < Histogram::NumBuckets; ++B)
    Total += H.bucketCount(B);
  EXPECT_EQ(Total, H.count());
}

//===----------------------------------------------------------------------===//
// Counters: per-thread shard merge.
//===----------------------------------------------------------------------===//

TEST(Counter, MergesShardsAcrossThreads) {
  Counter C;
  constexpr int NumThreads = 8;
  constexpr int PerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.add(3);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), uint64_t(NumThreads) * PerThread * 3);
}

TEST(Counter, RegistryMacroFromManyThreads) {
  const char *Name = "obs.test.macro_counter";
  ASSERT_FALSE(MetricsRegistry::global().has(Name));
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < 1000; ++I)
        NIMG_COUNTER_ADD("obs.test.macro_counter", 2);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(MetricsRegistry::global().counter(Name).value(), 4u * 1000 * 2);
}

TEST(Gauge, SetAndAdd) {
  Gauge G;
  G.set(10);
  G.add(-3);
  EXPECT_EQ(G.value(), 7);
  G.set(-5);
  EXPECT_EQ(G.value(), -5);
}

TEST(MetricsRegistry, StableReferencesAndLookup) {
  MetricsRegistry &R = MetricsRegistry::global();
  Counter &A = R.counter("obs.test.stable");
  Counter &B = R.counter("obs.test.stable");
  EXPECT_EQ(&A, &B);
  EXPECT_TRUE(R.has("obs.test.stable"));
  EXPECT_FALSE(R.has("obs.test.never_created"));
}

TEST(MetricsRegistry, JsonSnapshotParsesBack) {
  MetricsRegistry &R = MetricsRegistry::global();
  R.counter("obs.test.json_counter").add(11);
  R.gauge("obs.test.json_gauge").set(-4);
  Histogram &H = R.histogram("obs.test.json_hist");
  H.record(1);
  H.record(100);

  std::string Out;
  JsonWriter W(Out);
  R.writeJson(W);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Out, V, &Error)) << Error;
  EXPECT_EQ(V.at("counters.obs\\.test\\.json_counter"), nullptr)
      << "dots in metric names are plain object keys, not paths";
  EXPECT_EQ(V.get("counters")->get("obs.test.json_counter")->Num, 11.0);
  EXPECT_EQ(V.get("gauges")->get("obs.test.json_gauge")->Num, -4.0);
  const JsonValue *Hist = V.get("histograms")->get("obs.test.json_hist");
  ASSERT_NE(Hist, nullptr);
  EXPECT_EQ(Hist->get("count")->Num, 2.0);
  EXPECT_EQ(Hist->get("sum")->Num, 101.0);
  // Sparse [lo, hi, count] triples sum to the total count.
  double Total = 0;
  for (const JsonValue &Triple : Hist->get("buckets")->Arr) {
    ASSERT_EQ(Triple.Arr.size(), 3u);
    EXPECT_LE(Triple.Arr[0].Num, Triple.Arr[1].Num);
    Total += Triple.Arr[2].Num;
  }
  EXPECT_EQ(Total, 2.0);

  std::string Text = R.toText();
  EXPECT_NE(Text.find("obs.test.json_counter"), std::string::npos);
  EXPECT_NE(Text.find("obs.test.json_hist"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Span tracer: the emitted JSON is actually the Chrome trace-event format.
//===----------------------------------------------------------------------===//

namespace {

/// Enables the global tracer for one test and restores the prior state.
struct TracerScope {
  TracerScope() {
    SpanTracer::global().clear();
    SpanTracer::global().setEnabled(true);
  }
  ~TracerScope() {
    SpanTracer::global().setEnabled(false);
    SpanTracer::global().clear();
  }
};

} // namespace

TEST(SpanTracer, ChromeTraceJsonParsesBack) {
  TracerScope Scope;
  {
    NIMG_SPAN_NAMED(Outer, "pipeline", "outer");
    NIMG_SPAN_ARG(Outer, "key", "value with \"quotes\"");
    { NIMG_SPAN("build", "inner"); }
  }
  SpanTracer::global().instant("marker", "pipeline");

  std::string Json = SpanTracer::global().toChromeJson();
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Json, V, &Error)) << Error << "\n" << Json;

  EXPECT_EQ(V.get("displayTimeUnit")->Str, "ms");
  const JsonValue *Events = V.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Kind::Array);
  ASSERT_EQ(Events->Arr.size(), 3u);
  for (const JsonValue &E : Events->Arr) {
    // Complete events require exactly these fields to load in Perfetto.
    EXPECT_EQ(E.get("ph")->Str, "X");
    ASSERT_NE(E.get("name"), nullptr);
    ASSERT_NE(E.get("cat"), nullptr);
    ASSERT_NE(E.get("ts"), nullptr);
    ASSERT_NE(E.get("dur"), nullptr);
    ASSERT_NE(E.get("pid"), nullptr);
    ASSERT_NE(E.get("tid"), nullptr);
    EXPECT_GE(E.get("dur")->Num, 0.0);
  }
  // Inner closed before outer, so it is recorded first.
  EXPECT_EQ(Events->Arr[0].get("name")->Str, "inner");
  EXPECT_EQ(Events->Arr[1].get("name")->Str, "outer");
  EXPECT_EQ(Events->Arr[1].get("args")->get("key")->Str,
            "value with \"quotes\"");
  EXPECT_EQ(Events->Arr[2].get("name")->Str, "marker");
  EXPECT_EQ(Events->Arr[2].get("dur")->Num, 0.0);
  // Nesting: outer strictly contains inner on the timeline.
  EXPECT_LE(Events->Arr[1].get("ts")->Num, Events->Arr[0].get("ts")->Num);
  EXPECT_GE(Events->Arr[1].get("ts")->Num + Events->Arr[1].get("dur")->Num,
            Events->Arr[0].get("ts")->Num + Events->Arr[0].get("dur")->Num);
}

TEST(SpanTracer, DisabledTracerRecordsNothing) {
  SpanTracer::global().clear();
  ASSERT_FALSE(SpanTracer::global().enabled());
  {
    NIMG_SPAN("pipeline", "ignored");
    SpanTracer::global().instant("ignored", "pipeline");
  }
  EXPECT_EQ(SpanTracer::global().eventCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Startup report.
//===----------------------------------------------------------------------===//

namespace {

const char *kReportWorkload = R"(
class Main {
  static int main() {
    int[] data = new int[64];
    for (int i = 0; i < data.length; i = i + 1) { data[i] = i * 3; }
    int sum = 0;
    for (int i = 0; i < data.length; i = i + 1) { sum = sum + data[i]; }
    Sys.print("sum " + sum);
    return sum;
  }
}
)";

struct ReportEnv {
  Program P;
  ReportEnv() {
    std::vector<std::string> Errors;
    EXPECT_TRUE(compileSources({kReportWorkload}, P, Errors));
    for (auto &E : Errors)
      ADD_FAILURE() << E;
  }
};

double numAt(const JsonValue &V, const char *Path) {
  const JsonValue *N = V.at(Path);
  EXPECT_NE(N, nullptr) << Path;
  return N ? N->Num : -1.0;
}

} // namespace

TEST(StartupReport, FaultCountsMatchTheRunExactly) {
  ReportEnv E;
  BuildConfig Cfg;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);
  RunConfig Run;
  RunStats S = runImage(Img, Run);
  ASSERT_FALSE(S.Trapped) << S.TrapMessage;

  StartupReport Report;
  Report.Target = "report-workload";
  Report.Command = "run";
  Report.setRun(S);
  Report.setImage(Img);

  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Report.toJson(), V, &Error)) << Error;

  // The acceptance contract: the report's per-section fault counts equal
  // the run's PagingSim counts exactly (RunStats copies them verbatim).
  EXPECT_EQ(uint64_t(numAt(V, "run.text_faults")), S.TextFaults);
  EXPECT_EQ(uint64_t(numAt(V, "run.heap_faults")), S.HeapFaults);
  EXPECT_EQ(uint64_t(numAt(V, "run.total_faults")),
            S.TextFaults + S.HeapFaults);
  EXPECT_EQ(uint64_t(numAt(V, "run.prefetched_pages")), S.PrefetchedPages);
  EXPECT_EQ(uint64_t(numAt(V, "run.instructions")), S.Instructions);

  // Fig. 6 page maps: one char per page, '#' count == the fault count
  // (every major fault marks exactly one page Faulted).
  const JsonValue *TextMap = V.at("run.text_page_map");
  ASSERT_NE(TextMap, nullptr);
  EXPECT_EQ(TextMap->Str.size(), S.TextPages.size());
  size_t Hashes = 0;
  for (char C : TextMap->Str) {
    EXPECT_TRUE(C == '#' || C == '+' || C == '.') << C;
    Hashes += C == '#';
  }
  EXPECT_EQ(Hashes, S.TextFaults);

  EXPECT_EQ(uint64_t(numAt(V, "image.num_cus")), Img.code().CUs.size());
  EXPECT_EQ(uint64_t(numAt(V, "image.text_size")), Img.Layout.TextSize);
  EXPECT_EQ(V.at("profile_diag.degraded")->B, false);
  EXPECT_EQ(V.get("schema")->Str, "nimg-startup-report");
}

TEST(StartupReport, CsvRoundTripCarriesTheSameCounts) {
  ReportEnv E;
  BuildConfig Cfg;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  RunConfig Run;
  RunStats S = runImage(Img, Run);

  StartupReport Report;
  Report.Command = "run";
  Report.setRun(S);
  Report.setImage(Img);
  std::string Csv = Report.toCsv();

  EXPECT_NE(Csv.find("section,key,value\n"), std::string::npos);
  EXPECT_NE(Csv.find("run,text_faults," + std::to_string(S.TextFaults) +
                     "\n"),
            std::string::npos);
  EXPECT_NE(Csv.find("run,heap_faults," + std::to_string(S.HeapFaults) +
                     "\n"),
            std::string::npos);
  EXPECT_NE(Csv.find("image,num_cus," +
                     std::to_string(Img.code().CUs.size()) + "\n"),
            std::string::npos);
}

TEST(StartupReport, ZeroSampleCaptureSectionIsValidJson) {
  // A sampled run can legitimately take zero samples (period longer than
  // the run, or every tick landing between frames). The capture section
  // must still be well-formed JSON with zero counts — including the
  // overhead ratio, whose denominator can be zero here.
  RunStats S;
  S.SamplePeriod = 2048;
  S.SamplesTaken = 0;
  S.SampleEventsSkipped = 0;
  S.SampleCoveragePermille = 0;
  S.TimeNs = 0;

  StartupReport Report;
  Report.Command = "profile";
  Report.setRun(S);

  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Report.toJson(), V, &Error)) << Error;
  EXPECT_EQ(V.at("capture.mode")->Str, "sampled");
  EXPECT_EQ(uint64_t(numAt(V, "capture.sample_period")), 2048u);
  EXPECT_EQ(uint64_t(numAt(V, "capture.samples_taken")), 0u);
  EXPECT_EQ(numAt(V, "capture.overhead_permille"), 0.0);

  // An instrumented run (period 0) must not emit the section at all.
  RunStats Instr;
  StartupReport Plain;
  Plain.Command = "run";
  Plain.setRun(Instr);
  ASSERT_TRUE(parseJson(Plain.toJson(), V, &Error)) << Error;
  EXPECT_EQ(V.at("capture"), nullptr);
}

TEST(StartupReport, DegradedBuildReportStaysValid) {
  ReportEnv E;
  // A garbage profile with a valid-looking header magic forces the
  // degradation policy (BadHeader -> default layout).
  ProfileReadReport RR;
  CodeProfile Bad = CodeProfile::fromCsv("#nimg-profile,zzz\n", &RR);
  ASSERT_FALSE(RR.usable());

  BuildConfig Cfg;
  Cfg.CodeOrder = CodeStrategy::CuOrder;
  Cfg.CodeProf = &Bad;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);
  ASSERT_TRUE(Img.ProfileDiag.degraded());

  StartupReport Report;
  Report.Command = "build";
  Report.setImage(Img);
  SalvageStats Salv;
  Salv.WordsScanned = 10;
  Salv.WordsKept = 6;
  Salv.WordsDropped = 4;
  Salv.ThreadsTruncated = 1;
  Report.addSalvage("cu", Salv);
  Report.includeMetrics();

  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Report.toJson(), V, &Error)) << Error;
  EXPECT_TRUE(V.at("profile_diag.degraded")->B);
  EXPECT_TRUE(V.at("profile_diag.code_profile_provided")->B);
  EXPECT_FALSE(V.at("profile_diag.code_profile_applied")->B);
  const JsonValue *Issues = V.at("profile_diag.issues");
  ASSERT_NE(Issues, nullptr);
  ASSERT_FALSE(Issues->Arr.empty());
  EXPECT_EQ(Issues->Arr[0].get("kind")->Str, "bad_header");
  const JsonValue *Sal = V.get("salvage");
  ASSERT_EQ(Sal->K, JsonValue::Kind::Array);
  EXPECT_EQ(Sal->Arr[0].get("phase")->Str, "cu");
  EXPECT_EQ(Sal->Arr[0].at("stats.words_dropped")->Num, 4.0);
  EXPECT_FALSE(Sal->Arr[0].at("stats.clean")->B);
  // Metrics section present and structurally sound.
  ASSERT_NE(V.get("metrics"), nullptr);
  ASSERT_NE(V.at("metrics.counters"), nullptr);
}

TEST(StartupReport, ProfileErrorSlugsAreStable) {
  EXPECT_STREQ(profileErrorSlug(ProfileError::ChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(profileErrorSlug(ProfileError::LegacyFormat), "legacy_format");
  EXPECT_STREQ(profileErrorSlug(ProfileError::None), "none");
}

//===----------------------------------------------------------------------===//
// Report bytes. The three fixture reports (StartupReportFixtures.h) pinned
// byte for byte in both forms: the report's field order, number spelling
// and quoting are its public format.
//===----------------------------------------------------------------------===//

namespace {

const char *const GoldenBareRunJson =
    R"({"schema":"nimg-startup-report","version":1,"target":"Richards",)"
    R"("command":"run","run":{"text_faults":9,"heap_faults":17,)"
    R"("text_cold_faults":2,"total_faults":26,"prefetched_pages":31,)"
    R"("instructions":795814,"probe_units":0,"time_ns":3131072.25,)"
    R"("responded":true,"time_to_first_response_ns":1048576.5,)"
    R"("trapped":false,"fuel_exhausted":false,"stored_objects_touched":222,)"
    R"("stored_objects_total":2894,"text_page_map":"##+.#",)"
    R"("heap_page_map":"#+."}})";

const char *const GoldenBareRunCsv = R"(section,key,value
report,schema,nimg-startup-report
report,version,1
report,target,Richards
report,command,run
run,text_faults,9
run,heap_faults,17
run,text_cold_faults,2
run,total_faults,26
run,prefetched_pages,31
run,instructions,795814
run,probe_units,0
run,time_ns,3131072.250000
run,responded,true
run,time_to_first_response_ns,1048576.500000
run,trapped,false
run,fuel_exhausted,false
run,stored_objects_touched,222
run,stored_objects_total,2894
)";

const char *const GoldenBuildJson =
    R"({"schema":"nimg-startup-report","version":1,"target":"Richards",)"
    R"("command":"build",)"
    R"("variant":"code=cu members=3 split=hotcold huge-pages=2",)"
    R"("image":{"num_cus":3,"snapshot_objects":5,"text_size":413696,)"
    R"("heap_size":282624,"seed":7,"instrumented":false,)"
    R"("build_failed":false},"split":{"mode":"hotcold","cus_split":2,)"
    R"("cus_degraded":1,"hot_bytes":9000,"cold_bytes":4000,"stub_bytes":48,)"
    R"("cold_tail_offset":401408,"cold_tail_size":12288},)"
    R"("pages":{"page_size":4096,"huge_page_size":2097152,)"
    R"("huge_pages_requested":2,"huge_pages":1,"huge_region_size":2097152},)"
    R"("profile_diag":{"code_profile_provided":true,)"
    R"("code_profile_applied":true,"heap_profile_provided":true,)"
    R"("heap_profile_applied":false,"degraded":true,)"
    R"("issues":[{"kind":"checksum_mismatch","row":0},)"
    R"({"kind":"malformed_cell","row":4,"detail":"cell 2,)"
    R"( \"x\" is not a count"}]},"merge":{"outcome":"merged","members":3,)"
    R"("accepted":1,"salvaged":1,"quarantined":1,)"
    R"("manifest":[{"name":"fleet/a/cu.csv","status":"accepted",)"
    R"("coverage_permille":1000,"generation":101,"drift_score":0.125,)"
    R"("weight":1,"rows":40},{"name":"fleet/b/cu.csv","status":"salvaged",)"
    R"("reason":"checksum_mismatch","detail":"salvaged 30 of 40 rows",)"
    R"("coverage_permille":750,"generation":100,)"
    R"("drift_score":0.29999999999999999,"weight":0.70710678118654757,)"
    R"("rows":30},{"name":"fleet/c/cu.csv","status":"quarantined",)"
    R"("reason":"stale_generation","coverage_permille":0,"generation":60,)"
    R"("drift_score":0,"weight":0,"rows":0}]}})";

const char *const GoldenBuildCsv = R"(section,key,value
report,schema,nimg-startup-report
report,version,1
report,target,Richards
report,command,build
report,variant,code=cu members=3 split=hotcold huge-pages=2
image,num_cus,3
image,snapshot_objects,5
image,text_size,413696
image,heap_size,282624
image,seed,7
image,instrumented,false
image,build_failed,false
split,mode,hotcold
split,cus_split,2
split,cus_degraded,1
split,hot_bytes,9000
split,cold_bytes,4000
split,stub_bytes,48
split,cold_tail_offset,401408
split,cold_tail_size,12288
pages,page_size,4096
pages,huge_page_size,2097152
pages,huge_pages_requested,2
pages,huge_pages,1
pages,huge_region_size,2097152
profile_diag,code_profile_provided,true
profile_diag,code_profile_applied,true
profile_diag,heap_profile_provided,true
profile_diag,heap_profile_applied,false
profile_diag,degraded,true
profile_diag,issues,2
profile_diag.issue,checksum_mismatch,0
profile_diag.issue,malformed_cell,"cell 2, ""x"" is not a count"
merge,outcome,merged
merge,members,3
merge,accepted,1
merge,salvaged,1
merge,quarantined,1
merge.member,fleet/a/cu.csv,accepted
merge.member,fleet/b/cu.csv,salvaged:checksum_mismatch
merge.member,fleet/c/cu.csv,quarantined:stale_generation
)";

const char *const GoldenFleetStormJson =
    R"({"schema":"nimg-startup-report","version":1,"target":"Richards",)"
    R"("command":"run","variant":"fleet=4 arrivals=storm",)"
    R"("run":{"text_faults":9,"heap_faults":17,"text_cold_faults":2,)"
    R"("total_faults":26,"prefetched_pages":31,"instructions":795814,)"
    R"("probe_units":4000,"time_ns":3131072.25,"responded":false,)"
    R"("trapped":true,"trap_message":"null dereference in Richards.run",)"
    R"("fuel_exhausted":false,"stored_objects_touched":222,)"
    R"("stored_objects_total":2894,"text_page_map":"##+.#",)"
    R"("heap_page_map":"#+."},"capture":{"mode":"sampled",)"
    R"("sample_period":2048,"samples_taken":388,"events_skipped":12,)"
    R"("coverage_permille":968,"overhead_permille":1.2775176299429054},)"
    R"("image":{"num_cus":3,"snapshot_objects":5,"text_size":413696,)"
    R"("heap_size":282624,"seed":7,"instrumented":false,)"
    R"("build_failed":false},"split":{"mode":"hotcold","cus_split":2,)"
    R"("cus_degraded":1,"hot_bytes":9000,"cold_bytes":4000,"stub_bytes":48,)"
    R"("cold_tail_offset":401408,"cold_tail_size":12288,)"
    R"("text_cold_faults":2,"text_hot_faults":7},"pages":{"page_size":4096,)"
    R"("huge_page_size":2097152,"huge_pages_requested":2,"huge_pages":1,)"
    R"("huge_region_size":2097152,"text_huge_faults":3,)"
    R"("text_small_faults":6},"fleet":{"instances":4,"arrivals":"storm",)"
    R"("arrival_window_ns":20000000,"seed":11,"storm_bursts":2,)"
    R"("cache_pages":64,"major_faults":30,"warm_hits":74,)"
    R"("warm_hit_permille":711,"unique_pages":30,"evictions":0,)"
    R"("cold_start_p50_ns":1565536.125,"cold_start_p90_ns":2000000.5,)"
    R"("cold_start_p99_ns":3131072.25,"cold_start_mean_ns":600000,)"
    R"("reference_faults":26,"reference_time_ns":3131072.25},)"
    R"("profile_diag":{"code_profile_provided":true,)"
    R"("code_profile_applied":true,"heap_profile_provided":true,)"
    R"("heap_profile_applied":false,"degraded":true,)"
    R"("issues":[{"kind":"checksum_mismatch","row":0},)"
    R"({"kind":"malformed_cell","row":4,"detail":"cell 2,)"
    R"( \"x\" is not a count"}]},"merge":{"outcome":"merged","members":3,)"
    R"("accepted":1,"salvaged":1,"quarantined":1,)"
    R"("manifest":[{"name":"fleet/a/cu.csv","status":"accepted",)"
    R"("coverage_permille":1000,"generation":101,"drift_score":0.125,)"
    R"("weight":1,"rows":40},{"name":"fleet/b/cu.csv","status":"salvaged",)"
    R"("reason":"checksum_mismatch","detail":"salvaged 30 of 40 rows",)"
    R"("coverage_permille":750,"generation":100,)"
    R"("drift_score":0.29999999999999999,"weight":0.70710678118654757,)"
    R"("rows":30},{"name":"fleet/c/cu.csv","status":"quarantined",)"
    R"("reason":"stale_generation","coverage_permille":0,"generation":60,)"
    R"("drift_score":0,"weight":0,"rows":0}]},"salvage":[{"phase":"cu",)"
    R"("stats":{"words_scanned":4096,"words_kept":4096,"words_dropped":0,)"
    R"("threads_truncated":0,"threads_dropped":0,)"
    R"("incomplete_tail_records":0,"mode_mismatch":false,"clean":true}},)"
    R"({"phase":"heap","stats":{"words_scanned":4096,"words_kept":4000,)"
    R"("words_dropped":96,"threads_truncated":1,"threads_dropped":0,)"
    R"("incomplete_tail_records":0,"mode_mismatch":false,"clean":false}}]})";

const char *const GoldenFleetStormCsv = R"(section,key,value
report,schema,nimg-startup-report
report,version,1
report,target,Richards
report,command,run
report,variant,fleet=4 arrivals=storm
run,text_faults,9
run,heap_faults,17
run,text_cold_faults,2
run,total_faults,26
run,prefetched_pages,31
run,instructions,795814
run,probe_units,4000
run,time_ns,3131072.250000
run,responded,false
run,trapped,true
run,fuel_exhausted,false
run,stored_objects_touched,222
run,stored_objects_total,2894
capture,mode,sampled
capture,sample_period,2048
capture,samples_taken,388
capture,events_skipped,12
capture,coverage_permille,968
capture,overhead_permille,1.277518
image,num_cus,3
image,snapshot_objects,5
image,text_size,413696
image,heap_size,282624
image,seed,7
image,instrumented,false
image,build_failed,false
split,mode,hotcold
split,cus_split,2
split,cus_degraded,1
split,hot_bytes,9000
split,cold_bytes,4000
split,stub_bytes,48
split,cold_tail_offset,401408
split,cold_tail_size,12288
split,text_cold_faults,2
split,text_hot_faults,7
pages,page_size,4096
pages,huge_page_size,2097152
pages,huge_pages_requested,2
pages,huge_pages,1
pages,huge_region_size,2097152
pages,text_huge_faults,3
pages,text_small_faults,6
fleet,instances,4
fleet,arrivals,storm
fleet,arrival_window_ns,20000000.000000
fleet,seed,11
fleet,storm_bursts,2
fleet,cache_pages,64
fleet,major_faults,30
fleet,warm_hits,74
fleet,warm_hit_permille,711
fleet,unique_pages,30
fleet,evictions,0
fleet,cold_start_p50_ns,1565536.125000
fleet,cold_start_p90_ns,2000000.500000
fleet,cold_start_p99_ns,3131072.250000
fleet,cold_start_mean_ns,600000.000000
fleet,reference_faults,26
fleet,reference_time_ns,3131072.250000
profile_diag,code_profile_provided,true
profile_diag,code_profile_applied,true
profile_diag,heap_profile_provided,true
profile_diag,heap_profile_applied,false
profile_diag,degraded,true
profile_diag,issues,2
profile_diag.issue,checksum_mismatch,0
profile_diag.issue,malformed_cell,"cell 2, ""x"" is not a count"
merge,outcome,merged
merge,members,3
merge,accepted,1
merge,salvaged,1
merge,quarantined,1
merge.member,fleet/a/cu.csv,accepted
merge.member,fleet/b/cu.csv,salvaged:checksum_mismatch
merge.member,fleet/c/cu.csv,quarantined:stale_generation
salvage.cu,words_scanned,4096
salvage.cu,words_kept,4096
salvage.cu,words_dropped,0
salvage.cu,threads_truncated,0
salvage.cu,threads_dropped,0
salvage.cu,incomplete_tail_records,0
salvage.cu,mode_mismatch,false
salvage.heap,words_scanned,4096
salvage.heap,words_kept,4000
salvage.heap,words_dropped,96
salvage.heap,threads_truncated,1
salvage.heap,threads_dropped,0
salvage.heap,incomplete_tail_records,0
salvage.heap,mode_mismatch,false
)";

} // namespace

TEST(StartupReport, GoldenJsonAndCsv) {
  using namespace fixtures;
  EXPECT_EQ(bareRunReport().toJson(), GoldenBareRunJson);
  EXPECT_EQ(bareRunReport().toCsv(), GoldenBareRunCsv);
  EXPECT_EQ(buildReport().toJson(), GoldenBuildJson);
  EXPECT_EQ(buildReport().toCsv(), GoldenBuildCsv);
  EXPECT_EQ(fleetStormReport().toJson(), GoldenFleetStormJson);
  EXPECT_EQ(fleetStormReport().toCsv(), GoldenFleetStormCsv);
}

TEST(StartupReport, CsvCellsWithSeparatorsStayOneRow) {
  // Merge member names are user file paths and issue details carry raw
  // input bytes: a comma, quote or carriage return in either must stay
  // inside its cell.
  const std::string Name = "a,b\r\"c";
  const std::string Detail = "row 3\rcell \"x\", y";
  NativeImage Img = fixtures::syntheticImage();
  Img.ProfileDiag.Merge.Members[0].Name = Name;
  Img.ProfileDiag.Issues[1].Detail = Detail;
  StartupReport Report;
  Report.Command = "build";
  Report.setImage(Img);

  CsvDocument Doc = parseCsv(Report.toCsv());
  ASSERT_GT(Doc.Rows.size(), 1u);
  bool SawName = false, SawDetail = false;
  for (const std::vector<std::string> &Row : Doc.Rows) {
    ASSERT_EQ(Row.size(), 3u) << Row[0];
    SawName |= Row[0] == "merge.member" && Row[1] == Name;
    SawDetail |= Row[0] == "profile_diag.issue" && Row[2] == Detail;
  }
  EXPECT_TRUE(SawName);
  EXPECT_TRUE(SawDetail);
}
