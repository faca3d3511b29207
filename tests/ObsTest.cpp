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
