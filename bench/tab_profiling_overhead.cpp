//===- tab_profiling_overhead.cpp - Reproduces Sec. 7.4's numbers ----------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Sec. 7.4: execution-time overhead of the tracing profiler, per
// instrumentation kind. Paper reference — AWFY (flush-on-full dump mode):
// cu 1.21x, method 1.83x, heap 1.36x; microservices (memory-mapped dump
// mode): cu 1.90x, method 3.68x, heap 2.16x. The heap overhead is a single
// number because the emitted instrumentation is the same for all three
// heap-ordering strategies.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"
#include "src/core/Builder.h"
#include "src/profiling/PathGraph.h"

using namespace nimg;
using namespace nimg::benchutil;

namespace {

/// Space cost of the trace itself, per recorded event, for both stream
/// encodings (src/profiling/Trace.h): fixed 8-byte words vs. the
/// LEB128/zigzag delta coding. Sec. 7.4 discusses time overhead only; the
/// space axis decides whether traces from long startup windows fit their
/// buffers, and the delta coding is what makes the memory-mapped dump
/// mode affordable.
struct EncodingCost {
  std::string Mode;
  double RawBytesPerEvent = 0;
  double VarintBytesPerEvent = 0;
  /// Modeled run-time overhead of this capture against the uninstrumented
  /// base run (time / base - 1). The sampled row runs on the uninstrumented
  /// image itself (that is the point of the mode); the instrumented rows
  /// run on the instrumented build, as in production.
  double Overhead = 0;
};

std::vector<EncodingCost> measureEncodingCosts(Program &P,
                                               const RunConfig &Run) {
  std::vector<EncodingCost> Out;
  BuildConfig Cfg;
  Cfg.Seed = 404;
  Cfg.Instrumented = true;
  NativeImage Img = buildNativeImage(P, Cfg);
  if (Img.Built.Failed)
    return Out;
  BuildConfig BaseCfg;
  BaseCfg.Seed = 404;
  NativeImage BaseImg = buildNativeImage(P, BaseCfg);
  if (BaseImg.Built.Failed)
    return Out;
  double BaseNs = runImage(BaseImg, Run).TimeNs;

  // Every instrumented (mode x encoding) capture comes from one run of the
  // instrumented image; the sampler runs alone, once per encoding.
  const struct {
    TraceMode Mode;
    const char *Name;
  } Modes[] = {{TraceMode::CuOrder, "cu"},
               {TraceMode::MethodOrder, "method"},
               {TraceMode::HeapOrder, "heap"},
               {TraceMode::Sampled, "sampled"}};
  const TraceEncoding Encodings[] = {TraceEncoding::Raw,
                                     TraceEncoding::VarintDelta};
  std::vector<TraceOptions> Instrumented;
  for (const auto &M : Modes)
    for (TraceEncoding Enc : Encodings)
      if (M.Mode != TraceMode::Sampled) {
        TraceOptions TOpts;
        TOpts.Mode = M.Mode;
        TOpts.Encoding = Enc;
        Instrumented.push_back(TOpts);
      }
  PathGraphCache Paths(P);
  std::vector<TraceCapture> Captures;
  std::vector<RunStats> Stats =
      runImageTraced(Img, Run, Instrumented, Captures, Paths);
  for (const auto &M : Modes)
    for (TraceEncoding Enc : Encodings)
      if (M.Mode == TraceMode::Sampled) {
        TraceOptions TOpts;
        TOpts.Mode = M.Mode;
        TOpts.Encoding = Enc;
        RunConfig RC = Run;
        RC.Trace = &TOpts;
        Captures.emplace_back();
        Stats.push_back(runImage(BaseImg, RC, &Captures.back()));
      }

  // Captures and Stats now hold every (mode x encoding) in Modes order.
  size_t At = 0;
  for (const auto &M : Modes) {
    EncodingCost C;
    C.Mode = M.Name;
    for (TraceEncoding Enc : Encodings) {
      const TraceCapture &Capture = Captures[At];
      double PerEvent =
          Capture.totalWords() == 0
              ? 0.0
              : double(Capture.totalBytes()) / double(Capture.totalWords());
      (Enc == TraceEncoding::Raw ? C.RawBytesPerEvent
                                 : C.VarintBytesPerEvent) = PerEvent;
      if (Enc == TraceEncoding::Raw && BaseNs > 0)
        C.Overhead = Stats[At].TimeNs / BaseNs - 1.0;
      ++At;
    }
    Out.push_back(C);
  }
  return Out;
}

} // namespace

static void writeSuiteJson(obs::JsonWriter &W,
                           const std::vector<BenchmarkEval> &Evals) {
  std::vector<double> Cu, Method, Heap;
  W.key("benchmarks");
  W.beginArray();
  for (const BenchmarkEval &E : Evals) {
    W.beginObject();
    W.member("name", E.Benchmark);
    W.member("cu", E.CuOverhead);
    W.member("method", E.MethodOverhead);
    W.member("heap", E.HeapOverhead);
    W.endObject();
    Cu.push_back(E.CuOverhead);
    Method.push_back(E.MethodOverhead);
    Heap.push_back(E.HeapOverhead);
  }
  W.endArray();
  W.key("geomean");
  W.beginObject();
  W.member("cu", geomean(Cu));
  W.member("method", geomean(Method));
  W.member("heap", geomean(Heap));
  W.endObject();
}

static void printSuite(const char *Title,
                       const std::vector<BenchmarkEval> &Evals) {
  std::printf("%s\n", Title);
  std::printf("%-12s %10s %10s %10s\n", "benchmark", "cu", "method", "heap");
  std::vector<double> Cu, Method, Heap;
  for (const BenchmarkEval &E : Evals) {
    std::printf("%-12s %10.2f %10.2f %10.2f\n", E.Benchmark.c_str(),
                E.CuOverhead, E.MethodOverhead, E.HeapOverhead);
    Cu.push_back(E.CuOverhead);
    Method.push_back(E.MethodOverhead);
    Heap.push_back(E.HeapOverhead);
  }
  std::printf("%-12s %10.2f %10.2f %10.2f\n\n", "geomean", geomean(Cu),
              geomean(Method), geomean(Heap));
}

int main(int Argc, char **Argv) {
  bool Smoke = smokeMode(Argc, Argv);
  EvalOptions Opts = defaultOptions();
  std::printf("Sec. 7.4 — tracing-profiler execution-time overhead "
              "(instrumented / baseline)\n\n");

  std::vector<std::string> AwfyNames = awfyBenchmarkNames();
  std::vector<std::string> MicroNames = microserviceNames();
  applySmoke(Smoke, AwfyNames, Opts);
  applySmoke(Smoke, MicroNames, Opts, /*Keep=*/1);

  std::vector<BenchmarkEval> Awfy =
      evaluateSuite(AwfyNames, /*Microservices=*/false, Opts);
  printSuite("AWFY (buffer dump mode: flush on full / at termination)",
             Awfy);

  std::vector<BenchmarkEval> Micro =
      evaluateSuite(MicroNames, /*Microservices=*/true, Opts);
  printSuite("microservices (buffer dump mode: memory-mapped trace files)",
             Micro);

  // Space overhead of the trace stream itself, per recorded event.
  const char *CostBench = Smoke ? "Bounce" : "Richards";
  std::vector<std::string> Errors;
  std::unique_ptr<Program> CostP =
      compileBenchmark(awfyBenchmark(CostBench), Errors);
  std::vector<EncodingCost> Costs;
  if (CostP) {
    RunConfig Run;
    Costs = measureEncodingCosts(*CostP, Run);
    std::printf("trace bytes per event (AWFY %s; raw = fixed 8-byte "
                "words, varint = LEB128 zigzag deltas; overhead = modeled "
                "run time / uninstrumented base - 1)\n",
                CostBench);
    std::printf("%-12s %10s %10s %10s %10s\n", "tracing", "raw", "varint",
                "ratio", "overhead");
    for (const EncodingCost &C : Costs)
      std::printf("%-12s %10.2f %10.2f %9.1fx %9.2f%%\n", C.Mode.c_str(),
                  C.RawBytesPerEvent, C.VarintBytesPerEvent,
                  C.VarintBytesPerEvent == 0
                      ? 1.0
                      : C.RawBytesPerEvent / C.VarintBytesPerEvent,
                  C.Overhead * 100.0);
    std::printf("\n");
  }

  bool Ok = benchjson::writeBenchJson(
      "BENCH_overhead.json", "tab_overhead", [&](obs::JsonWriter &W) {
        W.member("seeds", uint64_t(Opts.Seeds));
        W.member("smoke", Smoke);
        W.key("awfy");
        W.beginObject();
        writeSuiteJson(W, Awfy);
        W.endObject();
        W.key("microservices");
        W.beginObject();
        writeSuiteJson(W, Micro);
        W.endObject();
        W.key("trace_bytes_per_event");
        W.beginArray();
        for (const EncodingCost &C : Costs) {
          W.beginObject();
          W.member("tracing", C.Mode);
          W.member("raw", C.RawBytesPerEvent);
          W.member("varint_delta", C.VarintBytesPerEvent);
          W.member("overhead", C.Overhead);
          W.endObject();
        }
        W.endArray();
      });
  return Ok ? 0 : 1;
}
