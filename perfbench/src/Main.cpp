//===- Main.cpp - nimg_bench: the repository benchmark ----------------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Usage: nimg_bench --workload layout_sweep|profile_capture|cold_start_storm
//                   --seed N --seconds S --trace 0|1
//                   [--jobs J] [--smoke] [--trace-out FILE] [--commit ID]
//
// One process, one closed-loop client: the next op starts when the last
// one returned. The library's thread pool is sized to the host's CPUs
// unless --jobs says otherwise. With --trace 0 the run sets up three to
// nine times (setup_s is the median), runs ops for S seconds with tracing
// off, fails if fewer than ten ops lie beyond the tail percentile, then
// computes the modeled metrics in an untimed pass. With --trace 1 it runs
// each op untraced and traced for S seconds (the time ratio is the tracing
// overhead), then calls every layer once per program under spans. --smoke
// runs one cycle of ops over one or two small programs.
//
// The last line of stdout is the result: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. Exit code 0 iff a
// result was printed.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "src/obs/Json.h"
#include "src/support/ThreadPool.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace bench;

namespace {

/// Every metric the benchmark reports, with the clock it is read from:
/// "host" is wall or CPU time of this process, "modeled" is the
/// simulator's CostModel clock or a count. No host number is ever derived
/// from a modeled one.
struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Clock;
  const char *Better;
};

const MetricDef EndToEnd[] = {
    {"throughput_ops_s", "1/s", "host", "higher"},
    {"op_p50_ms", "ms", "host", "lower"},
    {"op_tail_ms", "ms", "host", "lower"},
    {"setup_s", "s", "host", "lower"},
    {"peak_rss_mb", "MB", "host", "lower"},
    {"modeled_speedup", "ratio", "modeled", "higher"},
    {"fault_factor", "ratio", "modeled", "higher"},
    {"profiling_overhead", "ratio", "modeled", "lower"},
    {"fleet_p99_ms", "ms", "modeled", "lower"},
};

const MetricDef PerLayer[] = {
    {"lang.compile_ms", "ms", "host", "lower"},
    {"compiler.reach_ms", "ms", "host", "lower"},
    {"compiler.cu_formation_ms", "ms", "host", "lower"},
    {"compiler.cus", "count", "modeled", "lower"},
    {"heap.init_ms", "ms", "host", "lower"},
    {"heap.snapshot_ms", "ms", "host", "lower"},
    {"heap.snapshot_objects", "count", "modeled", "lower"},
    {"ordering.id_table_ms", "ms", "host", "lower"},
    {"ordering.order_ms", "ms", "host", "lower"},
    {"image.layout_ms", "ms", "host", "lower"},
    {"image.text_kb", "KiB", "modeled", "lower"},
    {"image.heap_kb", "KiB", "modeled", "lower"},
    {"core.build_ms", "ms", "host", "lower"},
    {"core.stage_coverage", "ratio", "host", "higher"},
    {"runtime.run_ms", "ms", "host", "lower"},
    {"runtime.minstr_per_s", "Minstr/s", "host", "higher"},
    {"support.cpu_util", "ratio", "host", "higher"},
    {"core.profile_ms", "ms", "host", "lower"},
    {"core.profile_set_ms", "ms", "host", "lower"},
    {"runtime.traced_run_ms", "ms", "host", "lower"},
    {"profiling.post_ms", "ms", "host", "lower"},
    {"profiling.trace_kwords", "kword", "modeled", "lower"},
    {"profiling.csv_ms", "ms", "host", "lower"},
    {"profiling.csv_kb", "KiB", "modeled", "lower"},
    {"profiling.aggregate_ms", "ms", "host", "lower"},
    {"profiling.members_accepted_ratio", "ratio", "modeled", "higher"},
    {"profiling.salvage_permille", "permille", "modeled", "higher"},
    {"image.load_ms", "ms", "host", "lower"},
    {"image.serialize_ms", "ms", "host", "lower"},
    {"image.file_kb", "KiB", "modeled", "lower"},
    {"fleet.sim_ms", "ms", "host", "lower"},
    {"fleet.majors", "count", "modeled", "lower"},
    {"fleet.warm_hit_ratio", "ratio", "modeled", "higher"},
    {"fleet.evictions", "count", "modeled", "lower"},
    {"runtime.text_faults", "count", "modeled", "lower"},
    {"runtime.heap_faults", "count", "modeled", "lower"},
    {"runtime.prefetched_pages", "count", "modeled", "lower"},
    {"runtime.instructions", "count", "modeled", "lower"},
    {"runtime.probe_units", "count", "modeled", "lower"},
    {"trace.overhead_ratio", "ratio", "host", "lower"},
};

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  int Jobs = 0;
  bool Smoke = false;
  std::string TraceOut;
  std::string Commit = "unknown";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && !*End;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      if (!*V || *End || !(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return false;
      A.Trace = V[0] - '0';
    } else if (Flag == "--jobs") {
      A.Jobs = std::atoi(V);
      if (A.Jobs < 1)
        return false;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else if (Flag == "--commit") {
      A.Commit = V;
    } else {
      return false;
    }
  }
  return HaveSeed && A.Trace >= 0 && (A.Smoke || A.Seconds > 0);
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return double(T.tv_sec) + double(T.tv_usec) / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct LoopResult {
  size_t Ops = 0;
  size_t Attempted = 0;
  size_t Failed = 0;
  double WallS = 0;
  double CpuS = 0;
  std::vector<double> LatencyMs; ///< Untraced ops only.
  double PlainS = 0;
  double TracedS = 0;
};

/// The closed loop: ops in cycle order from op 0, until \p MaxOps ops ran
/// (when nonzero) or else \p Seconds passed. At least one op runs. With
/// \p Paired every op runs twice, untraced and traced, in alternating
/// order, so the tracing overhead compares the same work at nearly the
/// same time (a shared machine's speed can drift by 10-20% within a
/// minute).
LoopResult runLoop(Workload &W, Tracer &T, double Seconds, size_t MaxOps,
                   bool Paired) {
  LoopResult R;
  const std::vector<Op> &Cycle = W.cycle();
  double Cpu0 = cpuSeconds();
  auto T0 = std::chrono::steady_clock::now();
  do {
    T.setOp(int64_t(R.Ops));
    for (int Pass = 0; Pass < (Paired ? 2 : 1); ++Pass) {
      bool Traced = Paired && (Pass == 0) == (R.Ops % 2 == 1);
      T.setOn(Traced);
      auto Start = std::chrono::steady_clock::now();
      std::string Err;
      {
        Span S(T, "bench.op");
        Err = W.run(Cycle[R.Ops % Cycle.size()], T);
      }
      double Took = secondsSince(Start);
      (Traced ? R.TracedS : R.PlainS) += Took;
      if (!Traced)
        R.LatencyMs.push_back(Took * 1e3);
      ++R.Attempted;
      if (!Err.empty() && R.Failed++ < 5)
        std::fprintf(stderr, "op %zu failed: %s\n", R.Ops, Err.c_str());
    }
    ++R.Ops;
  } while (MaxOps ? R.Ops < MaxOps : secondsSince(T0) < Seconds);
  R.WallS = secondsSince(T0);
  R.CpuS = cpuSeconds() - Cpu0;
  T.setOp(-1);
  return R;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile \p Pct of \p Sorted.
double percentile(const std::vector<double> &Sorted, double Pct) {
  size_t Rank = size_t(std::ceil(Pct / 100.0 * double(Sorted.size())));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::map<std::string, double> &Values,
                 const MetricDef *Defs, size_t NumDefs) {
  std::string Out;
  nimg::obs::JsonWriter W(Out);
  W.beginObject();
  W.member("correct", Correct);
  W.member("attempted", uint64_t(Attempted));
  W.member("failed", uint64_t(Failed));
  W.key("metrics");
  W.beginObject();
  for (size_t I = 0; I < NumDefs; ++I) {
    const MetricDef &D = Defs[I];
    auto It = Values.find(D.Name);
    double V = It == Values.end() ? 0.0 : It->second;
    std::printf("# metric %-34s %14.6g %-9s %-8s %s is better\n", D.Name, V,
                D.Unit, D.Clock, D.Better);
    W.key(D.Name);
    W.beginObject();
    W.member("value", V);
    W.member("unit", D.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  Kind K{};
  if (!parseArgs(Argc, Argv, A) || !parseKind(A.Workload, K)) {
    std::fprintf(stderr,
                 "usage: nimg_bench --workload "
                 "layout_sweep|profile_capture|cold_start_storm --seed N "
                 "--seconds S --trace 0|1 [--jobs J] [--smoke] "
                 "[--trace-out FILE] [--commit ID]\n");
    return 2;
  }
  nimg::setJobs(A.Jobs > 0 ? A.Jobs : nimg::hardwareJobs());

  Workload W(K, A.Seed, A.Smoke);
  std::printf("# workload %s seed %llu: %s\n", A.Workload.c_str(),
              (unsigned long long)A.Seed, W.describe().c_str());
  std::printf("# stamp {\"cpus\": %d, \"pool\": %d, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"commit\": \"%s\"}\n",
              nimg::hardwareJobs(), nimg::currentJobs(), NIMG_BENCH_BUILD_TYPE,
              NIMG_BENCH_COMPILER, A.Commit.c_str());
  std::printf("# loop: closed, 1 client, pool %d\n", nimg::currentJobs());
  std::fflush(stdout);

  const size_t OneCycle = A.Smoke ? W.cycle().size() : 0;
  std::map<std::string, double> Values;
  size_t Attempted = 0, Failed = 0;
  std::string PassErr;

  if (A.Trace == 0) {
    Tracer Off(false);
    // At least MinSetups set-ups and at least SetupBudgetS seconds of them,
    // so that a quick set-up also gets a steady median.
    const size_t MinSetups = A.Smoke ? 1 : 3, MaxSetups = A.Smoke ? 1 : 9;
    constexpr double SetupBudgetS = 3.0;
    std::vector<double> SetupS;
    double SetupSumS = 0;
    while (SetupS.size() < MinSetups ||
           (SetupSumS < SetupBudgetS && SetupS.size() < MaxSetups)) {
      auto T0 = std::chrono::steady_clock::now();
      if (std::string Err = W.setup(Off); !Err.empty()) {
        std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
        return 1;
      }
      SetupS.push_back(secondsSince(T0));
      SetupSumS += SetupS.back();
    }
    LoopResult L = runLoop(W, Off, A.Seconds, OneCycle, false);
    Values["peak_rss_mb"] = peakRssMb();
    Attempted = L.Attempted;
    Failed = L.Failed;
    std::vector<double> Sorted = L.LatencyMs;
    std::sort(Sorted.begin(), Sorted.end());
    Values["setup_s"] = median(SetupS);
    Values["throughput_ops_s"] = double(L.Ops) / L.WallS;
    Values["op_p50_ms"] = median(Sorted);
    Values["op_tail_ms"] = percentile(Sorted, W.tailPercentile());
    size_t Beyond =
        Sorted.end() - std::upper_bound(Sorted.begin(), Sorted.end(),
                                        Values["op_tail_ms"]);
    std::printf("# op_tail_ms is p%g over %zu ops (%zu beyond it); setup_s "
                "is the median of %zu set-ups\n",
                W.tailPercentile(), Sorted.size(), Beyond, SetupS.size());
    // A tail read from fewer ops than this is noise, not a tail.
    constexpr size_t MinBeyondTail = 10;
    if (!A.Smoke && Beyond < MinBeyondTail)
      PassErr = "op_tail_ms: only " + std::to_string(Beyond) +
                " ops beyond its percentile, fewer than " +
                std::to_string(MinBeyondTail);

    Modeled M;
    if (std::string Err = W.modeled(M); !Err.empty())
      PassErr += std::string(PassErr.empty() ? "" : "; ") + Err;
    Values["modeled_speedup"] = M.Speedup;
    Values["fault_factor"] = M.FaultFactor;
    Values["profiling_overhead"] = M.ProfilingOverhead;
    Values["fleet_p99_ms"] = M.FleetP99Ms;
  } else {
    Tracer T(true);
    if (std::string Err = W.setup(T); !Err.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
      return 1;
    }
    LoopResult L = runLoop(W, T, A.Seconds, OneCycle, true);
    T.setOn(true);
    PassErr = W.layerPass(T);
    Attempted = L.Attempted;
    Failed = L.Failed;

    Values = T.metrics();
    Values["runtime.minstr_per_s"] =
        Values["runtime.instructions"] / Values["runtime.run_ms"] / 1e3;
    Values["support.cpu_util"] = L.CpuS / L.WallS;
    Values["trace.overhead_ratio"] = L.TracedS / L.PlainS;
    std::printf("# tracing overhead: the same %zu ops took %.3f s traced vs "
                "%.3f s untraced (x%.4f)\n",
                L.Ops, L.TracedS, L.PlainS, L.TracedS / L.PlainS);
    T.printSelfTimeTable(stdout);
    if (!A.TraceOut.empty()) {
      if (!T.writeChromeTrace(A.TraceOut)) {
        std::fprintf(stderr, "cannot write %s\n", A.TraceOut.c_str());
        return 1;
      }
      std::printf("# trace written to %s\n", A.TraceOut.c_str());
    }
    for (const MetricDef &D : PerLayer)
      if (!Values.count(D.Name))
        PassErr += std::string(PassErr.empty() ? "" : "; ") + "no spans for " +
                   D.Name;
  }

  if (!PassErr.empty()) {
    std::fprintf(stderr, "failed: %s\n", PassErr.c_str());
    ++Attempted;
    ++Failed;
  }
  bool Correct = Failed == 0;
  if (A.Trace == 0)
    printResult(Correct, Attempted, Failed, Values, EndToEnd,
                std::size(EndToEnd));
  else
    printResult(Correct, Attempted, Failed, Values, PerLayer,
                std::size(PerLayer));
  return 0;
}
