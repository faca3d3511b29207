//===- par_pipeline.cpp - Wall time of the evaluation fan-out -------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Thread scaling of the pool's one stage (DESIGN.md § 10): evaluateSuite's
// fan-out over benchmarks. Times fig2's configuration — the 14 AWFY
// programs, series {none, hotcold}, NIMAGE_EVAL_SEEDS builds per strategy
// (default 3) — at 1, 2 and 4 jobs, and writes the measured wall time, the
// host's cpu count and the process's peak RSS to BENCH_parallel.json.
//
// Exits non-zero unless every jobs level produces the same BenchmarkEvals,
// field for field, or when the wall speedup at 4 jobs is below 2x. The
// speed gate needs four cpus, so it is skipped on smaller hosts and in
// `--smoke` (two programs, one seed, jobs 1 and 2).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"
#include "src/support/ThreadPool.h"

#include <chrono>
#include <sys/resource.h>

using namespace nimg;
using namespace nimg::benchutil;

namespace {

/// The process's peak resident set so far, in MiB.
double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

struct Level {
  int Jobs = 0;
  uint64_t WallNs = 0; ///< The fastest repetition.
  double PeakRssMb = 0;
  bool SameAsOneJob = true;
};

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = smokeMode(Argc, Argv);
  EvalOptions Opts = defaultOptions();
  std::vector<std::string> Names = awfyBenchmarkNames();
  applySmoke(Smoke, Names, Opts);
  std::vector<BenchmarkSpec> Specs = specsOf(Names, awfyBenchmark);
  const std::vector<SplitMode> Series = {SplitMode::None, SplitMode::HotCold};
  std::vector<int> JobLevels = {1, 2, 4};
  if (Smoke)
    JobLevels = {1, 2};
  const int Reps = Smoke ? 1 : 2;
  const int Cpus = hardwareJobs();

  std::vector<std::vector<BenchmarkEval>> Reference;
  std::vector<Level> Levels;
  for (int Jobs : JobLevels) {
    setJobs(Jobs);
    Level L;
    L.Jobs = Jobs;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      auto Start = std::chrono::steady_clock::now();
      std::vector<std::vector<BenchmarkEval>> Evals =
          evaluateSuite(Specs, Series, Opts);
      std::chrono::nanoseconds Wall = std::chrono::steady_clock::now() - Start;
      uint64_t Ns = uint64_t(Wall.count());
      if (Rep == 0 || Ns < L.WallNs)
        L.WallNs = Ns;
      if (Reference.empty())
        Reference = std::move(Evals);
      else
        L.SameAsOneJob &= Evals == Reference;
    }
    L.PeakRssMb = peakRssMb();
    Levels.push_back(L);
  }
  setJobs(0);

  bool Deterministic = true;
  double Speedup4 = 0;
  std::printf("Evaluation fan-out — fig2's configuration (%zu programs, "
              "2 series, %d seed(s)), best of %d\n",
              Specs.size(), Opts.Seeds, Reps);
  std::printf("host cpus: %d\n\n", Cpus);
  std::printf("  %5s %10s %9s %12s %14s\n", "jobs", "wall ms", "wall x",
              "peak RSS MB", "same as jobs 1");
  for (const Level &L : Levels) {
    double Speedup = double(Levels[0].WallNs) / double(L.WallNs);
    if (L.Jobs == 4)
      Speedup4 = Speedup;
    Deterministic &= L.SameAsOneJob;
    std::printf("  %5d %10.1f %8.2fx %12.1f %14s\n", L.Jobs,
                double(L.WallNs) / 1e6, Speedup, L.PeakRssMb,
                L.SameAsOneJob ? "yes" : "NO");
  }

  // The speed gate: >= 2x measured wall speedup at 4 jobs, on a host that
  // has the four cpus to show it.
  bool Gated = !Smoke && Cpus >= 4;
  bool SpeedOk = !Gated || Speedup4 >= 2.0;
  if (Gated)
    std::printf("\nwall speedup at 4 jobs: %.2fx (target >= 2x)\n", Speedup4);
  else
    std::printf("\nspeed gate skipped (%s)\n",
                Smoke ? "smoke mode" : "fewer than 4 cpus");

  bool JsonOk = benchjson::writeBenchJson(
      "BENCH_parallel.json", "parallel", [&](obs::JsonWriter &W) {
        W.member("cpus", uint64_t(Cpus));
        W.member("smoke", Smoke);
        W.member("programs", uint64_t(Specs.size()));
        W.member("seeds", uint64_t(Opts.Seeds));
        W.member("deterministic", Deterministic);
        W.member("speed_gated", Gated);
        W.member("speedup_wall_jobs4", Speedup4);
        W.key("levels");
        W.beginArray();
        for (const Level &L : Levels) {
          W.beginObject();
          W.member("jobs", uint64_t(L.Jobs));
          W.member("wall_ns", L.WallNs);
          W.member("speedup_wall",
                   double(Levels[0].WallNs) / double(L.WallNs));
          W.member("peak_rss_mb", L.PeakRssMb);
          W.member("same_as_jobs1", L.SameAsOneJob);
          W.endObject();
        }
        W.endArray();
      });
  return Deterministic && SpeedOk && JsonOk ? 0 : 1;
}
