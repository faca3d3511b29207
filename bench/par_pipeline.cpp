//===- par_pipeline.cpp - Parallel build-stage scaling ---------------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Thread scaling of the parallelized build stage (DESIGN.md § 10): per-CU
// compilation. Runs it at --jobs 1/2/4/8 over one AWFY macro benchmark and
// one microservice workload, and reports two speedup curves:
//
//  - wall: measured wall clock. Only meaningful on a multi-core host; in a
//    single-CPU container all worker counts serialize onto one core.
//  - modeled: per-chunk thread-CPU times (via the pool's chunk timing
//    hook) list-scheduled onto J workers per parallelFor batch, plus the
//    measured serial remainder. This is the machine-independent curve and
//    the one the acceptance check reads.
//
// Determinism is asserted as a side effect: every jobs level must produce
// the same compiled program as jobs=1.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "src/compiler/Inliner.h"
#include "src/core/Builder.h"
#include "src/support/ThreadPool.h"
#include "src/workloads/Workloads.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

using namespace nimg;

namespace {

uint64_t monotonicNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
}

/// One workload's fixed inputs: everything the timed region consumes is
/// prepared once so the measurement covers only the parallelized stage.
struct Fixture {
  std::string Name;
  std::unique_ptr<Program> P;
  ReachabilityResult Reach;

  explicit Fixture(const BenchmarkSpec &Spec) : Name(Spec.Name) {
    std::vector<std::string> Errors;
    P = compileBenchmark(Spec, Errors);
    if (!P) {
      for (const std::string &E : Errors)
        std::fprintf(stderr, "error: %s\n", E.c_str());
      return;
    }
    ensureClassMetaClass(*P);
    Reach = analyzeReachability(*P);
  }
};

/// Artifacts of one timed pass, compared across jobs levels.
struct StageOutputs {
  uint64_t InlineFingerprint = 0;
  size_t NumCus = 0;
};

/// Runs the parallel stage once: CU formation.
StageOutputs runStages(Fixture &F) {
  StageOutputs Out;
  InlinerConfig ICfg;
  CompiledProgram Code =
      buildCompilationUnits(*F.P, F.Reach, ICfg, /*Instrumented=*/false);
  Out.InlineFingerprint = Code.InlineFingerprint;
  Out.NumCus = Code.CUs.size();
  return Out;
}

bool sameOutputs(const StageOutputs &A, const StageOutputs &B) {
  return A.InlineFingerprint == B.InlineFingerprint && A.NumCus == B.NumCus;
}

/// Chunk CPU times of one parallelFor invocation (one Batch sequence).
struct BatchTimes {
  std::vector<uint64_t> ChunkNs; ///< Indexed by chunk.
};

/// List-schedules the chunks onto \p Jobs workers in chunk order (the
/// pool's pull order) and returns the makespan.
uint64_t makespan(const BatchTimes &B, int Jobs) {
  std::priority_queue<uint64_t, std::vector<uint64_t>,
                      std::greater<uint64_t>>
      Free; // Earliest-available worker finish times.
  for (int J = 0; J < Jobs; ++J)
    Free.push(0);
  uint64_t End = 0;
  for (uint64_t Ns : B.ChunkNs) {
    uint64_t Start = Free.top();
    Free.pop();
    uint64_t Finish = Start + Ns;
    Free.push(Finish);
    End = std::max(End, Finish);
  }
  return End;
}

/// CPU time vs. list-scheduled makespan of one group of batches.
struct StageScaling {
  uint64_t CpuNs = 0;      ///< Total chunk CPU (= modeled 1-worker time).
  uint64_t MakespanNs = 0; ///< Sum of per-batch makespans at J workers.

  double speedup() const {
    return MakespanNs ? double(CpuNs) / double(MakespanNs) : 1.0;
  }
};

struct Measurement {
  uint64_t WallNs = 0;
  uint64_t ParallelCpuNs = 0; ///< Sum of all chunk CPU times.
  uint64_t SerialNs = 0;      ///< max(0, wall - parallel CPU).
  uint64_t ModeledWallNs = 0; ///< serial + sum of per-batch makespans.
  StageScaling Build;
  StageOutputs Outputs;
};

Measurement measure(Fixture &F, int Jobs) {
  setJobs(Jobs);
  std::mutex Mu;
  std::map<uint64_t, BatchTimes> Batches;
  setChunkTimingHook([&](const char * /*Stage*/, uint64_t Batch,
                         size_t Chunk, uint64_t CpuNs) {
    std::lock_guard<std::mutex> G(Mu);
    BatchTimes &B = Batches[Batch];
    if (B.ChunkNs.size() <= Chunk)
      B.ChunkNs.resize(Chunk + 1, 0);
    B.ChunkNs[Chunk] = CpuNs;
  });

  Measurement M;
  uint64_t Start = monotonicNs();
  M.Outputs = runStages(F);
  M.WallNs = monotonicNs() - Start;
  setChunkTimingHook(nullptr);

  uint64_t MakespanSum = 0;
  for (const auto &[Seq, B] : Batches) {
    (void)Seq;
    uint64_t Cpu = 0;
    for (uint64_t Ns : B.ChunkNs)
      Cpu += Ns;
    uint64_t Mk = makespan(B, Jobs);
    M.ParallelCpuNs += Cpu;
    MakespanSum += Mk;
    M.Build.CpuNs += Cpu;
    M.Build.MakespanNs += Mk;
  }
  M.SerialNs = M.WallNs > M.ParallelCpuNs ? M.WallNs - M.ParallelCpuNs : 0;
  M.ModeledWallNs = M.SerialNs + MakespanSum;
  return M;
}

struct CurvePoint {
  int Jobs;
  uint64_t WallNs;
  uint64_t ModeledWallNs;
  double SpeedupWall;
  double SpeedupModeled;
  double SpeedupBuildStages; ///< Modeled, compile only.
};

} // namespace

int main(int Argc, char **Argv) {
  // --smoke (bench-smoke ctest label): one workload, jobs 1/2, one rep —
  // exercises the harness and the JSON artifact; the >= 2x speedup gate
  // needs the jobs=4 point and is skipped.
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  std::vector<int> JobLevels = {1, 2, 4, 8};
  std::vector<BenchmarkSpec> Specs = {awfyBenchmark("Richards"),
                                      microserviceBenchmark("micronaut")};
  if (Smoke) {
    JobLevels = {1, 2};
    Specs.resize(1);
  }
  const int Reps = Smoke ? 1 : 3;

  struct WorkloadResult {
    std::string Name;
    std::vector<CurvePoint> Curve;
    bool Deterministic = true;
  };
  std::vector<WorkloadResult> Results;

  for (const BenchmarkSpec &Spec : Specs) {
    Fixture F(Spec);
    if (!F.P)
      return 1;
    setJobs(1);
    StageOutputs Reference = runStages(F);

    WorkloadResult R;
    R.Name = F.Name;
    uint64_t BaselineModeled = 0, BaselineWall = 0;
    for (int Jobs : JobLevels) {
      // Of the repetitions keep the run with the smallest wall time —
      // the least-perturbed sample of the same deterministic work.
      Measurement Best;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        Measurement M = measure(F, Jobs);
        if (Rep == 0 || M.WallNs < Best.WallNs)
          Best = std::move(M);
      }
      R.Deterministic &= sameOutputs(Reference, Best.Outputs);
      if (Jobs == 1) {
        BaselineWall = Best.WallNs;
        BaselineModeled = Best.ModeledWallNs;
      }
      CurvePoint Pt;
      Pt.Jobs = Jobs;
      Pt.WallNs = Best.WallNs;
      Pt.ModeledWallNs = Best.ModeledWallNs;
      Pt.SpeedupWall =
          Best.WallNs ? double(BaselineWall) / double(Best.WallNs) : 1.0;
      Pt.SpeedupModeled = Best.ModeledWallNs
                              ? double(BaselineModeled) /
                                    double(Best.ModeledWallNs)
                              : 1.0;
      Pt.SpeedupBuildStages = Best.Build.speedup();
      R.Curve.push_back(Pt);
    }
    Results.push_back(std::move(R));
  }
  setJobs(0);

  std::printf("Parallel build-stage scaling — cu compile only\n");
  std::printf("host cpus: %d (wall speedup is flat on a single-core host; "
              "modeled is the scaling curve)\n\n",
              hardwareJobs());
  for (const WorkloadResult &R : Results) {
    std::printf("%s  (deterministic across jobs: %s)\n", R.Name.c_str(),
                R.Deterministic ? "yes" : "NO");
    std::printf("  %5s %12s %12s %9s %9s %9s\n", "jobs", "wall ms",
                "modeled ms", "wall x", "model x", "build x");
    for (const CurvePoint &Pt : R.Curve)
      std::printf("  %5d %12.2f %12.2f %8.2fx %8.2fx %8.2fx\n", Pt.Jobs,
                  double(Pt.WallNs) / 1e6, double(Pt.ModeledWallNs) / 1e6,
                  Pt.SpeedupWall, Pt.SpeedupModeled, Pt.SpeedupBuildStages);
    std::printf("\n");
  }

  // The acceptance gate: the parallelized build stage must hit >= 2x
  // modeled speedup at 4 workers on every workload.
  bool AllDeterministic = true;
  double MinJobs4Build = 1e30;
  for (const WorkloadResult &R : Results) {
    AllDeterministic &= R.Deterministic;
    for (const CurvePoint &Pt : R.Curve)
      if (Pt.Jobs == 4)
        MinJobs4Build = std::min(MinJobs4Build, Pt.SpeedupBuildStages);
  }
  if (Smoke)
    std::printf("smoke mode: speedup gate skipped (no jobs=4 point)\n");
  else
    std::printf("min modeled build-stage speedup at 4 jobs: %.2fx "
                "(target >= 2x)\n",
                MinJobs4Build);

  bool JsonOk = benchjson::writeBenchJson(
      "BENCH_parallel.json", "parallel", [&](obs::JsonWriter &W) {
        W.member("cpus", uint64_t(hardwareJobs()));
        W.member("smoke", Smoke);
        W.member("deterministic", AllDeterministic);
        W.member("min_jobs4_speedup_modeled_build_stages", MinJobs4Build);
        W.key("workloads");
        W.beginArray();
        for (const WorkloadResult &R : Results) {
          W.beginObject();
          W.member("name", R.Name);
          W.member("deterministic", R.Deterministic);
          W.key("curve");
          W.beginArray();
          for (const CurvePoint &Pt : R.Curve) {
            W.beginObject();
            W.member("jobs", uint64_t(Pt.Jobs));
            W.member("wall_ns", Pt.WallNs);
            W.member("modeled_wall_ns", Pt.ModeledWallNs);
            W.member("speedup_wall", Pt.SpeedupWall);
            W.member("speedup_modeled", Pt.SpeedupModeled);
            W.member("speedup_modeled_build_stages", Pt.SpeedupBuildStages);
            W.endObject();
          }
          W.endArray();
          W.endObject();
        }
        W.endArray();
      });
  if (Smoke)
    return AllDeterministic && JsonOk ? 0 : 1;
  return AllDeterministic && MinJobs4Build >= 2.0 && JsonOk ? 0 : 1;
}
