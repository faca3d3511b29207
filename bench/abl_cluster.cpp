//===- abl_cluster.cpp - Ablation: cluster ordering page budget ------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// The cluster code orderer (src/ordering/ClusterLayout.h) goes beyond the
// paper's first-execution-time strategies: it packs hot caller/callee CU
// pairs onto shared pages, capped by a page-budget knob. This ablation
// (a) sweeps the budget on one benchmark — at tiny budgets almost every
// merge is rejected and the layout degenerates to cu ordering; unlimited
// budgets let one hot chain swallow the section — and (b) compares
// first-run .text faults of cluster vs. cu ordering across the 14 AWFY
// benchmarks. Both are recorded in BENCH_cluster.json.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "src/core/Builder.h"
#include "src/image/ImageFile.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <cstring>

using namespace nimg;

namespace {

struct BenchResult {
  std::string Name;
  uint64_t BaselineFaults = 0;
  uint64_t CuFaults = 0;
  uint64_t ClusterFaults = 0;
  ClusterStats Stats;
};

/// One build+run with the given code strategy/profile; returns .text
/// faults of a cold first run.
uint64_t textFaultsOf(Program &P, CodeStrategy Code, const CodeProfile *Prof,
                      const RunConfig &Run) {
  BuildConfig Cfg;
  Cfg.Seed = 1;
  Cfg.CodeOrder = Code;
  Cfg.CodeProf = Prof;
  NativeImage Img = buildNativeImage(P, Cfg);
  if (Img.Built.Failed)
    return 0;
  return runImage(Img, Run).TextFaults;
}

} // namespace

int main(int Argc, char **Argv) {
  // --smoke: two budgets, two benchmarks — harness + JSON sanity for the
  // bench-smoke ctest label.
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  RunConfig Run;

  //===--------------------------------------------------------------------===//
  // (a) Page-budget sweep: re-cluster one cu-mode capture at each budget.
  //===--------------------------------------------------------------------===//

  const char *SweepBench = "Richards";
  std::vector<std::string> Errors;
  std::unique_ptr<Program> SweepP =
      compileBenchmark(awfyBenchmark(SweepBench), Errors);
  if (!SweepP) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }

  BuildConfig InstrCfg;
  InstrCfg.Seed = 1001;
  InstrCfg.Instrumented = true;
  NativeImage Instr = buildNativeImage(*SweepP, InstrCfg);

  TraceOptions TOpts;
  TOpts.Mode = TraceMode::CuOrder;
  TOpts.Dump = DumpMode::FlushOnFull;
  RunConfig TraceRun = Run;
  TraceRun.Trace = &TOpts;
  TraceCapture CuCap;
  runImage(Instr, TraceRun, &CuCap);

  uint64_t Fp = programFingerprint(*SweepP);

  std::printf("Ablation — cluster page-budget sweep (AWFY %s)\n", SweepBench);
  std::printf("%12s %8s %8s %10s %10s %12s\n", "budgetBytes", "merges",
              "clusters", "rejected", "textFaults", "vs cu");

  CodeProfile CuProf = analyzeCuOrder(*SweepP, CuCap);
  CuProf.Header.Fingerprint = Fp;
  uint64_t CuFaults =
      textFaultsOf(*SweepP, CodeStrategy::CuOrder, &CuProf, Run);

  struct SweepPoint {
    uint32_t Budget;
    ClusterStats Stats;
    uint64_t TextFaults;
  };
  std::vector<SweepPoint> Sweep;
  std::vector<uint32_t> Budgets = {4096u, 8192u, 16384u, 32768u, 65536u, 0u};
  if (Smoke)
    Budgets = {4096u, 0u};
  for (uint32_t Budget : Budgets) {
    ClusterOptions Opts;
    Opts.PageBudgetBytes = Budget;
    ClusterStats Stats;
    CodeProfile Prof = analyzeClusterOrder(*SweepP, CuCap, Instr.code(), Opts,
                                           nullptr, nullptr, &Stats);
    Prof.Header.Fingerprint = Fp;
    uint64_t Faults =
        textFaultsOf(*SweepP, CodeStrategy::Cluster, &Prof, Run);
    Sweep.push_back({Budget, Stats, Faults});
    std::printf("%12u %8zu %8zu %10zu %10llu %12.2f\n", Budget, Stats.Merges,
                Stats.Clusters, Stats.BudgetRejections,
                (unsigned long long)Faults,
                Faults == 0 ? 1.0 : double(CuFaults) / double(Faults));
  }
  std::printf("  (budget 0 = unlimited; cu ordering: %llu .text faults)\n\n",
              (unsigned long long)CuFaults);

  //===--------------------------------------------------------------------===//
  // (b) cluster vs cu first-run .text faults across the AWFY suite.
  //===--------------------------------------------------------------------===//

  std::printf("cluster vs cu — first-run .text faults (default budget)\n");
  std::printf("%-12s %10s %10s %10s %10s\n", "benchmark", "baseline", "cu",
              "cluster", "cl<=cu");

  std::vector<BenchResult> Results;
  size_t ClusterNoWorse = 0;
  std::vector<std::string> Names = awfyBenchmarkNames();
  if (Smoke && Names.size() > 2)
    Names.resize(2);
  for (const std::string &Name : Names) {
    Errors.clear();
    std::unique_ptr<Program> P = compileBenchmark(awfyBenchmark(Name), Errors);
    if (!P)
      continue;
    BuildConfig ProfCfg;
    ProfCfg.Seed = 1001;
    CollectedProfiles Prof = collectProfiles(*P, ProfCfg, Run);

    BenchResult R;
    R.Name = Name;
    R.Stats = Prof.ClusterLayoutStats;
    R.BaselineFaults = textFaultsOf(*P, CodeStrategy::None, nullptr, Run);
    R.CuFaults = textFaultsOf(*P, CodeStrategy::CuOrder, &Prof.Cu, Run);
    R.ClusterFaults =
        textFaultsOf(*P, CodeStrategy::Cluster, &Prof.Cluster, Run);
    if (R.ClusterFaults <= R.CuFaults)
      ++ClusterNoWorse;
    std::printf("%-12s %10llu %10llu %10llu %10s\n", Name.c_str(),
                (unsigned long long)R.BaselineFaults,
                (unsigned long long)R.CuFaults,
                (unsigned long long)R.ClusterFaults,
                R.ClusterFaults <= R.CuFaults ? "yes" : "no");
    Results.push_back(R);
  }
  std::printf("cluster <= cu on %zu of %zu benchmarks\n", ClusterNoWorse,
              Results.size());

  bool Ok = benchjson::writeBenchJson(
      "BENCH_cluster.json", "abl_cluster", [&](obs::JsonWriter &W) {
        W.member("sweep_benchmark", std::string(SweepBench));
        W.key("budget_sweep");
        W.beginArray();
        for (const SweepPoint &S : Sweep) {
          W.beginObject();
          W.member("budget_bytes", uint64_t(S.Budget));
          W.member("merges", uint64_t(S.Stats.Merges));
          W.member("clusters", uint64_t(S.Stats.Clusters));
          W.member("budget_rejections", uint64_t(S.Stats.BudgetRejections));
          W.member("text_faults", S.TextFaults);
          W.endObject();
        }
        W.endArray();
        W.key("benchmarks");
        W.beginArray();
        for (const BenchResult &R : Results) {
          W.beginObject();
          W.member("name", R.Name);
          W.member("baseline_text_faults", R.BaselineFaults);
          W.member("cu_text_faults", R.CuFaults);
          W.member("cluster_text_faults", R.ClusterFaults);
          W.member("cluster_le_cu", R.ClusterFaults <= R.CuFaults);
          W.member("graph_nodes", uint64_t(R.Stats.Nodes));
          W.member("graph_edges", uint64_t(R.Stats.Edges));
          W.member("merges", uint64_t(R.Stats.Merges));
          W.member("clusters", uint64_t(R.Stats.Clusters));
          W.endObject();
        }
        W.endArray();
        W.member("cluster_le_cu_count", uint64_t(ClusterNoWorse));
        W.member("benchmark_count", uint64_t(Results.size()));
      });
  return Ok ? 0 : 1;
}
