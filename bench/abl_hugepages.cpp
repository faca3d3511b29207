//===- abl_hugepages.cpp - Ablation: the --huge-pages budget ----------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Sweeps the multi-size page budget (--huge-pages 0/1/2/4) across the 14
// AWFY benchmarks for three layouts (cu, cluster, cluster+split)
// and records modeled first-run startup per point in BENCH_hugepages.json.
// The driver also enforces the lane's invariants: a zero budget is
// byte-identical to a build without the flag (image bytes, majors AND
// TimeNs), total .text majors never increase under any budget (the huge
// region only collapses faults), and for the cluster layouts the best
// budget strictly beats budget 0 on most of the suite (a 2 MiB fault costs
// 284.4 us vs 80 us, so the region pays off once it absorbs >= 4 small
// cluster faults).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "src/core/Evaluation.h"
#include "src/image/ImageFile.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <cstring>

using namespace nimg;

namespace {

struct StratSpec {
  const char *Key;
  CodeStrategy Code;
  bool Split;
  bool IsCluster; ///< Participates in the strict-win gate.
};

const StratSpec kStrategies[] = {
    {"cu", CodeStrategy::CuOrder, false, false},
    {"cluster", CodeStrategy::Cluster, false, true},
    {"cluster_split", CodeStrategy::Cluster, true, true},
};

struct BudgetPoint {
  uint32_t Requested = 0;
  uint32_t Effective = 0;
  uint64_t RegionSize = 0;
  uint64_t TextFaults = 0;
  uint64_t TextHugeFaults = 0;
  double TimeNs = 0;
};

struct StratResult {
  std::string Key;
  BudgetPoint Zero;
  std::vector<BudgetPoint> Budgets; // 1, 2, 4
  bool ZeroIdentity = false;  ///< Rebuild at budget 0 == baseline, bytewise.
  bool MajorsNeverIncrease = true;
  uint32_t BestBudget = 0;
  double BestTimeNs = 0;
  bool StrictTimeWin = false;
};

BuildConfig makeCfg(const StratSpec &S, const CollectedProfiles &Prof,
                    uint32_t HugePages) {
  BuildConfig Base;
  Base.Seed = 1;
  if (S.Split)
    Base.Split = SplitMode::HotCold;
  Base.Image.HugePages = HugePages;
  return variantConfig({S.Key, S.Code, false, HeapStrategy::HeapPath}, Base,
                       Prof);
}

} // namespace

int main(int Argc, char **Argv) {
  // --smoke: two benchmarks, budgets {0, 1} — harness + JSON + invariant
  // sanity for the bench-smoke ctest label.
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  RunConfig Run;

  std::vector<uint32_t> Budgets = {1u, 2u, 4u};
  if (Smoke)
    Budgets = {1u};
  std::vector<std::string> Names = awfyBenchmarkNames();
  if (Smoke && Names.size() > 2)
    Names.resize(2);

  std::printf("Ablation — huge-page budget sweep (modeled first-run "
              "startup, ns)\n");
  std::printf("%-12s %-22s %12s %12s %8s %10s\n", "benchmark", "strategy",
              "time@0", "best time", "budget", "strict win");

  struct BenchRow {
    std::string Name;
    std::vector<StratResult> Strats;
  };
  std::vector<BenchRow> Rows;
  size_t ClusterStrictWins = 0, ClusterEntries = 0;
  bool AllZeroIdentity = true, AllMajorsOk = true;

  for (const std::string &Name : Names) {
    std::vector<std::string> Errors;
    std::unique_ptr<Program> P = compileBenchmark(awfyBenchmark(Name), Errors);
    if (!P) {
      for (const std::string &E : Errors)
        std::fprintf(stderr, "error: %s\n", E.c_str());
      continue;
    }
    BuildConfig ProfCfg;
    ProfCfg.Seed = 1001;
    CollectedProfiles Prof = collectProfiles(*P, ProfCfg, Run);

    BenchRow Row;
    Row.Name = Name;
    for (const StratSpec &S : kStrategies) {
      StratResult R;
      R.Key = S.Key;

      NativeImage Base = buildNativeImage(*P, makeCfg(S, Prof, 0));
      if (Base.Built.Failed)
        continue;
      RunStats BaseStats = runImage(Base, Run);
      R.Zero = {0, 0, 0, BaseStats.TextFaults, BaseStats.TextHugeFaults,
                BaseStats.TimeNs};

      // Budget-0 identity: an explicit zero budget must be byte-identical
      // to the baseline — same image bytes, same majors, same TimeNs.
      NativeImage Zero = buildNativeImage(*P, makeCfg(S, Prof, 0));
      RunStats ZeroStats = runImage(Zero, Run);
      R.ZeroIdentity = serializeImage(*P, Zero) == serializeImage(*P, Base) &&
                       ZeroStats.TextFaults == BaseStats.TextFaults &&
                       ZeroStats.totalFaults() == BaseStats.totalFaults() &&
                       ZeroStats.TimeNs == BaseStats.TimeNs &&
                       ZeroStats.TextHugeFaults == 0;
      AllZeroIdentity = AllZeroIdentity && R.ZeroIdentity;

      R.BestTimeNs = BaseStats.TimeNs;
      for (uint32_t B : Budgets) {
        NativeImage Img = buildNativeImage(*P, makeCfg(S, Prof, B));
        RunStats Stats = runImage(Img, Run);
        BudgetPoint Pt = {B,
                          Img.Layout.HugePages,
                          Img.Layout.HugeRegionSize,
                          Stats.TextFaults,
                          Stats.TextHugeFaults,
                          Stats.TimeNs};
        if (Stats.TextFaults > BaseStats.TextFaults)
          R.MajorsNeverIncrease = false;
        if (Stats.TimeNs < R.BestTimeNs) {
          R.BestTimeNs = Stats.TimeNs;
          R.BestBudget = B;
        }
        R.Budgets.push_back(Pt);
      }
      AllMajorsOk = AllMajorsOk && R.MajorsNeverIncrease;
      R.StrictTimeWin = R.BestTimeNs < R.Zero.TimeNs;
      if (S.IsCluster) {
        ++ClusterEntries;
        if (R.StrictTimeWin)
          ++ClusterStrictWins;
      }
      std::printf("%-12s %-22s %12.0f %12.0f %8u %10s\n", Name.c_str(), S.Key,
                  R.Zero.TimeNs, R.BestTimeNs, R.BestBudget,
                  R.StrictTimeWin ? "yes" : "no");
      Row.Strats.push_back(std::move(R));
    }
    Rows.push_back(std::move(Row));
  }

  std::printf("\nzero-budget identity: %s; .text majors never increase: %s\n",
              AllZeroIdentity ? "all" : "VIOLATED",
              AllMajorsOk ? "all" : "VIOLATED");
  std::printf("cluster-layout strict time wins at best budget: %zu of %zu\n",
              ClusterStrictWins, ClusterEntries);

  bool Ok = benchjson::writeBenchJson(
      "BENCH_hugepages.json", "abl_hugepages", [&](obs::JsonWriter &W) {
        W.member("smoke", Smoke);
        W.key("benchmarks");
        W.beginArray();
        for (const BenchRow &Row : Rows) {
          W.beginObject();
          W.member("name", Row.Name);
          W.key("strategies");
          W.beginArray();
          for (const StratResult &R : Row.Strats) {
            W.beginObject();
            W.member("strategy", R.Key);
            W.member("time_ns_at_0", R.Zero.TimeNs);
            W.member("text_faults_at_0", R.Zero.TextFaults);
            W.member("zero_budget_identity", R.ZeroIdentity);
            W.member("majors_never_increase", R.MajorsNeverIncrease);
            W.member("best_budget", uint64_t(R.BestBudget));
            W.member("best_time_ns", R.BestTimeNs);
            W.member("strict_time_win", R.StrictTimeWin);
            W.key("budgets");
            W.beginArray();
            for (const BudgetPoint &Pt : R.Budgets) {
              W.beginObject();
              W.member("requested", uint64_t(Pt.Requested));
              W.member("effective_huge_pages", uint64_t(Pt.Effective));
              W.member("huge_region_size", Pt.RegionSize);
              W.member("text_faults", Pt.TextFaults);
              W.member("text_huge_faults", Pt.TextHugeFaults);
              W.member("time_ns", Pt.TimeNs);
              W.endObject();
            }
            W.endArray();
            W.endObject();
          }
          W.endArray();
          W.endObject();
        }
        W.endArray();
        W.member("cluster_strict_wins", uint64_t(ClusterStrictWins));
        W.member("cluster_entries", uint64_t(ClusterEntries));
        W.member("zero_identity_all", AllZeroIdentity);
        W.member("majors_never_increase_all", AllMajorsOk);
      });

  // The invariants are hard gates; the strict-win threshold (>= 12 of 14
  // per cluster layout, i.e. 6/7 of the cluster entries) only applies to
  // the full sweep — a 2-benchmark smoke is not a statistical sample.
  if (!Ok || !AllZeroIdentity || !AllMajorsOk)
    return 1;
  if (!Smoke && ClusterEntries > 0 &&
      ClusterStrictWins * 7 < ClusterEntries * 6)
    return 1;
  return 0;
}
