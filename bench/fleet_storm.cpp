//===- fleet_storm.cpp - Fleet cold-start storm: layout value at scale ------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Quantifies what layout optimization is worth at fleet scale: for each
// AWFY benchmark, builds a ladder of layout variants (cu / method /
// cluster / cu+split / cluster+split), records one cold reference run per
// variant, and replays it through the fleet serving
// simulator at 1 / 10 / 100 / 1000 concurrent instances under a storm
// arrival profile with a shared fork/COW page cache. Reports p50/p99
// simulated cold-start, fleet-wide majors vs unique pages, and the
// warm-hit ratio per (variant, fleet size). Results land in
// BENCH_fleet.json.
//
// Enforced invariants (violations fail the driver):
//   - at N=1 the fleet's major-fault count equals the single-run PagingSim
//     fault count exactly, for every (benchmark, variant);
//   - warm-hit ratio > 0 at every N >= 10;
//   - suite geomean p99 cold-start at N=100 strictly decreases from
//     --code cu to --code cluster --split hotcold.
//     (Per-benchmark, not every workload wins: hot/cold splitting costs
//     faults on a few AWFY programs — e.g. Towers — and PEA elision varies
//     with the build fingerprint, so the ladder is asserted suite-wide and
//     the per-benchmark deltas are reported in the JSON.)
//
// `--smoke` runs two benchmarks only (CI sanity of the harness + JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "src/core/Builder.h"
#include "src/fleet/FleetSim.h"
#include "src/workloads/Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace nimg;

namespace {

struct VariantDef {
  const char *Name;
  CodeStrategy Code;
  bool Split;
};

const VariantDef Variants[] = {
    {"cu", CodeStrategy::CuOrder, false},
    {"method", CodeStrategy::MethodOrder, false},
    {"cluster", CodeStrategy::Cluster, false},
    {"cu_split", CodeStrategy::CuOrder, true},
    {"cluster_split", CodeStrategy::Cluster, true},
};
constexpr size_t NumVariants = sizeof(Variants) / sizeof(Variants[0]);

const uint32_t FleetSizes[] = {1, 10, 100, 1000};
constexpr size_t NumSizes = sizeof(FleetSizes) / sizeof(FleetSizes[0]);

/// One reference run for one (benchmark, variant): build + cold recorded
/// run. simulateFleet() replays it per fleet size without re-interpreting.
struct Reference {
  RunStats Stats;
  uint64_t TextSize = 0;
  uint64_t HeapSize = 0;
  bool Ok = false;
};

Reference record(Program &P, const VariantDef &V,
                 const CollectedProfiles &Prof, const RunConfig &Run) {
  BuildConfig Cfg;
  Cfg.Seed = 1;
  Cfg.CodeOrder = V.Code;
  Cfg.CodeProf = V.Code == CodeStrategy::CuOrder
                     ? &Prof.Cu
                     : V.Code == CodeStrategy::MethodOrder ? &Prof.Method
                                                          : &Prof.Cluster;
  if (V.Split) {
    Cfg.Split = SplitMode::HotCold;
    Cfg.BlockProf = &Prof.Blocks;
  }
  NativeImage Img = buildNativeImage(P, Cfg);
  Reference R;
  if (Img.Built.Failed)
    return R;
  RunConfig RefCfg = Run;
  RefCfg.RecordTouches = true;
  RefCfg.ColdCache = true;
  R.Stats = runImage(Img, RefCfg);
  R.TextSize = Img.Layout.TextSize;
  R.HeapSize = Img.Layout.HeapSize;
  R.Ok = true;
  return R;
}

double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : Xs)
    LogSum += std::log(X);
  return std::exp(LogSum / double(Xs.size()));
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  RunConfig Run;
  // Same geometry as abl_split: demand-fault every page so the
  // layout effect isn't aliased away by readahead batching.
  Run.Paging.ReadaheadPages = 1;

  // A dense storm: four bursts across 20 ms, so instances of a burst
  // overlap the few-ms cold start and leapfrog through the fault trace.
  FleetConfig Storm;
  Storm.Arrivals = ArrivalKind::Storm;
  Storm.ArrivalWindowNs = 20e6;
  Storm.StormBursts = 4;

  struct Cell {
    FleetResult R;
  };
  struct Row {
    std::string Name;
    uint64_t RefFaults[NumVariants] = {};
    double RefTimeNs[NumVariants] = {};
    Cell Cells[NumVariants][NumSizes];
  };
  std::vector<Row> Rows;
  bool N1Ok = true, WarmOk = true, P99Ok = true;

  std::vector<std::string> Names = awfyBenchmarkNames();
  if (Smoke && Names.size() > 2)
    Names.resize(2);

  std::printf("Fleet cold-start storm — layout value at 1/10/100/1000 "
              "instances (storm arrivals, shared COW cache)\n");
  std::printf("%-12s %-22s %8s %11s %11s %8s\n", "benchmark", "variant",
              "majors", "p99@100/ms", "p99@1/ms", "warm%");

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

    Row R;
    R.Name = Name;
    for (size_t V = 0; V < NumVariants; ++V) {
      Reference Ref = record(*P, Variants[V], Prof, Run);
      if (!Ref.Ok) {
        std::fprintf(stderr, "FAIL: %s/%s build failed\n", Name.c_str(),
                     Variants[V].Name);
        N1Ok = false;
        continue;
      }
      R.RefFaults[V] = Ref.Stats.totalFaults();
      R.RefTimeNs[V] = Ref.Stats.TimeNs;
      for (size_t S = 0; S < NumSizes; ++S) {
        FleetConfig FC = Storm;
        FC.Instances = FleetSizes[S];
        FleetResult FR = simulateFleet(Ref.Stats, Ref.TextSize, Ref.HeapSize,
                                       Run.Paging, Run.Cost, FC);
        if (FleetSizes[S] == 1 && FR.TotalMajors != R.RefFaults[V]) {
          N1Ok = false;
          std::fprintf(stderr,
                       "FAIL: %s/%s fleet N=1 majors %llu != single-run "
                       "faults %llu\n",
                       Name.c_str(), Variants[V].Name,
                       (unsigned long long)FR.TotalMajors,
                       (unsigned long long)R.RefFaults[V]);
        }
        if (FleetSizes[S] >= 10 && !(FR.warmHitRatio() > 0.0)) {
          WarmOk = false;
          std::fprintf(stderr, "FAIL: %s/%s warm-hit ratio 0 at N=%u\n",
                       Name.c_str(), Variants[V].Name, FleetSizes[S]);
        }
        R.Cells[V][S].R = std::move(FR);
      }
      const FleetResult &At100 = R.Cells[V][2].R;
      std::printf("%-12s %-22s %8llu %11.2f %11.2f %7.1f%%\n", Name.c_str(),
                  Variants[V].Name, (unsigned long long)At100.TotalMajors,
                  At100.P99Ns / 1e6, R.Cells[V][0].R.P99Ns / 1e6,
                  At100.warmHitRatio() * 100.0);
    }
    Rows.push_back(std::move(R));
  }

  // Fleet-wide view: geomean p99 per variant at each fleet size.
  std::printf("\ngeomean p99 cold-start (ms) by fleet size:\n");
  std::printf("%-22s", "variant");
  for (size_t S = 0; S < NumSizes; ++S)
    std::printf(" %7u", FleetSizes[S]);
  std::printf("\n");
  double GeoP99[NumVariants][NumSizes] = {};
  for (size_t V = 0; V < NumVariants; ++V) {
    std::printf("%-22s", Variants[V].Name);
    for (size_t S = 0; S < NumSizes; ++S) {
      std::vector<double> Xs;
      for (const Row &R : Rows)
        Xs.push_back(R.Cells[V][S].R.P99Ns);
      GeoP99[V][S] = geomean(Xs);
      std::printf(" %7.2f", GeoP99[V][S] / 1e6);
    }
    std::printf("\n");
  }

  // The acceptance ladder: across the suite, the fully optimized layout
  // must strictly beat plain cu ordering at the p99 of a 100-instance
  // storm. Suite geomean, not per-benchmark — hot/cold splitting costs
  // faults on a few workloads and that is worth seeing, not asserting
  // away.
  double GeoCu = GeoP99[0][2];
  double GeoFull = GeoP99[NumVariants - 1][2];
  if (!Rows.empty() && !(GeoFull < GeoCu)) {
    P99Ok = false;
    std::fprintf(stderr,
                 "FAIL: suite geomean p99@100 cluster_split %.4f ms "
                 "not strictly below cu %.4f ms\n",
                 GeoFull / 1e6, GeoCu / 1e6);
  }

  benchjson::writeBenchJson(
      "BENCH_fleet.json", "fleet_storm", [&](obs::JsonWriter &W) {
        W.member("smoke", Smoke);
        W.member("arrivals", "storm");
        W.member("arrival_window_ns", Storm.ArrivalWindowNs);
        W.member("storm_bursts", uint64_t(Storm.StormBursts));
        W.key("benchmarks");
        W.beginArray();
        for (const Row &R : Rows) {
          W.beginObject();
          W.member("name", R.Name);
          for (size_t V = 0; V < NumVariants; ++V) {
            std::string Prefix = Variants[V].Name;
            W.member(Prefix + "_single_run_faults", R.RefFaults[V]);
            W.member(Prefix + "_single_run_time_ns", R.RefTimeNs[V]);
            for (size_t S = 0; S < NumSizes; ++S) {
              const FleetResult &FR = R.Cells[V][S].R;
              std::string Key =
                  Prefix + "_n" + std::to_string(FleetSizes[S]);
              W.member(Key + "_majors", FR.TotalMajors);
              W.member(Key + "_warm_hits", FR.TotalWarmHits);
              W.member(Key + "_unique_pages", FR.UniquePages);
              W.member(Key + "_warm_hit_permille",
                       uint64_t(FR.warmHitRatio() * 1000.0));
              W.member(Key + "_p50_ns", FR.P50Ns);
              W.member(Key + "_p99_ns", FR.P99Ns);
              W.member(Key + "_mean_ns", FR.MeanNs);
            }
          }
          W.endObject();
        }
        W.endArray();
        W.member("benchmark_count", uint64_t(Rows.size()));
        for (size_t V = 0; V < NumVariants; ++V)
          for (size_t S = 0; S < NumSizes; ++S)
            W.member(std::string("geomean_p99_") + Variants[V].Name + "_n" +
                         std::to_string(FleetSizes[S]) + "_ns",
                     GeoP99[V][S]);
        W.member("n1_exact", N1Ok);
        W.member("warm_hits_ok", WarmOk);
        W.member("p99_ladder_ok", P99Ok);
      });

  if (N1Ok && WarmOk && P99Ok)
    std::printf("\nfleet invariants hold: N=1 exact, warm hits > 0, suite "
                "geomean p99 ladder strict over %zu benchmark(s)\n",
                Rows.size());
  return (N1Ok && WarmOk && P99Ok) ? 0 : 1;
}
