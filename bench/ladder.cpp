//===- ladder.cpp - The scale ladder: layout strategies vs binary size -------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Sweeps the four rungs of the scale ladder (scaleRung: micronaut x1, x4,
// x10 and x25, 0.5 to 7.3 MiB of .text) over every code strategy
// {baseline, cu, method, cluster} x split {none, hotcold} x huge-page
// budget {0, 1, 2, 4} x heap ordering {none, heap path} x build seed
// {1, 2} x readahead window {1, 4}. Each image is built once and run at
// both windows. Every cell records .text faults, .svm_heap faults and
// modeled time to first response, exactly, in BENCH_ladder.json.
// Profiles come from one instrumented build (seed 1001) per rung.
//
// The verdict block applies the "prove or prune" rule: for each strategy
// it counts the cells where it strictly beats its simpler sibling on
// modeled time (all other dimensions equal), per cell and on the mean
// over the two build seeds, at each readahead window.
//
// The driver fails when a build fails, an offered profile is not applied,
// or a run does not respond. `--smoke` runs x1, seed 1, huge {0, 4}.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "src/core/Builder.h"
#include "src/workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>

using namespace nimg;

namespace {

struct CodeDef {
  const char *Key;
  CodeStrategy Code;
};
const CodeDef Codes[] = {{"baseline", CodeStrategy::None},
                         {"cu", CodeStrategy::CuOrder},
                         {"method", CodeStrategy::MethodOrder},
                         {"cluster", CodeStrategy::Cluster}};

const char *const Splits[] = {"none", "hotcold"};
const char *const Heaps[] = {"none", "path"};
const uint32_t Readaheads[] = {1, 4};

constexpr size_t NumCodes = std::size(Codes);
constexpr size_t NumSplits = std::size(Splits);
constexpr size_t NumHeaps = std::size(Heaps);
constexpr size_t NumReadaheads = std::size(Readaheads);

/// Index of one cell; each field indexes the matching dimension list.
struct Coord {
  size_t Code, Split, Huge, Heap, Seed, Ra;
};

struct Cell {
  uint64_t TextFaults = 0;
  uint64_t HeapFaults = 0;
  double TimeNs = 0;
};

struct Rung {
  int Factor = 0;
  std::string Name;
  uint64_t TextSize = 0; ///< Baseline image .text bytes.
  std::vector<Cell> Cells;
};

/// The dimensions this run sweeps (the smoke run trims huge and seeds).
struct Grid {
  std::vector<uint32_t> Huge;
  std::vector<uint64_t> Seeds;

  size_t size() const {
    return NumCodes * NumSplits * Huge.size() * NumHeaps * Seeds.size() *
           NumReadaheads;
  }
  size_t index(const Coord &C) const {
    return ((((C.Code * NumSplits + C.Split) * Huge.size() + C.Huge) *
                 NumHeaps +
             C.Heap) *
                Seeds.size() +
            C.Seed) *
               NumReadaheads +
           C.Ra;
  }
  template <typename Fn> void forEach(Fn F) const {
    for (size_t Co = 0; Co < NumCodes; ++Co)
      for (size_t Sp = 0; Sp < NumSplits; ++Sp)
        for (size_t Hu = 0; Hu < Huge.size(); ++Hu)
          for (size_t He = 0; He < NumHeaps; ++He)
            for (size_t Se = 0; Se < Seeds.size(); ++Se)
              for (size_t Ra = 0; Ra < NumReadaheads; ++Ra)
                F(Coord{Co, Sp, Hu, He, Se, Ra});
  }
};

BuildConfig configFor(const Grid &G, const Coord &C,
                      const CollectedProfiles &Prof) {
  BuildConfig Cfg;
  Cfg.Seed = G.Seeds[C.Seed];
  Cfg.CodeOrder = Codes[C.Code].Code;
  switch (Cfg.CodeOrder) {
  case CodeStrategy::CuOrder:
    Cfg.CodeProf = &Prof.Cu;
    break;
  case CodeStrategy::MethodOrder:
    Cfg.CodeProf = &Prof.Method;
    break;
  case CodeStrategy::Cluster:
    Cfg.CodeProf = &Prof.Cluster;
    break;
  default:
    break;
  }
  if (C.Split == 1) {
    Cfg.Split = SplitMode::HotCold;
    Cfg.BlockProf = &Prof.Blocks;
  }
  if (C.Heap == 1) {
    Cfg.UseHeapOrder = true;
    Cfg.HeapOrder = HeapStrategy::HeapPath;
    Cfg.HeapProf = &Prof.HeapPath;
  }
  Cfg.Image.HugePages = G.Huge[C.Huge];
  return Cfg;
}

/// Why a built image does not measure what its cell claims, or "".
std::string checkBuild(const NativeImage &Img, const BuildConfig &Cfg) {
  if (Img.Built.Failed)
    return "build failed: " + Img.Built.FailureMessage;
  if (Cfg.CodeProf && !Img.ProfileDiag.CodeProfileApplied)
    return "code profile not applied";
  if (Cfg.HeapProf && !Img.ProfileDiag.HeapProfileApplied)
    return "heap profile not applied";
  if (Cfg.BlockProf && !Img.ProfileDiag.BlockProfileApplied)
    return "block profile not applied";
  return "";
}

double timeOf(const RunStats &S) {
  return S.Responded ? S.TimeToFirstResponseNs : S.TimeNs;
}

/// One "prove or prune" comparison: cells whose dimension \c Dim holds
/// \c Value against the same cells with \c Sibling there.
struct Comparison {
  std::string Strategy;
  std::string SiblingName;
  size_t Coord::*Dim;
  size_t Value;
  size_t Sibling;
};

struct Tally {
  uint64_t Cells = 0, Wins = 0, Ties = 0, Losses = 0;
  void add(double Strategy, double Sibling) {
    ++Cells;
    if (Strategy < Sibling)
      ++Wins;
    else if (Strategy == Sibling)
      ++Ties;
    else
      ++Losses;
  }
};

struct Verdict {
  const Comparison *Cmp;
  uint32_t Readahead;
  Tally Time, Text, SeedMean;
  std::vector<uint64_t> WinsByRung;
};

std::vector<Comparison> comparisons(const Grid &G) {
  std::vector<Comparison> Out = {
      {"cu", "baseline", &Coord::Code, 1, 0},
      {"method", "baseline", &Coord::Code, 2, 0},
      {"cluster", "cu", &Coord::Code, 3, 1},
      {"hotcold", "none", &Coord::Split, 1, 0},
      {"heap_path", "heap_none", &Coord::Heap, 1, 0},
  };
  for (size_t H = 1; H < G.Huge.size(); ++H)
    Out.push_back({"huge_" + std::to_string(G.Huge[H]), "huge_0",
                   &Coord::Huge, H, 0});
  return Out;
}

void writeTally(obs::JsonWriter &W, const char *Key, const Tally &T) {
  W.key(Key);
  W.beginObject();
  W.member("cells", T.Cells);
  W.member("wins", T.Wins);
  W.member("ties", T.Ties);
  W.member("losses", T.Losses);
  W.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  auto Start = std::chrono::steady_clock::now();

  Grid G;
  G.Huge = Smoke ? std::vector<uint32_t>{0, 4}
                 : std::vector<uint32_t>{0, 1, 2, 4};
  G.Seeds = Smoke ? std::vector<uint64_t>{1} : std::vector<uint64_t>{1, 2};
  std::vector<int> Factors = Smoke ? std::vector<int>{1}
                                   : std::vector<int>{1, 4, 10, 25};

  RunConfig Run;
  Run.StopAtFirstResponse = true;

  std::vector<Rung> Rungs;
  bool Ok = true;

  for (int Factor : Factors) {
    BenchmarkSpec Spec = scaleRung(Factor);
    std::vector<std::string> Errors;
    std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
    if (!P) {
      for (const std::string &E : Errors)
        std::fprintf(stderr, "error: %s\n", E.c_str());
      return 1;
    }
    std::fprintf(stderr, "  %s...\n", Spec.Name.c_str());
    BuildConfig ProfCfg;
    ProfCfg.Seed = 1001;
    CollectedProfiles Prof = collectProfiles(*P, ProfCfg, Run);

    Rung R;
    R.Factor = Factor;
    R.Name = Spec.Name;
    R.Cells.resize(G.size());
    // One build per cell with Ra == 0, run at every window.
    G.forEach([&](const Coord &C) {
      if (C.Ra != 0)
        return;
      BuildConfig Cfg = configFor(G, C, Prof);
      NativeImage Img = buildNativeImage(*P, Cfg);
      std::string Err = checkBuild(Img, Cfg);
      if (!Err.empty()) {
        std::fprintf(stderr, "FAIL: %s %s/%s: %s\n", Spec.Name.c_str(),
                     Codes[C.Code].Key, Splits[C.Split], Err.c_str());
        Ok = false;
        return;
      }
      if (C.Code == 0 && C.Split == 0 && C.Huge == 0 && C.Heap == 0 &&
          C.Seed == 0)
        R.TextSize = Img.Layout.TextSize;
      for (size_t Ra = 0; Ra < NumReadaheads; ++Ra) {
        RunConfig RC = Run;
        RC.Paging.ReadaheadPages = Readaheads[Ra];
        RunStats Stats = runImage(Img, RC);
        if (!Stats.Responded) {
          std::fprintf(stderr, "FAIL: %s %s/%s: no response\n",
                       Spec.Name.c_str(), Codes[C.Code].Key,
                       Splits[C.Split]);
          Ok = false;
        }
        Coord At = C;
        At.Ra = Ra;
        R.Cells[G.index(At)] = {Stats.TextFaults, Stats.HeapFaults,
                                timeOf(Stats)};
      }
    });
    Rungs.push_back(std::move(R));
  }

  // Verdicts: per comparison and readahead window.
  std::vector<Comparison> Cmps = comparisons(G);
  std::vector<Verdict> Verdicts;
  for (const Comparison &Cmp : Cmps)
    for (size_t Ra = 0; Ra < NumReadaheads; ++Ra) {
      Verdict V;
      V.Cmp = &Cmp;
      V.Readahead = Readaheads[Ra];
      for (const Rung &R : Rungs) {
        uint64_t Before = V.Time.Wins;
        G.forEach([&](const Coord &C) {
          if (C.Ra != Ra || C.*Cmp.Dim != Cmp.Value)
            return;
          Coord Sib = C;
          Sib.*Cmp.Dim = Cmp.Sibling;
          const Cell &A = R.Cells[G.index(C)], &B = R.Cells[G.index(Sib)];
          V.Time.add(A.TimeNs, B.TimeNs);
          V.Text.add(double(A.TextFaults), double(B.TextFaults));
          if (C.Seed != 0)
            return;
          double MeanA = 0, MeanB = 0;
          for (size_t S = 0; S < G.Seeds.size(); ++S) {
            Coord X = C, Y = Sib;
            X.Seed = Y.Seed = S;
            MeanA += R.Cells[G.index(X)].TimeNs;
            MeanB += R.Cells[G.index(Y)].TimeNs;
          }
          V.SeedMean.add(MeanA / double(G.Seeds.size()),
                         MeanB / double(G.Seeds.size()));
        });
        V.WinsByRung.push_back(V.Time.Wins - Before);
      }
      Verdicts.push_back(std::move(V));
    }

  std::printf("Scale ladder — strict modeled-time wins over the simpler "
              "sibling (cells; seed-mean cells)\n");
  std::printf("%-10s %-10s %3s %14s %14s %14s %12s\n", "strategy", "sibling",
              "ra", "wins/cells", "losses", "mean wins", ".text wins");
  for (const Verdict &V : Verdicts)
    std::printf("%-10s %-10s %3u %7llu/%-6llu %14llu %7llu/%-6llu %12llu\n",
                V.Cmp->Strategy.c_str(), V.Cmp->SiblingName.c_str(),
                V.Readahead, (unsigned long long)V.Time.Wins,
                (unsigned long long)V.Time.Cells,
                (unsigned long long)V.Time.Losses,
                (unsigned long long)V.SeedMean.Wins,
                (unsigned long long)V.SeedMean.Cells,
                (unsigned long long)V.Text.Wins);
  double WallS = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  std::printf("wall: %.1f s\n", WallS);

  Ok = benchjson::writeBenchJson(
           "BENCH_ladder.json", "ladder", [&](obs::JsonWriter &W) {
             W.member("smoke", Smoke);
             W.member("profile_seed", uint64_t(1001));
             W.key("rungs");
             W.beginArray();
             for (const Rung &R : Rungs) {
               W.beginObject();
               W.member("name", R.Name);
               W.member("factor", int64_t(R.Factor));
               W.member("text_bytes", R.TextSize);
               W.key("cells");
               W.beginArray();
               G.forEach([&](const Coord &C) {
                 const Cell &X = R.Cells[G.index(C)];
                 W.beginObject();
                 W.member("code", Codes[C.Code].Key);
                 W.member("split", Splits[C.Split]);
                 W.member("huge", uint64_t(G.Huge[C.Huge]));
                 W.member("heap", Heaps[C.Heap]);
                 W.member("seed", G.Seeds[C.Seed]);
                 W.member("readahead", uint64_t(Readaheads[C.Ra]));
                 W.member("text_faults", X.TextFaults);
                 W.member("heap_faults", X.HeapFaults);
                 W.member("time_ns", X.TimeNs);
                 W.endObject();
               });
               W.endArray();
               W.endObject();
             }
             W.endArray();
             W.key("verdict");
             W.beginArray();
             for (const Verdict &V : Verdicts) {
               W.beginObject();
               W.member("strategy", V.Cmp->Strategy);
               W.member("sibling", V.Cmp->SiblingName);
               W.member("readahead", uint64_t(V.Readahead));
               writeTally(W, "time", V.Time);
               writeTally(W, "seed_mean_time", V.SeedMean);
               writeTally(W, "text_faults", V.Text);
               W.key("time_wins_by_rung");
               W.beginArray();
               for (uint64_t N : V.WinsByRung)
                 W.value(N);
               W.endArray();
               W.endObject();
             }
             W.endArray();
           }) &&
       Ok;
  return Ok ? 0 : 1;
}
