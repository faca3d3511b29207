//===- nimage_cli.cpp - Command-line driver for the pipeline ----------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// A small CLI over the public API:
//
//   nimage_cli build  <bench|file.mj> [--out image.nimg] [--seed N]
//                     [--code cu|method|cluster] [--heap inc|struct|path]
//                     [--split none|hotcold]
//   nimage_cli run    <bench|file.mj> [--image image.nimg] [--warm]
//   nimage_cli profile <bench|file.mj> [--dir profiles/] [--cluster-budget B]
//
// <bench> is an AWFY benchmark name (e.g. Richards), a microservice name
// (micronaut/quarkus/spring), or a path to a MiniJava source file (which
// is linked against the som library and the runtime prelude).
// `build --code/--heap` reads the CSV profiles written by `profile`.
// A flag the command does not take is a usage error (exit 2).
//
// Observability flags (any command):
//   --metrics          print the metrics registry after the command
//   --trace-out FILE   write a Chrome trace-event JSON of the pipeline spans
//   --report FILE      write the unified startup report (JSON; CSV if FILE
//                      ends in .csv)
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/fleet/FleetSim.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"
#include "src/obs/StartupReport.h"
#include "src/support/AtomicFile.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace nimg;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// All CLI artifacts go through temp-file + rename: a crash mid-write
/// leaves the previous file intact instead of a truncated one for a later
/// build to quarantine.
bool writeFile(const std::string &Path, const std::string &Data) {
  return atomicWriteFile(Path, Data);
}

std::unique_ptr<Program> loadTarget(const std::string &Target) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P;
  bool IsAwfy = false;
  for (const std::string &N : awfyBenchmarkNames())
    if (N == Target)
      IsAwfy = true;
  bool IsMicro = false;
  for (const std::string &N : microserviceNames())
    if (N == Target)
      IsMicro = true;

  if (IsAwfy) {
    P = compileBenchmark(awfyBenchmark(Target), Errors);
  } else if (IsMicro) {
    P = compileBenchmark(microserviceBenchmark(Target), Errors);
  } else {
    std::string Source;
    if (!readFile(Target, Source)) {
      std::fprintf(stderr, "error: cannot read '%s' (and it is not a known "
                           "benchmark name)\n",
                   Target.c_str());
      return nullptr;
    }
    P = std::make_unique<Program>();
    if (!compileSources({somLibrarySource(), runtimePreludeSource(), Source},
                        *P, Errors))
      P.reset();
  }
  if (!P) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return nullptr;
  }
  return P;
}

const char *flagValue(int Argc, char **Argv, const char *Flag) {
  for (int I = 0; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return Argv[I + 1];
  return nullptr;
}

bool hasFlag(int Argc, char **Argv, const char *Flag) {
  for (int I = 0; I < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return true;
  return false;
}

/// One flag a command takes.
struct FlagSpec {
  const char *Name;
  bool TakesValue;
};

/// The flags \p Cmd takes besides the ones every command takes, or null
/// for an unknown command.
const std::vector<FlagSpec> *commandFlags(const std::string &Cmd) {
  static const std::vector<FlagSpec> Profile = {
      {"--dir", true},           {"--generation", true},
      {"--cluster-budget", true}, {"--huge-pages", true},
      {"--profile-mode", true},  {"--sample-period", true}};
  static const std::vector<FlagSpec> Build = {
      {"--out", true},         {"--seed", true},  {"--profiles", true},
      {"--profile-dir", true}, {"--code", true},  {"--heap", true},
      {"--split", true},       {"--huge-pages", true}};
  static const std::vector<FlagSpec> Run = {
      {"--image", true},             {"--warm", false},
      {"--fleet", true},             {"--arrivals", true},
      {"--arrival-window-ns", true}, {"--fleet-seed", true},
      {"--storm-bursts", true},      {"--cache-pages", true}};
  if (Cmd == "profile")
    return &Profile;
  if (Cmd == "build")
    return &Build;
  if (Cmd == "run")
    return &Run;
  return nullptr;
}

/// Checks every argument after the target against the flags \p Cmd takes.
/// An unknown flag (say `--huge-page 4`, a typo for `--huge-pages`) would
/// otherwise be ignored and silently change what gets built. Prints an
/// error naming the offending argument and returns false.
bool checkFlags(const std::string &Cmd, const std::vector<FlagSpec> &Flags,
                int Argc, char **Argv) {
  static const std::vector<FlagSpec> Common = {{"--metrics", false},
                                               {"--trace-out", true},
                                               {"--report", true}};
  for (int I = 3; I < Argc; ++I) {
    const FlagSpec *Spec = nullptr;
    for (const std::vector<FlagSpec> *List : {&Common, &Flags})
      for (const FlagSpec &F : *List)
        if (std::strcmp(Argv[I], F.Name) == 0)
          Spec = &F;
    if (!Spec) {
      std::fprintf(stderr, "error: '%s' does not take '%s'\n", Cmd.c_str(),
                   Argv[I]);
      return false;
    }
    if (Spec->TakesValue && ++I == Argc) {
      std::fprintf(stderr, "error: %s expects a value\n", Spec->Name);
      return false;
    }
  }
  return true;
}

/// Parses --huge-pages into \p Cfg (build and profile both consume it: the
/// layout maps the region, the cluster solver packs against the budget).
/// Returns false after printing an error for a malformed value.
bool parseHugePages(int Argc, char **Argv, BuildConfig &Cfg) {
  const char *Huge = flagValue(Argc, Argv, "--huge-pages");
  if (!Huge)
    return true;
  long long N = std::atoll(Huge);
  if (N < 0 || N > (1ll << 20)) {
    std::fprintf(stderr, "error: --huge-pages expects a 2 MiB page count "
                         ">= 0 (0 = no huge pages), got '%s'\n",
                 Huge);
    return false;
  }
  Cfg.Image.HugePages = uint32_t(N);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  nimage_cli build   <target> [--out F] [--seed N] "
               "[--profiles DIR|a.csv,b.csv,...] [--profile-dir DIR] "
               "[--code cu|method|cluster] "
               "[--heap inc|struct|path] [--split none|hotcold] "
               "[--huge-pages N]\n"
               "  nimage_cli run     <target> [--image F] [--warm]\n"
               "                     [--fleet N] "
               "[--arrivals uniform|poisson|storm]\n"
               "                     [--arrival-window-ns W] [--fleet-seed S] "
               "[--storm-bursts B]\n"
               "                     [--cache-pages C]\n"
               "  nimage_cli profile <target> [--dir DIR] "
               "[--generation N] [--cluster-budget BYTES] [--huge-pages N]\n"
               "                     [--profile-mode instrumented|sampled] "
               "[--sample-period N]\n"
               "fleet simulation (run):\n"
               "  --fleet N          simulate N concurrent instances sharing "
               "a fork/COW page\n"
               "                     cache (cold-start storm); --arrivals "
               "picks the arrival\n"
               "                     distribution over --arrival-window-ns "
               "(default storm),\n"
               "                     --cache-pages caps the shared cache "
               "(FIFO eviction, 0 =\n"
               "                     unlimited), --fleet-seed drives the "
               "traffic generator\n"
               "profiling:\n"
               "  --profile-mode sampled records periodic samples of the "
               "executing method/CU\n"
               "  on an uninstrumented build (cu+method profiles only; heap "
               "stays\n"
               "  instrumented); --sample-period N sets the model-clock "
               "sampling period\n"
               "fleet aggregation:\n"
               "  --profiles with a comma-separated list (or a single .csv "
               "file) merges the\n"
               "  member profiles (quarantine + fail-open degradation); "
               "--profile-dir DIR\n"
               "  merges every cu*.csv in DIR. A bare directory keeps the "
               "classic meaning:\n"
               "  read {cu,method,cluster,...}.csv from it.\n"
               "huge pages (build, profile):\n"
               "  --huge-pages N     map up to N 2 MiB huge pages at the "
               "front of .text (pure\n"
               "                     page-size overlay: 0 is byte-identical "
               "to omitting the flag).\n"
               "                     The count clamps to the hot prefix; an "
               "unfillable remainder\n"
               "                     records huge_budget_unfillable. In "
               "'profile' the cluster\n"
               "                     solver packs the hottest clusters into "
               "the huge budget.\n"
               "observability (any command):\n"
               "  --metrics          print the metrics registry on exit\n"
               "  --trace-out FILE   write Chrome trace-event JSON spans\n"
               "  --report FILE      write the startup report (JSON, or CSV "
               "for .csv paths)\n");
  return 2;
}

/// Writes \p Report to the --report path if given. Failing to write the
/// report fails the command: silently losing the artifact the user asked
/// for is worse than a nonzero exit.
bool emitReport(obs::StartupReport &Report, int Argc, char **Argv) {
  const char *Path = flagValue(Argc, Argv, "--report");
  if (!Path)
    return true;
  Report.includeMetrics();
  if (!Report.writeFile(Path)) {
    std::fprintf(stderr, "error: cannot write report %s\n", Path);
    return false;
  }
  std::printf("wrote startup report %s\n", Path);
  return true;
}

int cmdProfile(const std::string &Target, int Argc, char **Argv) {
  std::unique_ptr<Program> P = loadTarget(Target);
  if (!P)
    return 1;
  std::string Dir = flagValue(Argc, Argv, "--dir") ? flagValue(Argc, Argv, "--dir") : ".";
  RunConfig Run;
  BuildConfig Cfg;
  Cfg.Seed = 1001;
  if (const char *Gen = flagValue(Argc, Argv, "--generation")) {
    long long G = std::atoll(Gen);
    if (G < 0) {
      std::fprintf(stderr, "error: --generation expects a stamp >= 0 "
                           "(0 = unstamped), got '%s'\n",
                   Gen);
      return 2;
    }
    Cfg.ProfileGeneration = uint64_t(G);
  }
  if (const char *Budget = flagValue(Argc, Argv, "--cluster-budget")) {
    long long B = std::atoll(Budget);
    if (B < 0) {
      std::fprintf(stderr, "error: --cluster-budget expects a byte count "
                           ">= 0 (0 = unlimited), got '%s'\n",
                   Budget);
      return 2;
    }
    Cfg.ClusterPageBudget = uint32_t(B);
  }
  if (!parseHugePages(Argc, Argv, Cfg))
    return 2;
  if (const char *PMode = flagValue(Argc, Argv, "--profile-mode")) {
    if (std::strcmp(PMode, "sampled") == 0) {
      Cfg.ProfileCapture = CaptureKind::Sampled;
    } else if (std::strcmp(PMode, "instrumented") != 0) {
      std::fprintf(stderr, "error: --profile-mode expects "
                           "instrumented|sampled, got '%s'\n",
                   PMode);
      return 2;
    }
  }
  if (const char *Period = flagValue(Argc, Argv, "--sample-period")) {
    long long N = std::atoll(Period);
    if (N <= 0 || uint64_t(N) > TraceOptions::MaxSamplePeriod) {
      std::fprintf(stderr,
                   "error: --sample-period expects 1..%llu, got '%s'\n",
                   (unsigned long long)TraceOptions::MaxSamplePeriod, Period);
      return 2;
    }
    Cfg.SamplePeriod = uint64_t(N);
  }
  CollectedProfiles Prof = collectProfiles(*P, Cfg, Run);
  for (const ProfileIssue &I : Prof.ClusterIssues)
    std::fprintf(stderr, "note: cluster profile: %s (%s)\n", I.Detail.c_str(),
                 profileErrorSlug(I.Kind));

  obs::StartupReport Report;
  Report.Target = Target;
  Report.Command = "profile";
  Report.addSalvage("cu", Prof.CuSalvage);
  Report.addSalvage("method", Prof.MethodSalvage);
  Report.addSalvage("heap", Prof.HeapSalvage);
  if (Cfg.ProfileCapture == CaptureKind::Sampled) {
    Report.Variant = "profile-mode=sampled period=" +
                     std::to_string(Cfg.SamplePeriod);
    // The sampled run's stats carry the "capture" section (samples taken,
    // events skipped, modeled overhead, coverage estimate).
    Report.setRun(Prof.CuRun);
  }
  if (!emitReport(Report, Argc, Argv))
    return 1;

  bool Ok = writeFile(Dir + "/cu.csv", Prof.Cu.toCsv()) &&
            writeFile(Dir + "/method.csv", Prof.Method.toCsv()) &&
            writeFile(Dir + "/cluster.csv", Prof.Cluster.toCsv()) &&
            writeFile(Dir + "/blocks.csv", Prof.Blocks.toCsv()) &&
            writeFile(Dir + "/heap_inc.csv", Prof.IncrementalId.toCsv()) &&
            writeFile(Dir + "/heap_struct.csv", Prof.StructuralHash.toCsv()) &&
            writeFile(Dir + "/heap_path.csv", Prof.HeapPath.toCsv());
  if (!Ok) {
    std::fprintf(stderr, "error: cannot write profiles to %s\n", Dir.c_str());
    return 1;
  }
  std::printf("wrote ordering profiles to %s/{cu,method,cluster,blocks,"
              "heap_inc,heap_struct,heap_path}.csv\n",
              Dir.c_str());
  std::printf("  cu entries: %zu, methods: %zu, heap objects: %zu\n",
              Prof.Cu.Sigs.size(), Prof.Method.Sigs.size(),
              Prof.HeapPath.Ids.size());
  if (Cfg.ProfileCapture == CaptureKind::Sampled)
    std::printf("  sampled capture: %llu sample(s) at period %llu, %llu "
                "event(s) skipped, coverage %u permille\n",
                (unsigned long long)Prof.CuRun.SamplesTaken,
                (unsigned long long)Prof.CuRun.SamplePeriod,
                (unsigned long long)Prof.CuRun.SampleEventsSkipped,
                Prof.CuRun.SampleCoveragePermille);
  std::printf("  cluster: %zu clusters over %zu CUs (%zu merges, %zu "
              "budget rejections)\n",
              Prof.ClusterLayoutStats.Clusters, Prof.ClusterLayoutStats.Nodes,
              Prof.ClusterLayoutStats.Merges,
              Prof.ClusterLayoutStats.BudgetRejections);
  return 0;
}

int cmdBuild(const std::string &Target, int Argc, char **Argv) {
  std::unique_ptr<Program> P = loadTarget(Target);
  if (!P)
    return 1;
  BuildConfig Cfg;
  if (const char *Seed = flagValue(Argc, Argv, "--seed"))
    Cfg.Seed = uint64_t(std::atoll(Seed));
  if (!parseHugePages(Argc, Argv, Cfg))
    return 2;

  // --profiles keeps its classic meaning for a bare directory (read
  // {cu,method,...}.csv from it). A comma-separated list or a single
  // regular file switches to fleet-aggregation mode, as does
  // --profile-dir (merge every cu*.csv inside).
  std::string Dir = ".";
  std::vector<MemberProfile> Members;
  bool MemberMode = false;
  if (const char *MemberDir = flagValue(Argc, Argv, "--profile-dir")) {
    std::vector<std::string> Paths = listMemberProfileDir(MemberDir);
    if (Paths.empty()) {
      std::fprintf(stderr, "error: no cu*.csv member profiles in %s\n",
                   MemberDir);
      return 1;
    }
    Members = loadMemberProfiles(Paths);
    MemberMode = true;
  } else if (const char *Profiles = flagValue(Argc, Argv, "--profiles")) {
    std::string Value = Profiles;
    std::error_code Ec;
    if (Value.find(',') != std::string::npos ||
        std::filesystem::is_regular_file(Value, Ec)) {
      std::vector<std::string> Paths;
      for (size_t At = 0; At <= Value.size();) {
        size_t Comma = Value.find(',', At);
        if (Comma == std::string::npos)
          Comma = Value.size();
        if (Comma > At)
          Paths.push_back(Value.substr(At, Comma - At));
        At = Comma + 1;
      }
      Members = loadMemberProfiles(Paths);
      MemberMode = true;
    } else {
      Dir = Value;
    }
  }

  CodeProfile CodeProf;
  HeapProfile HeapProf;
  const char *Code = flagValue(Argc, Argv, "--code");
  if (MemberMode) {
    // Member sets are cu-order captures; merge feeds the cu (or cluster)
    // code strategy. No --code defaults to cu.
    if (Code && std::strcmp(Code, "method") == 0)
      std::fprintf(stderr,
                   "warning: member profiles are cu-order captures; "
                   "--code method will degrade to the default layout\n");
    Cfg.CodeOrder = !Code || std::strcmp(Code, "cu") == 0
                        ? CodeStrategy::CuOrder
                        : std::strcmp(Code, "cluster") == 0
                              ? CodeStrategy::Cluster
                              : CodeStrategy::MethodOrder;
    Cfg.CodeMembers = &Members;
  } else if (Code) {
    std::string Csv;
    std::string File = Dir + (std::strcmp(Code, "method") == 0
                                  ? "/method.csv"
                                  : std::strcmp(Code, "cluster") == 0
                                        ? "/cluster.csv"
                                        : "/cu.csv");
    if (!readFile(File, Csv)) {
      std::fprintf(stderr, "error: missing profile %s (run 'profile' "
                           "first)\n",
                   File.c_str());
      return 1;
    }
    ProfileReadReport Report;
    CodeProf = CodeProfile::fromCsv(Csv, &Report);
    if (!Report.usable())
      std::fprintf(stderr,
                   "warning: %s is unusable (%s); building with the "
                   "default code layout\n",
                   File.c_str(), profileErrorName(Report.Fatal));
    else if (Report.RowsSkipped > 0)
      std::fprintf(stderr, "warning: %s: skipped %zu malformed row(s)\n",
                   File.c_str(), Report.RowsSkipped);
    Cfg.CodeOrder = std::strcmp(Code, "method") == 0
                        ? CodeStrategy::MethodOrder
                        : std::strcmp(Code, "cluster") == 0
                              ? CodeStrategy::Cluster
                              : CodeStrategy::CuOrder;
    Cfg.CodeProf = &CodeProf;
  }
  if (const char *HeapFlag = flagValue(Argc, Argv, "--heap")) {
    std::string File = Dir;
    if (std::strcmp(HeapFlag, "inc") == 0) {
      Cfg.HeapOrder = HeapStrategy::IncrementalId;
      File += "/heap_inc.csv";
    } else if (std::strcmp(HeapFlag, "struct") == 0) {
      Cfg.HeapOrder = HeapStrategy::StructuralHash;
      File += "/heap_struct.csv";
    } else {
      Cfg.HeapOrder = HeapStrategy::HeapPath;
      File += "/heap_path.csv";
    }
    std::string Csv;
    if (!readFile(File, Csv)) {
      std::fprintf(stderr, "error: missing profile %s (run 'profile' "
                           "first)\n",
                   File.c_str());
      return 1;
    }
    ProfileReadReport Report;
    HeapProf = HeapProfile::fromCsv(Csv, &Report);
    if (!Report.usable())
      std::fprintf(stderr,
                   "warning: %s is unusable (%s); building with the "
                   "default heap layout\n",
                   File.c_str(), profileErrorName(Report.Fatal));
    else if (Report.RowsSkipped > 0)
      std::fprintf(stderr, "warning: %s: skipped %zu malformed row(s)\n",
                   File.c_str(), Report.RowsSkipped);
    Cfg.UseHeapOrder = true;
    Cfg.HeapProf = &HeapProf;
  }
  BlockProfile BlockProf;
  if (const char *Split = flagValue(Argc, Argv, "--split")) {
    if (std::strcmp(Split, "hotcold") == 0) {
      Cfg.Split = SplitMode::HotCold;
      std::string File = Dir + "/blocks.csv";
      std::string Csv;
      if (readFile(File, Csv)) {
        ProfileReadReport Report;
        BlockProf = BlockProfile::fromCsv(Csv, &Report);
        Cfg.BlockProf = &BlockProf;
        if (Report.RowsSkipped > 0)
          std::fprintf(stderr, "warning: %s: skipped %zu malformed row(s)\n",
                       File.c_str(), Report.RowsSkipped);
      } else {
        // A missing block profile is not fatal: the split pass degrades
        // every CU to unsplit and records insufficient_block_profile.
        std::fprintf(stderr,
                     "warning: missing profile %s; building unsplit "
                     "(run 'profile' first)\n",
                     File.c_str());
      }
    } else if (std::strcmp(Split, "none") != 0) {
      std::fprintf(stderr, "error: --split expects none|hotcold, got '%s'\n",
                   Split);
      return 2;
    }
  }

  NativeImage Img = buildNativeImage(*P, Cfg);

  obs::StartupReport Report;
  Report.Target = Target;
  Report.Command = "build";
  if (const char *CodeFlag = flagValue(Argc, Argv, "--code"))
    Report.Variant += std::string("code=") + CodeFlag;
  else if (MemberMode)
    Report.Variant += "code=cu";
  if (MemberMode)
    Report.Variant += (Report.Variant.empty() ? "" : " ") + std::string("members=") +
                      std::to_string(Members.size());
  if (const char *HeapFlag = flagValue(Argc, Argv, "--heap"))
    Report.Variant +=
        (Report.Variant.empty() ? "" : " ") + std::string("heap=") + HeapFlag;
  if (Cfg.Split == SplitMode::HotCold)
    Report.Variant += (Report.Variant.empty() ? "" : " ") +
                      std::string("split=hotcold");
  if (Cfg.Image.HugePages > 0)
    Report.Variant += (Report.Variant.empty() ? "" : " ") +
                      std::string("huge-pages=") +
                      std::to_string(Cfg.Image.HugePages);
  Report.setImage(Img);

  if (Img.Built.Failed) {
    // Still emit the report: a degraded/failed pipeline is exactly when
    // the diagnostics artifact matters most.
    emitReport(Report, Argc, Argv);
    std::fprintf(stderr, "build failed: %s\n",
                 Img.Built.FailureMessage.c_str());
    return 1;
  }
  if (!emitReport(Report, Argc, Argv))
    return 1;
  std::printf("built image: %zu CUs, %zu snapshot objects, %llu KiB "
              "(.text %llu KiB + .svm_heap %llu KiB)\n",
              Img.code().CUs.size(), Img.Snapshot.numStored(),
              (unsigned long long)(Img.imageBytes() / 1024),
              (unsigned long long)(Img.Layout.TextSize / 1024),
              (unsigned long long)(Img.Layout.HeapSize / 1024));
  if (Img.Layout.HugePagesRequested > 0)
    std::printf("  huge pages: %u of %u requested (%llu KiB at 2 MiB "
                "granularity)\n",
                Img.Layout.HugePages, Img.Layout.HugePagesRequested,
                (unsigned long long)(Img.Layout.HugeRegionSize / 1024));
  if (Img.Split.active())
    std::printf("  split: %u CU(s) split, %u degraded, cold tail %llu "
                "bytes (+%llu stub bytes)\n",
                Img.Split.SplitCus, Img.Split.DegradedCus,
                (unsigned long long)Img.Layout.ColdTailSize,
                (unsigned long long)Img.Split.StubBytes);
  if (Img.ProfileDiag.Merge.attempted()) {
    const MergeManifest &M = Img.ProfileDiag.Merge;
    std::printf("  merge: %s — %zu member(s): %zu accepted, %zu "
                "salvaged, %zu quarantined\n",
                mergeOutcomeName(M.Outcome), M.Members.size(),
                M.countWithStatus(MergeMemberStatus::Accepted),
                M.countWithStatus(MergeMemberStatus::Salvaged),
                M.countWithStatus(MergeMemberStatus::Quarantined));
    for (const MergeMemberReport &R : M.Members)
      if (R.Status == MergeMemberStatus::Quarantined)
        std::fprintf(stderr, "warning: member '%s' quarantined: %s%s%s\n",
                     R.Name.c_str(), profileErrorName(R.Reason),
                     R.Detail.empty() ? "" : " — ",
                     R.Detail.c_str());
  }
  if (Img.ProfileDiag.degraded()) {
    std::fprintf(stderr,
                 "warning: build degraded to default layout(s) — code "
                 "profile %s, heap profile %s\n",
                 Img.ProfileDiag.CodeProfileProvided
                     ? (Img.ProfileDiag.CodeProfileApplied ? "applied"
                                                           : "rejected")
                     : "absent",
                 Img.ProfileDiag.HeapProfileProvided
                     ? (Img.ProfileDiag.HeapProfileApplied ? "applied"
                                                           : "rejected")
                     : "absent");
    for (const ProfileIssue &I : Img.ProfileDiag.Issues)
      std::fprintf(stderr, "  - %s: %s\n", profileErrorName(I.Kind),
                   I.Detail.c_str());
  }
  if (const char *Out = flagValue(Argc, Argv, "--out")) {
    std::vector<uint8_t> Bytes = serializeImage(*P, Img);
    std::string Blob(Bytes.begin(), Bytes.end());
    if (!writeFile(Out, Blob)) {
      std::fprintf(stderr, "error: cannot write %s\n", Out);
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", Out, Bytes.size());
  }
  return 0;
}

int cmdRun(const std::string &Target, int Argc, char **Argv) {
  std::unique_ptr<Program> P = loadTarget(Target);
  if (!P)
    return 1;
  NativeImage Img;
  if (const char *File = flagValue(Argc, Argv, "--image")) {
    std::string Blob;
    if (!readFile(File, Blob)) {
      std::fprintf(stderr, "error: cannot read %s\n", File);
      return 1;
    }
    std::vector<uint8_t> Bytes(Blob.begin(), Blob.end());
    std::string Error;
    if (!deserializeImage(*P, Bytes, Img, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  } else {
    BuildConfig Cfg;
    Img = buildNativeImage(*P, Cfg);
  }
  RunConfig Run;
  Run.ColdCache = !hasFlag(Argc, Argv, "--warm");

  if (const char *Fleet = flagValue(Argc, Argv, "--fleet")) {
    long long N = std::atoll(Fleet);
    if (N <= 0) {
      std::fprintf(stderr,
                   "error: --fleet expects an instance count >= 1, got "
                   "'%s'\n",
                   Fleet);
      return 2;
    }
    FleetConfig FC;
    FC.Instances = uint32_t(N);
    if (const char *Arrivals = flagValue(Argc, Argv, "--arrivals")) {
      if (!parseArrivalKind(Arrivals, FC.Arrivals)) {
        std::fprintf(stderr,
                     "error: --arrivals expects uniform|poisson|storm, got "
                     "'%s'\n",
                     Arrivals);
        return 2;
      }
    }
    if (const char *Window = flagValue(Argc, Argv, "--arrival-window-ns")) {
      double W = std::atof(Window);
      if (W < 0) {
        std::fprintf(stderr,
                     "error: --arrival-window-ns expects a window >= 0, got "
                     "'%s'\n",
                     Window);
        return 2;
      }
      FC.ArrivalWindowNs = W;
    }
    if (const char *Seed = flagValue(Argc, Argv, "--fleet-seed"))
      FC.Seed = std::strtoull(Seed, nullptr, 10);
    if (const char *Bursts = flagValue(Argc, Argv, "--storm-bursts")) {
      long long B = std::atoll(Bursts);
      if (B <= 0) {
        std::fprintf(stderr,
                     "error: --storm-bursts expects a burst count >= 1, got "
                     "'%s'\n",
                     Bursts);
        return 2;
      }
      FC.StormBursts = uint32_t(B);
    }
    if (const char *Cache = flagValue(Argc, Argv, "--cache-pages")) {
      long long C = std::atoll(Cache);
      if (C < 0) {
        std::fprintf(stderr,
                     "error: --cache-pages expects a page count >= 0 "
                     "(0 = unlimited), got '%s'\n",
                     Cache);
        return 2;
      }
      FC.CachePages = uint64_t(C);
    }

    RunStats Ref;
    FleetResult FR = runFleet(Img, Run, FC, &Ref);
    std::fputs(Ref.Output.c_str(), stdout);

    obs::StartupReport Report;
    Report.Target = Target;
    Report.Command = "run";
      Report.Variant = std::string("fleet=") + std::to_string(FC.Instances) +
                     " arrivals=" + arrivalKindName(FC.Arrivals);
    Report.setRun(Ref);
    Report.setImage(Img);
    Report.setFleet(FR, FC);
    if (!emitReport(Report, Argc, Argv))
      return 1;

    if (Ref.Trapped) {
      std::fprintf(stderr, "trap: %s\n", Ref.TrapMessage.c_str());
      return 1;
    }
    std::printf("[fleet] %u instance(s), %s arrivals over %.2f ms, cache "
                "%llu page(s)%s\n",
                FC.Instances, arrivalKindName(FC.Arrivals),
                FC.ArrivalWindowNs / 1e6,
                (unsigned long long)FC.CachePages,
                FC.CachePages == 0 ? " (unlimited)" : "");
    std::printf("[fleet] cold start p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, "
                "mean %.2f ms (single run %.2f ms)\n",
                FR.P50Ns / 1e6, FR.P90Ns / 1e6, FR.P99Ns / 1e6,
                FR.MeanNs / 1e6, FR.ReferenceTimeNs / 1e6);
    std::printf("[fleet] %llu major fault(s) over %llu unique page(s), "
                "%llu warm hit(s) (%.1f%% warm), %llu eviction(s)\n",
                (unsigned long long)FR.TotalMajors,
                (unsigned long long)FR.UniquePages,
                (unsigned long long)FR.TotalWarmHits,
                FR.warmHitRatio() * 100.0,
                (unsigned long long)FR.Evictions);
    return 0;
  }

  RunStats S = runImage(Img, Run);
  std::fputs(S.Output.c_str(), stdout);

  obs::StartupReport Report;
  Report.Target = Target;
  Report.Command = "run";
  Report.Variant = Run.ColdCache ? "cold-cache" : "warm-cache";
  Report.setRun(S);
  Report.setImage(Img);
  if (!emitReport(Report, Argc, Argv))
    return 1;

  if (S.Trapped) {
    std::fprintf(stderr, "trap: %s\n", S.TrapMessage.c_str());
    return 1;
  }
  std::printf("[%s cache] %llu text + %llu heap faults, %.2f ms (model), "
              "%llu instructions\n",
              Run.ColdCache ? "cold" : "warm",
              (unsigned long long)S.TextFaults,
              (unsigned long long)S.HeapFaults, S.TimeNs / 1e6,
              (unsigned long long)S.Instructions);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Cmd = Argv[1];
  std::string Target = Argv[2];
  const std::vector<FlagSpec> *Flags = commandFlags(Cmd);
  if (!Flags)
    return usage();
  if (!checkFlags(Cmd, *Flags, Argc, Argv))
    return 2;

  const char *TraceOut = flagValue(Argc, Argv, "--trace-out");
  if (TraceOut)
    obs::SpanTracer::global().setEnabled(true);

  int Rc;
  if (Cmd == "profile")
    Rc = cmdProfile(Target, Argc, Argv);
  else if (Cmd == "build")
    Rc = cmdBuild(Target, Argc, Argv);
  else
    Rc = cmdRun(Target, Argc, Argv);

  if (TraceOut) {
    if (!obs::SpanTracer::global().writeFile(TraceOut)) {
      std::fprintf(stderr, "error: cannot write trace %s\n", TraceOut);
      if (Rc == 0)
        Rc = 1;
    } else {
      std::printf("wrote %zu trace event(s) to %s (load in Perfetto / "
                  "chrome://tracing)\n",
                  obs::SpanTracer::global().eventCount(), TraceOut);
    }
  }
  if (hasFlag(Argc, Argv, "--metrics"))
    std::fputs(obs::MetricsRegistry::global().toText().c_str(), stdout);
  return Rc;
}
