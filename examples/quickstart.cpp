//===- quickstart.cpp - nimage in ~60 lines ---------------------------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Quickstart: compile a MiniJava program, build a baseline image, collect
// ordering profiles from an instrumented image, build a profile-guided
// image with the paper's best strategy (cu + heap path), and compare
// cold-start page faults and modeled startup time.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/lang/Compile.h"
#include "src/workloads/Workloads.h"

#include <cstdio>

using namespace nimg;

static const char *kProgram = R"MJ(
class Greeter {
  static String greeting = "Hello from the image heap!";
  String decorate(String who) { return greeting + " (to: " + who + ")"; }
}
class Main {
  static int main() {
    Runtime.initialize(); // the (generated) runtime library's startup path
    Greeter g = new Greeter();
    Sys.print(g.decorate("quickstart"));
    int sum = 0;
    for (int i = 0; i < 100; i = i + 1) { sum = sum + i * i; }
    return sum;
  }
}
)MJ";

int main() {
  // 1. Compile MiniJava source to a Program (the "classpath"): the som
  //    core library, the generated runtime library (whose startup path and
  //    cold code make layout matter), and our application.
  Program P;
  std::vector<std::string> Errors;
  if (!compileSources({somLibrarySource(), runtimePreludeSource(), kProgram},
                      P, Errors)) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }

  // 2. Baseline image: reachability -> inline/CUs -> run static
  //    initializers -> heap snapshot -> layout.
  BuildConfig Base;
  Base.Seed = 1;
  NativeImage Baseline = buildNativeImage(P, Base);
  std::printf("baseline image: %zu CUs, %zu snapshot objects, %llu KiB\n",
              Baseline.code().CUs.size(), Baseline.Snapshot.numStored(),
              (unsigned long long)(Baseline.imageBytes() / 1024));

  // 3. Profile: build an instrumented image, run it three times (cu /
  //    method / heap tracing), post-process traces into ordering profiles.
  RunConfig Run;
  BuildConfig InstrCfg;
  InstrCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(P, InstrCfg, Run);
  std::printf("profiles: %zu CUs, %zu methods, %zu heap objects\n",
              Prof.Cu.Sigs.size(), Prof.Method.Sigs.size(),
              Prof.HeapPath.Ids.size());

  // 4. Optimizing build consuming the profiles (cu + heap path, the
  //    paper's best combination).
  BuildConfig Opt;
  Opt.Seed = 2;
  Opt.CodeOrder = CodeStrategy::CuOrder;
  Opt.CodeProf = &Prof.Cu;
  Opt.UseHeapOrder = true;
  Opt.HeapOrder = HeapStrategy::HeapPath;
  Opt.HeapProf = &Prof.HeapPath;
  NativeImage Optimized = buildNativeImage(P, Opt);

  // 5. Cold-start both images and compare.
  RunStats B = runImage(Baseline, Run);
  RunStats O = runImage(Optimized, Run);
  std::printf("\nprogram output:\n%s\n", O.Output.c_str());
  std::printf("cold start   %-10s %-10s\n", "baseline", "optimized");
  std::printf(".text faults  %-10llu %-10llu\n",
              (unsigned long long)B.TextFaults,
              (unsigned long long)O.TextFaults);
  std::printf(".heap faults  %-10llu %-10llu\n",
              (unsigned long long)B.HeapFaults,
              (unsigned long long)O.HeapFaults);
  std::printf("time (model)  %-10.2f %-10.2f ms  => speedup %.2fx\n",
              B.TimeNs / 1e6, O.TimeNs / 1e6, B.TimeNs / O.TimeNs);
  return 0;
}
