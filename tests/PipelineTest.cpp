//===- PipelineTest.cpp - End-to-end build/profile/optimize tests -----------===//

#include "src/core/Builder.h"
#include "src/lang/Compile.h"

#include <gtest/gtest.h>

using namespace nimg;

namespace {

/// A small but non-trivial workload: polymorphism, arrays, statics with
/// initializers, string building, hot and cold code.
const char *kWorkload = R"(
abstract class Shape {
  abstract double area();
}
class Circle extends Shape {
  double r;
  Circle(double r) { this.r = r; }
  double area() { return 3.14159 * r * r; }
}
class Rect extends Shape {
  double w; double h;
  Rect(double w, double h) { this.w = w; this.h = h; }
  double area() { return w * h; }
}
class Registry {
  static String banner = "shape registry v" + 1;
  static int created = 0;
  static int[] histogram = new int[16];
  static { histogram[0] = 1; }
  static void note(int kind) {
    created = created + 1;
    histogram[kind] = histogram[kind] + 1;
  }
}
class ColdPath {
  static String unusedBlob = "a long constant that only cold code touches";
  static int neverCalled(int x) {
    int acc = 0;
    for (int i = 0; i < x; i = i + 1) { acc = acc + i * i; }
    Sys.print(ColdPath.unusedBlob);
    return acc;
  }
}
class Main {
  static double work() {
    Shape[] shapes = new Shape[20];
    for (int i = 0; i < shapes.length; i = i + 1) {
      if (i % 2 == 0) {
        shapes[i] = new Circle(1.0 + i);
        Registry.note(0);
      } else {
        shapes[i] = new Rect(2.0, 1.0 + i);
        Registry.note(1);
      }
    }
    double total = 0.0;
    for (int i = 0; i < shapes.length; i = i + 1) {
      total = total + shapes[i].area();
    }
    if (total < 0.0) { ColdPath.neverCalled(100); }
    return total;
  }
  static int main() {
    double t = work();
    Sys.print(Registry.banner + ": " + Registry.created);
    return (int) t;
  }
}
)";

struct Env {
  Program P;
  std::vector<std::string> Errors;

  Env() {
    bool Ok = compileSources({kWorkload}, P, Errors);
    EXPECT_TRUE(Ok);
    for (auto &E : Errors)
      ADD_FAILURE() << E;
  }
};

} // namespace

TEST(Reachability, ConservativeButBounded) {
  Env E;
  ensureClassMetaClass(E.P);
  ReachabilityResult R = analyzeReachability(E.P);
  EXPECT_TRUE(R.ReachableMethods[size_t(E.P.MainMethod)]);
  // ColdPath.neverCalled is statically referenced in dead code, so the
  // conservative analysis includes it.
  MethodId Cold = E.P.findMethodBySig("ColdPath.neverCalled(int)");
  ASSERT_NE(Cold, -1);
  EXPECT_TRUE(R.ReachableMethods[size_t(Cold)]);
  // Both shape implementations reachable through the virtual call.
  MethodId Area = E.P.findMethodBySig("Shape.area()");
  EXPECT_EQ(R.reachableTargets(E.P, Area).size(), 2u);
  EXPECT_FALSE(R.isMonomorphic(E.P, Area));
}

TEST(Inliner, InstrumentationDivergesInlining) {
  Env E;
  ensureClassMetaClass(E.P);
  ReachabilityResult R = analyzeReachability(E.P);
  InlinerConfig Cfg;
  CompiledProgram Plain = buildCompilationUnits(E.P, R, Cfg, false);
  CompiledProgram Instr = buildCompilationUnits(E.P, R, Cfg, true);
  EXPECT_EQ(Plain.CUs.size(), Instr.CUs.size());
  EXPECT_NE(Plain.InlineFingerprint, Instr.InlineFingerprint);
  // Instrumented code is larger.
  EXPECT_GT(Instr.totalCodeSize(), Plain.totalCodeSize());
  // CUs are in alphabetical root order by default.
  for (size_t I = 1; I < Plain.CUs.size(); ++I)
    EXPECT_LE(E.P.method(Plain.CUs[I - 1].Root).Sig,
              E.P.method(Plain.CUs[I].Root).Sig);
}

TEST(Inliner, InlineMapsAreConsistent) {
  Env E;
  ensureClassMetaClass(E.P);
  ReachabilityResult R = analyzeReachability(E.P);
  CompiledProgram CP = buildCompilationUnits(E.P, R, InlinerConfig(), false);
  for (const CompilationUnit &CU : CP.CUs) {
    ASSERT_FALSE(CU.Copies.empty());
    EXPECT_EQ(CU.Copies[0].Method, CU.Root);
    uint64_t SizeSum = 0;
    for (const InlineCopy &C : CU.Copies)
      SizeSum += C.CodeSize;
    EXPECT_EQ(SizeSum, CU.CodeSize);
    for (const auto &[Key, CopyIdx] : CU.InlineMap) {
      ASSERT_LT(size_t(CopyIdx), CU.Copies.size());
      EXPECT_EQ(CU.Copies[size_t(CopyIdx)].ParentCopy, int32_t(Key >> 32));
    }
  }
}

TEST(Snapshot, RootsAndParentsAreWellFormed) {
  Env E;
  BuildConfig Cfg;
  Cfg.Seed = 7;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  ASSERT_GT(Img.Snapshot.Entries.size(), 0u);
  size_t Roots = 0, Interned = 0, Statics = 0, Data = 0;
  for (size_t I = 0; I < Img.Snapshot.Entries.size(); ++I) {
    const SnapshotEntry &S = Img.Snapshot.Entries[I];
    if (S.IsRoot) {
      ++Roots;
      switch (S.Reason.Kind) {
      case InclusionReasonKind::InternedString:
        ++Interned;
        break;
      case InclusionReasonKind::StaticField:
        ++Statics;
        break;
      case InclusionReasonKind::DataSection:
        ++Data;
        break;
      default:
        break;
      }
    } else {
      ASSERT_GE(S.ParentEntry, 0);
      ASSERT_LT(size_t(S.ParentEntry), I + Img.Snapshot.Entries.size());
      EXPECT_GE(S.ParentSlot, 0);
    }
    EXPECT_GT(S.SizeBytes, 0u);
  }
  EXPECT_GT(Roots, 0u);
  EXPECT_GT(Interned, 0u); // string literals
  EXPECT_GT(Statics, 0u);  // Registry.banner / histogram
  EXPECT_GT(Data, 0u);     // class metadata
}

TEST(Snapshot, IdTablesAssignedToStoredEntries) {
  Env E;
  BuildConfig Cfg;
  Cfg.Seed = 3;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  for (size_t I = 0; I < Img.Snapshot.Entries.size(); ++I) {
    bool Stored = !Img.Snapshot.Entries[I].Elided;
    EXPECT_EQ(Img.Ids.IncrementalIds[I] != 0, Stored);
    if (Stored) {
      EXPECT_NE(Img.Ids.StructuralHashes[I], 0u);
      EXPECT_NE(Img.Ids.HeapPathHashes[I], 0u);
    }
  }
}

TEST(Snapshot, SeedChangesInitSeqButNotSemantics) {
  Env E1, E2;
  BuildConfig C1, C2;
  C1.Seed = 11;
  C2.Seed = 22;
  NativeImage A = buildNativeImage(E1.P, C1);
  NativeImage B = buildNativeImage(E2.P, C2);
  // Different permutations usually give different init orders.
  EXPECT_NE(A.Built.InitOrder, B.Built.InitOrder);
  // But runtime behaviour is identical.
  RunConfig RC;
  RunStats SA = runImage(A, RC);
  RunStats SB = runImage(B, RC);
  EXPECT_FALSE(SA.Trapped) << SA.TrapMessage;
  EXPECT_EQ(SA.Output, SB.Output);
}

TEST(Image, LayoutCoversEverythingOnce) {
  Env E;
  BuildConfig Cfg;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  // Every CU placed exactly once, no overlaps.
  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  for (size_t Cu = 0; Cu < Img.code().CUs.size(); ++Cu)
    Ranges.emplace_back(Img.Layout.CuOffsets[Cu],
                        Img.Layout.CuOffsets[Cu] + Img.code().CUs[Cu].CodeSize);
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first);
  EXPECT_LE(Ranges.back().second, Img.Layout.NativeTailOffset);
  EXPECT_EQ(Img.Layout.TextSize,
            Img.Layout.NativeTailOffset + Img.Layout.NativeTailSize);
  // Objects: stored entries have offsets beyond the statics area.
  for (size_t I = 0; I < Img.Snapshot.Entries.size(); ++I) {
    uint64_t Off = Img.Layout.ObjectOffsets[I];
    if (Img.Snapshot.Entries[I].Elided) {
      EXPECT_EQ(Off, ImageLayout::NotStored);
    } else {
      EXPECT_GE(Off, Img.Layout.StaticsSize);
      EXPECT_LT(Off, Img.Layout.HeapSize);
    }
  }
}

TEST(Engine, RunsAndCountsFaults) {
  Env E;
  BuildConfig Cfg;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  RunConfig RC;
  RunStats S = runImage(Img, RC);
  ASSERT_FALSE(S.Trapped) << S.TrapMessage;
  EXPECT_FALSE(S.FuelExhausted);
  EXPECT_GT(S.TextFaults, 0u);
  EXPECT_GT(S.HeapFaults, 0u);
  EXPECT_GT(S.Instructions, 0u);
  EXPECT_NE(S.Output.find("shape registry"), std::string::npos);
  EXPECT_GT(S.StoredObjectsTouched, 0u);
  EXPECT_LT(S.StoredObjectsTouched, S.StoredObjectsTotal);
  // Warm cache faults nothing.
  RunConfig Warm = RC;
  Warm.ColdCache = false;
  RunStats W = runImage(Img, Warm);
  EXPECT_EQ(W.totalFaults(), 0u);
  EXPECT_EQ(W.Output, S.Output);
}

TEST(Profiles, CollectionProducesNonEmptyProfiles) {
  Env E;
  BuildConfig Cfg;
  Cfg.Seed = 100;
  RunConfig RC;
  CollectedProfiles Prof = collectProfiles(E.P, Cfg, RC);
  EXPECT_FALSE(Prof.Cu.Sigs.empty());
  EXPECT_FALSE(Prof.Method.Sigs.empty());
  EXPECT_FALSE(Prof.HeapPath.Ids.empty());
  EXPECT_EQ(Prof.HeapPath.Ids.size(), Prof.IncrementalId.Ids.size());
  // Method profile is a superset of executed cu roots modulo inlining;
  // both must contain main.
  auto Contains = [](const CodeProfile &P, const std::string &Sig) {
    for (const std::string &S : P.Sigs)
      if (S == Sig)
        return true;
    return false;
  };
  EXPECT_TRUE(Contains(Prof.Cu, "Main.main()"));
  EXPECT_TRUE(Contains(Prof.Method, "Main.main()"));
  EXPECT_TRUE(Contains(Prof.Method, "Circle.area()"));
  // The unexecuted cold method appears in no profile.
  EXPECT_FALSE(Contains(Prof.Cu, "ColdPath.neverCalled(int)"));
  EXPECT_FALSE(Contains(Prof.Method, "ColdPath.neverCalled(int)"));
  // Instrumented runs cost more than plain runs.
  EXPECT_GT(Prof.MethodRun.ProbeUnits, 0u);
}

TEST(Profiles, CsvRoundTrip) {
  CodeProfile CP;
  CP.Sigs = {"A.b()", "C.d(int,double)"};
  CodeProfile CP2 = CodeProfile::fromCsv(CP.toCsv());
  EXPECT_EQ(CP.Sigs, CP2.Sigs);
  HeapProfile HP;
  HP.Ids = {0x1234abcdULL, ~uint64_t(0), 1};
  HeapProfile HP2 = HeapProfile::fromCsv(HP.toCsv());
  EXPECT_EQ(HP.Ids, HP2.Ids);
}

namespace {

/// Generates a workload big enough for layout effects to show: NumClasses
/// classes, each with one hot method (executed) and several large cold
/// methods (reachable through a never-taken branch), plus per-class static
/// object state of which only the hot part is accessed.
std::string syntheticWorkload(int NumClasses) {
  std::string Src;
  std::string ColdCalls;
  std::string HotCalls;
  for (int I = 0; I < NumClasses; ++I) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "W%02d", I);
    Src += std::string("class ") + Name + " {\n";
    Src += "  static int hotState = " + std::to_string(I) + ";\n";
    Src += "  static int[] coldState = new int[64];\n";
    Src += "  static int hot(int x) { hotState = hotState + x; "
           "return hotState; }\n";
    for (int C = 0; C < 6; ++C) {
      Src += "  static int cold" + std::to_string(C) + "(int x) {\n";
      Src += "    int acc = 0;\n";
      for (int K = 0; K < 12; ++K)
        Src += "    acc = acc + (x * " + std::to_string(K + 2) +
               ") % (x + " + std::to_string(K + 1) + ") + coldState[" +
               std::to_string(K) + "];\n";
      Src += "    return acc;\n  }\n";
      ColdCalls += std::string("      s = s + ") + Name + ".cold" +
                   std::to_string(C) + "(s);\n";
    }
    Src += "}\n";
    HotCalls += std::string("      s = s + ") + Name + ".hot(i);\n";
  }
  Src += "class Main {\n  static int main() {\n    int s = 1;\n"
         "    for (int i = 0; i < 3; i = i + 1) {\n" +
         HotCalls +
         "    }\n    if (s < 0) {\n" + ColdCalls +
         "    }\n    Sys.printInt(s);\n    return s;\n  }\n}\n";
  return Src;
}

} // namespace

TEST(Optimized, AllStrategiesPreserveBehaviourAndReduceFaults) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({syntheticWorkload(40)}, P, Errors));
  RunConfig RC;
  BuildConfig InstrCfg;
  InstrCfg.Seed = 1000;
  CollectedProfiles Prof = collectProfiles(P, InstrCfg, RC);

  BuildConfig Base;
  Base.Seed = 1;
  NativeImage Baseline = buildNativeImage(P, Base);
  RunStats BS = runImage(Baseline, RC);
  ASSERT_FALSE(BS.Trapped) << BS.TrapMessage;
  ASSERT_GT(BS.TextFaults, 3u);

  auto CheckVariant = [&](BuildConfig Cfg, const char *Name) {
    Cfg.Seed = 2;
    NativeImage Img = buildNativeImage(P, Cfg);
    RunStats S = runImage(Img, RC);
    EXPECT_FALSE(S.Trapped) << Name << ": " << S.TrapMessage;
    EXPECT_EQ(S.Output, BS.Output) << Name;
    return S;
  };

  BuildConfig CuCfg;
  CuCfg.CodeOrder = CodeStrategy::CuOrder;
  CuCfg.CodeProf = &Prof.Cu;
  RunStats CuS = CheckVariant(CuCfg, "cu");
  EXPECT_LT(CuS.TextFaults, BS.TextFaults);

  BuildConfig MCfg;
  MCfg.CodeOrder = CodeStrategy::MethodOrder;
  MCfg.CodeProf = &Prof.Method;
  RunStats MS = CheckVariant(MCfg, "method");
  EXPECT_LT(MS.TextFaults, BS.TextFaults);

  for (HeapStrategy HS :
       {HeapStrategy::IncrementalId, HeapStrategy::StructuralHash,
        HeapStrategy::HeapPath}) {
    BuildConfig HCfg;
    HCfg.UseHeapOrder = true;
    HCfg.HeapOrder = HS;
    const HeapProfile &HP = Prof.forStrategy(HS);
    HCfg.HeapProf = &HP;
    RunStats S = CheckVariant(HCfg, heapStrategyName(HS));
    EXPECT_LE(S.HeapFaults, BS.HeapFaults) << heapStrategyName(HS);
  }

  // Combined cu + heap path.
  BuildConfig Combined;
  Combined.CodeOrder = CodeStrategy::CuOrder;
  Combined.CodeProf = &Prof.Cu;
  Combined.UseHeapOrder = true;
  Combined.HeapOrder = HeapStrategy::HeapPath;
  Combined.HeapProf = &Prof.HeapPath;
  RunStats CS = CheckVariant(Combined, "cu+heap path");
  EXPECT_LT(CS.totalFaults(), BS.totalFaults());
  EXPECT_LT(CS.TimeNs, BS.TimeNs);
}

TEST(Optimized, HeapMatcherMatchesMostObjects) {
  Env E;
  RunConfig RC;
  BuildConfig InstrCfg;
  InstrCfg.Seed = 500;
  CollectedProfiles Prof = collectProfiles(E.P, InstrCfg, RC);

  BuildConfig Cfg;
  Cfg.Seed = 9;
  NativeImage Img = buildNativeImage(E.P, Cfg);
  HeapMatchStats Stats;
  std::vector<int32_t> Order = orderObjectsWithProfile(
      Img.Snapshot, Img.Ids, HeapStrategy::HeapPath, Prof.HeapPath, &Stats);
  EXPECT_EQ(Order.size(), Img.Snapshot.numStored());
  EXPECT_GT(Stats.ProfileIds, 0u);
  // Heap-path matching should land most profiled objects.
  EXPECT_GT(Stats.Matched * 2, Stats.ProfileIds);
}
