//===- ClusterTest.cpp - Call-graph cluster ordering tests -------------------===//
//
// Properties of the cluster code orderer: the emitted profile is a
// permutation of the CU set seen in the trace, hot caller/callee pairs
// are packed together with the caller first, the page budget caps
// cluster growth, degenerate inputs (no transitions, wrong trace mode)
// fall back to plain cu ordering with a documented diagnostic, and the
// build's huge-page budget never reaches profiling.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/image/ImageFile.h"
#include "src/ir/IrBuilder.h"
#include "src/lang/Compile.h"
#include "src/ordering/ClusterLayout.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace nimg;

namespace {

/// Program with simple static methods plus a CompiledProgram with one CU
/// per method, for replaying synthetic cu-mode captures.
struct Fixture {
  Program P;
  ReachabilityResult Reach;
  CompiledProgram CP;
  MethodId A, B, X;

  Fixture() {
    ClassId C = P.addClass("T");
    A = add(C, "aa");
    B = add(C, "bb");
    X = add(C, "xx");
    MethodId Main = P.addMethod(C, "mainX", {}, P.intType(), true);
    IrBuilder Bld(P, Main);
    uint16_t R = Bld.constInt(0);
    for (MethodId M : {A, B, X})
      R = Bld.binop(Opcode::Add, R, Bld.callStatic(M, {}));
    Bld.ret(R);
    P.MainMethod = Main;
    Reach = analyzeReachability(P);
    InlinerConfig Cfg;
    Cfg.TrivialSize = 0; // no inlining: one CU per method
    Cfg.SmallSize = 0;
    CP = buildCompilationUnits(P, Reach, Cfg, false);
  }

  MethodId add(ClassId C, const char *Name) {
    MethodId M = P.addMethod(C, Name, {}, P.intType(), true);
    IrBuilder Bld(P, M);
    Bld.ret(Bld.constInt(1));
    return M;
  }

  TraceCapture capture(std::initializer_list<MethodId> Enters) {
    TraceCapture Cap;
    Cap.Options.Mode = TraceMode::CuOrder;
    Cap.Threads.resize(1);
    for (MethodId M : Enters)
      Cap.Threads[0].Words.push_back(tracerec::makeCuEnter(M));
    return Cap;
  }
};

const char *kWorkload = R"(
class Worker {
  static int step(int x) { return x * 3 + 1; }
  static int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + step(i); }
    return acc;
  }
}
class Other {
  static int twist(int x) { return x - 7; }
}
class Main {
  static int main() {
    int a = Worker.spin(40);
    int b = Other.twist(a);
    Sys.print("" + (a + b));
    return 0;
  }
}
)";

} // namespace

TEST(ClusterOrder, HotCalleePrecedesLaterEdgesCallerFirst) {
  Fixture F;
  // Transitions: A->X(1), X->B(1), B->A(2), A->B(1). The hottest edge
  // B->A merges first with the caller in front, so the layout starts
  // B, A even though A was seen first.
  TraceCapture Cap = F.capture({F.A, F.X, F.B, F.A, F.B, F.A});
  std::vector<ProfileIssue> Issues;
  ClusterStats Stats;
  CodeProfile Prof = analyzeClusterOrder(F.P, Cap, F.CP, ClusterOptions(),
                                         nullptr, &Issues, &Stats);
  ASSERT_EQ(Prof.Sigs.size(), 3u);
  EXPECT_EQ(Prof.Sigs[0], "T.bb()");
  EXPECT_EQ(Prof.Sigs[1], "T.aa()");
  EXPECT_EQ(Prof.Sigs[2], "T.xx()");
  EXPECT_TRUE(Issues.empty());
  EXPECT_FALSE(Stats.FellBack);
  EXPECT_EQ(Stats.Nodes, 3u);
  EXPECT_EQ(Stats.Edges, 4u);
  EXPECT_EQ(Prof.Header.Mode, TraceMode::CuOrder);
}

TEST(ClusterOrder, RepeatedAnalysisIsByteIdentical) {
  Fixture F;
  TraceCapture Cap = F.capture({F.A, F.X, F.B, F.A, F.B, F.A, F.X, F.B});
  CodeProfile First = analyzeClusterOrder(F.P, Cap, F.CP);
  CodeProfile Second = analyzeClusterOrder(F.P, Cap, F.CP);
  EXPECT_EQ(First.toCsv(), Second.toCsv());
}

TEST(ClusterOrder, EmptyTransitionGraphFallsBackToCuOrdering) {
  Fixture F;
  // A single distinct CU produces no transitions (self-edges dropped).
  TraceCapture Cap = F.capture({F.B, F.B, F.B});
  std::vector<ProfileIssue> Issues;
  ClusterStats Stats;
  CodeProfile Prof = analyzeClusterOrder(F.P, Cap, F.CP, ClusterOptions(),
                                         nullptr, &Issues, &Stats);
  ASSERT_EQ(Prof.Sigs.size(), 1u);
  EXPECT_EQ(Prof.Sigs[0], "T.bb()"); // first-execution order, like cu
  EXPECT_TRUE(Stats.FellBack);
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_EQ(Issues[0].Kind, ProfileError::EmptyTransitionGraph);
  EXPECT_STREQ(profileErrorSlug(Issues[0].Kind), "empty_transition_graph");
}

TEST(ClusterOrder, WrongTraceModeYieldsEmptyFallback) {
  Fixture F;
  TraceCapture Cap = F.capture({F.A, F.B});
  Cap.Options.Mode = TraceMode::HeapOrder;
  std::vector<ProfileIssue> Issues;
  SalvageStats Salvage;
  ClusterStats Stats;
  CodeProfile Prof = analyzeClusterOrder(F.P, Cap, F.CP, ClusterOptions(),
                                         &Salvage, &Issues, &Stats);
  EXPECT_TRUE(Prof.Sigs.empty());
  EXPECT_TRUE(Salvage.ModeMismatch);
  EXPECT_TRUE(Stats.FellBack);
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_EQ(Issues[0].Kind, ProfileError::EmptyTransitionGraph);
}

TEST(ClusterOrder, PageBudgetCapsClusterGrowth) {
  // Hand-built graph and CU sizes: three 100-byte CUs in a chain.
  CuTransitionGraph G;
  G.FirstSeen = {0, 1, 2};
  G.Edges.push_back({0, 1, 5});
  G.Edges.push_back({1, 2, 3});
  CompiledProgram CP;
  CP.CUs.resize(3);
  CP.CuOfMethod = {0, 1, 2};
  for (int32_t I = 0; I < 3; ++I) {
    CP.CUs[size_t(I)].Root = I;
    CP.CUs[size_t(I)].CodeSize = 100;
  }

  // Budget below any pair: every merge rejected, layout == first-seen.
  ClusterOptions Tight;
  Tight.PageBudgetBytes = 150;
  ClusterStats TS;
  std::vector<MethodId> Order = clusterLayout(G, CP, Tight, &TS);
  EXPECT_EQ(Order, (std::vector<MethodId>{0, 1, 2}));
  EXPECT_EQ(TS.Merges, 0u);
  EXPECT_EQ(TS.BudgetRejections, 2u);
  EXPECT_EQ(TS.Clusters, 3u);

  // Budget for one pair: the hotter edge merges, the second is rejected.
  ClusterOptions Mid;
  Mid.PageBudgetBytes = 250;
  ClusterStats MS;
  Order = clusterLayout(G, CP, Mid, &MS);
  EXPECT_EQ(Order, (std::vector<MethodId>{0, 1, 2}));
  EXPECT_EQ(MS.Merges, 1u);
  EXPECT_EQ(MS.BudgetRejections, 1u);
  EXPECT_EQ(MS.Clusters, 2u);

  // Unlimited: the whole chain becomes one cluster.
  ClusterOptions Open;
  Open.PageBudgetBytes = 0;
  ClusterStats OS;
  Order = clusterLayout(G, CP, Open, &OS);
  EXPECT_EQ(Order, (std::vector<MethodId>{0, 1, 2}));
  EXPECT_EQ(OS.Merges, 2u);
  EXPECT_EQ(OS.BudgetRejections, 0u);
  EXPECT_EQ(OS.Clusters, 1u);
}

TEST(ClusterOrder, ProfileIsPermutationOfCuProfile) {
  // End-to-end: collectProfiles derives the cluster profile from the same
  // cu-mode capture as the cu profile; same CU set, no drops, no dups.
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kWorkload}, P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(P, Cfg, RunConfig());
  ASSERT_FALSE(Prof.Cu.Sigs.empty());
  ASSERT_EQ(Prof.Cluster.Sigs.size(), Prof.Cu.Sigs.size());

  std::vector<std::string> Cu = Prof.Cu.Sigs;
  std::vector<std::string> Cluster = Prof.Cluster.Sigs;
  std::sort(Cu.begin(), Cu.end());
  std::sort(Cluster.begin(), Cluster.end());
  EXPECT_EQ(Cu, Cluster);
  EXPECT_TRUE(std::adjacent_find(Cluster.begin(), Cluster.end()) ==
              Cluster.end());

  // The derived profile builds and applies like any other code profile.
  Prof.Cluster.Header.Fingerprint = programFingerprint(P);
  BuildConfig Opt;
  Opt.Seed = 2;
  Opt.CodeOrder = CodeStrategy::Cluster;
  Opt.CodeProf = &Prof.Cluster;
  NativeImage Img = buildNativeImage(P, Opt);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);
}

TEST(ClusterProfile, IndependentOfHugeBudget) {
  // The huge-page budget is a layout-time overlay: profiling with it set
  // must write the same bytes as profiling without it, cluster profile
  // included.
  for (const std::string &Name : awfyBenchmarkNames()) {
    SCOPED_TRACE(Name);
    std::vector<std::string> Errors;
    std::unique_ptr<Program> P = compileBenchmark(awfyBenchmark(Name), Errors);
    ASSERT_TRUE(P);
    auto Collect = [&](uint32_t HugePages) {
      BuildConfig Cfg;
      Cfg.Seed = 1001;
      Cfg.Image.HugePages = HugePages;
      return collectProfiles(*P, Cfg, RunConfig());
    };
    CollectedProfiles Zero = Collect(0), Four = Collect(4);
    EXPECT_EQ(Zero.Cu.toCsv(), Four.Cu.toCsv());
    EXPECT_EQ(Zero.Method.toCsv(), Four.Method.toCsv());
    EXPECT_EQ(Zero.Cluster.toCsv(), Four.Cluster.toCsv());
    EXPECT_EQ(Zero.Blocks.toCsv(), Four.Blocks.toCsv());
    EXPECT_EQ(Zero.IncrementalId.toCsv(), Four.IncrementalId.toCsv());
    EXPECT_EQ(Zero.StructuralHash.toCsv(), Four.StructuralHash.toCsv());
    EXPECT_EQ(Zero.HeapPath.toCsv(), Four.HeapPath.toCsv());
    EXPECT_TRUE(Zero.ClusterLayoutStats == Four.ClusterLayoutStats);
    EXPECT_EQ(Zero.ClusterIssues.size(), Four.ClusterIssues.size());
  }
}
