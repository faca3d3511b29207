//===- EngineTest.cpp - Execution-engine and code-model tests ----------------===//

#include "src/core/Builder.h"
#include "src/lang/Compile.h"
#include "src/runtime/ExecEngine.h"

#include <gtest/gtest.h>

using namespace nimg;

namespace {

struct Fixture {
  Program P;
  NativeImage Img;

  explicit Fixture(const char *Source, uint64_t Seed = 1) {
    std::vector<std::string> Errors;
    bool Ok = compileSources({Source}, P, Errors);
    EXPECT_TRUE(Ok);
    for (auto &E : Errors)
      ADD_FAILURE() << E;
    BuildConfig Cfg;
    Cfg.Seed = Seed;
    Img = buildNativeImage(P, Cfg);
  }
};

} // namespace

TEST(CodeModel, InlinedCallStaysInCallerCu) {
  Fixture F("class T {\n"
            "  static int tiny() { return 7; }\n"
            "  static int caller() { return tiny() + 1; }\n"
            "}\n"
            "class Main { static int main() { return T.caller(); } }");
  MethodId Caller = F.P.findMethodBySig("T.caller()");
  MethodId Tiny = F.P.findMethodBySig("T.tiny()");
  const CompilationUnit &CU = F.Img.code().cuOf(Caller);
  ASSERT_GE(CU.Copies.size(), 2u) << "tiny() was not inlined";

  CuCodeModel Model(F.Img.code());
  ExecContext CallerCtx{F.Img.code().CuOfMethod[size_t(Caller)], 0};
  // Find the call site of tiny() in caller().
  const Method &M = F.P.method(Caller);
  uint32_t Site = 0;
  for (size_t B = 0; B < M.Blocks.size(); ++B)
    for (size_t I = 0; I < M.Blocks[B].Instrs.size(); ++I)
      if (M.Blocks[B].Instrs[I].Op == Opcode::CallStatic &&
          M.Blocks[B].Instrs[I].Aux == Tiny)
        Site = makeSiteId(BlockId(B), I);
  ExecContext Inlined = Model.enterContext(CallerCtx, Site, Tiny);
  EXPECT_EQ(Inlined.Cu, CallerCtx.Cu) << "inlined call left the CU";
  EXPECT_GT(Inlined.Copy, 0);
  // A mismatching target (guarded devirtualization miss) dispatches out.
  ExecContext Missed = Model.enterContext(CallerCtx, Site, Caller);
  EXPECT_EQ(Missed.Cu, F.Img.code().CuOfMethod[size_t(Caller)]);
  EXPECT_EQ(Missed.Copy, 0);
}

TEST(Engine, DeterministicAcrossRuns) {
  Fixture F("class Main { static int main() {\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < 50; i = i + 1) { s = s + i; }\n"
            "  Sys.printInt(s);\n"
            "  return s; } }");
  RunConfig RC;
  RunStats A = runImage(F.Img, RC);
  RunStats B = runImage(F.Img, RC);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.TextFaults, B.TextFaults);
  EXPECT_EQ(A.HeapFaults, B.HeapFaults);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.TimeNs, B.TimeNs);
}

TEST(Engine, RunsDoNotContaminateEachOther) {
  // Static mutation in one run must not leak into the next (each run
  // executes on a private copy of the image heap and statics).
  Fixture F("class S { static int counter = 0; }\n"
            "class Main { static int main() {\n"
            "  S.counter = S.counter + 1;\n"
            "  Sys.printInt(S.counter);\n"
            "  return S.counter; } }");
  RunConfig RC;
  RunStats A = runImage(F.Img, RC);
  RunStats B = runImage(F.Img, RC);
  EXPECT_EQ(A.Output, "1\n");
  EXPECT_EQ(B.Output, "1\n");
}

TEST(Engine, SpawnedThreadsRunToCompletion) {
  Fixture F("class W {\n"
            "  static int done = 0;\n"
            "  static void run() { W.done = W.done + 1; }\n"
            "}\n"
            "class Main { static int main() {\n"
            "  Sys.spawn(\"W.run\");\n"
            "  Sys.spawn(\"W.run\");\n"
            "  return 0; } }");
  RunConfig RC;
  RunStats S = runImage(F.Img, RC);
  EXPECT_FALSE(S.Trapped) << S.TrapMessage;
  EXPECT_FALSE(S.FuelExhausted);
}

TEST(Engine, FuelExhaustionIsReportedNotFatal) {
  Fixture F("class Main { static int main() {\n"
            "  int i = 0;\n"
            "  while (i >= 0) { i = i + 1; if (i > 1000000000) { i = 0; } }\n"
            "  return i; } }");
  RunConfig RC;
  RC.MaxInstructions = 50'000;
  RunStats S = runImage(F.Img, RC);
  EXPECT_TRUE(S.FuelExhausted);
  EXPECT_FALSE(S.Trapped);
}

TEST(Engine, TrapSurfacesMessage) {
  Fixture F("class Main { static int main() {\n"
            "  int[] a = new int[1];\n"
            "  return a[5]; } }");
  RunConfig RC;
  RunStats S = runImage(F.Img, RC);
  EXPECT_TRUE(S.Trapped);
  EXPECT_NE(S.TrapMessage.find("out of bounds"), std::string::npos);
}

TEST(Engine, ColdVsWarmTimesDiffer) {
  Fixture F("class S { static String blob = \"0123456789\" + \"abcdef\"; }\n"
            "class Main { static int main() {\n"
            "  return Str.length(S.blob); } }");
  RunConfig Cold;
  RunConfig Warm = Cold;
  Warm.ColdCache = false;
  RunStats C = runImage(F.Img, Cold);
  RunStats W = runImage(F.Img, Warm);
  EXPECT_GT(C.totalFaults(), 0u);
  EXPECT_EQ(W.totalFaults(), 0u);
  EXPECT_GT(C.TimeNs, W.TimeNs);
  EXPECT_EQ(C.Output, W.Output);
}

TEST(Engine, NativeTailIsTouchedByNatives) {
  Fixture F("class Main { static int main() {\n"
            "  Sys.print(\"hello\");\n"
            "  return 0; } }");
  RunConfig RC;
  RunStats S = runImage(F.Img, RC);
  // At least one fault must land in the native tail (Print's stub).
  uint64_t TailStart = F.Img.Layout.NativeTailOffset / RC.Paging.PageSize;
  bool TailTouched = false;
  for (size_t Pg = size_t(TailStart); Pg < S.TextPages.size(); ++Pg)
    if (S.TextPages[Pg] != PageState::Untouched)
      TailTouched = true;
  EXPECT_TRUE(TailTouched);
}

TEST(Engine, HeapOrderTraceOperandCountsMatchDecode) {
  // Property: for a heap-order capture, replaying never runs out of
  // words mid-record and every operand index is in range.
  Fixture F("class Box { int v; Box(int v) { this.v = v; } }\n"
            "class S { static Box box = new Box(41); }\n"
            "class Main { static int main() {\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < 10; i = i + 1) { s = s + S.box.v; }\n"
            "  return s; } }",
            9);
  BuildConfig Cfg;
  Cfg.Seed = 9;
  Cfg.Instrumented = true;
  NativeImage Instr = buildNativeImage(F.P, Cfg);
  TraceOptions TOpts;
  TOpts.Mode = TraceMode::HeapOrder;
  RunConfig RC;
  RC.Trace = &TOpts;
  TraceCapture Capture;
  RunStats S = runImage(Instr, RC, &Capture);
  ASSERT_FALSE(S.Trapped) << S.TrapMessage;
  ASSERT_GT(Capture.totalWords(), 0u);

  PathGraphCache Paths(F.P);
  for (const ThreadTrace &T : Capture.Threads) {
    size_t I = 0;
    while (I < T.Words.size()) {
      uint64_t W = T.Words[I++];
      ASSERT_TRUE(tracerec::isPath(W)) << "word " << I;
      PathEvents E =
          Paths.of(tracerec::pathMethod(W)).decode(tracerec::pathId(W));
      ASSERT_LE(I + E.OperandCount, T.Words.size())
          << "operands truncated mid-record";
      for (uint32_t K = 0; K < E.OperandCount; ++K) {
        uint64_t Op = T.Words[I++];
        if (Op != 0)
          ASSERT_LT(Op - 1, Instr.Snapshot.Entries.size());
      }
    }
  }
}
