//===- ProfilingTest.cpp - Serial trace replay and profile ingestion tests ===//
//
// The capture contract: one runImageTraced() interpretation with several
// tracers attached yields, per mode, exactly the capture and RunStats of a
// run tracing that mode alone, and collectProfiles() interprets the
// instrumented image once.
//
// The post-processing contract: replayTrace() is the one replay loop,
// each capture is salvaged and replayed once with every sink attached,
// threads are replayed serially in creation order without any sink
// carrying adjacency across a thread boundary, and collectProfiles()
// reproduces recorded CRC-32 digests of every profile it emits. Also the
// ingestion rule that only code profiles may carry a sampled capture
// header (any other kind would otherwise skip its payload CRC).
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/ir/IrBuilder.h"
#include "src/obs/Metrics.h"
#include "src/profiling/CallGraph.h"
#include "src/support/Crc32.h"
#include "src/workloads/Workloads.h"
#include "tests/ExpectSameRun.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace nimg;

namespace {

TraceCapture captureOf(TraceMode Mode,
                       std::vector<std::vector<uint64_t>> Threads) {
  TraceCapture Cap;
  Cap.Options.Mode = Mode;
  Cap.Threads.resize(Threads.size());
  for (size_t T = 0; T < Threads.size(); ++T)
    Cap.Threads[T].Words = std::move(Threads[T]);
  return Cap;
}

bool hasEdge(const CuTransitionGraph &G, MethodId From, MethodId To) {
  return std::any_of(G.Edges.begin(), G.Edges.end(),
                     [&](const CuTransitionGraph::Edge &E) {
                       return E.From == From && E.To == To;
                     });
}

/// A while loop: entry(0) -> cond(1) -> (body(2) -> cond | exit(3)). The
/// back edge body -> cond is a path cut, so the loop's records are
/// "entry, cond, body" (method entry) and "cond, body" (resumed at cond).
struct LoopFixture {
  Program P;
  MethodId M = -1;
  BlockId Cond = -1, Body = -1;
  uint64_t EntryToBody = 0, CondToBody = 0; ///< Path ids of the records.

  LoopFixture() {
    ClassId C = P.addClass("T");
    M = P.addMethod(C, "loop", {}, P.intType(), true);
    IrBuilder B(P, M);
    uint16_t I = B.constInt(0);
    Cond = B.newBlock();
    Body = B.newBlock();
    BlockId Exit = B.newBlock();
    B.jmp(Cond);
    B.setBlock(Cond);
    B.br(B.binop(Opcode::CmpLt, I, B.constInt(10)), Body, Exit);
    B.setBlock(Body);
    B.move(I, B.binop(Opcode::Add, I, B.constInt(1)));
    B.jmp(Cond);
    B.setBlock(Exit);
    B.ret(I);

    PathGraphCache Paths(P);
    const PathGraph &G = Paths.of(M);
    for (uint64_t Id = 0; Id < G.numPaths(); ++Id) {
      PathEvents E = G.decode(Id);
      if (E.Blocks == std::vector<BlockId>{0, Cond, Body} && E.MethodEntry)
        EntryToBody = Id;
      if (E.Blocks == std::vector<BlockId>{Cond, Body} && !E.MethodEntry)
        CondToBody = Id;
    }
  }

  uint64_t record(uint64_t PathId) const {
    return tracerec::makePath(M, PathId);
  }
};

} // namespace

TEST(SerialReplay, CallGraphEdgesStopAtThreadBoundaries) {
  Program P;
  ClassId C = P.addClass("T");
  MethodId A = P.addMethod(C, "aa", {}, P.intType(), true);
  MethodId B = P.addMethod(C, "bb", {}, P.intType(), true);
  uint64_t EnterA = tracerec::makeCuEnter(A), EnterB = tracerec::makeCuEnter(B);

  // One thread: A then B is a transition.
  CuTransitionGraph One =
      analyzeCuTransitions(P, captureOf(TraceMode::CuOrder, {{EnterA, EnterB}}));
  EXPECT_TRUE(hasEdge(One, A, B));

  // Thread 0 ends in A, thread 1 starts in B: no transition between them.
  CuTransitionGraph Two = analyzeCuTransitions(
      P, captureOf(TraceMode::CuOrder, {{EnterA}, {EnterB, EnterA}}));
  EXPECT_FALSE(hasEdge(Two, A, B));
  EXPECT_TRUE(hasEdge(Two, B, A));
  EXPECT_EQ(Two.FirstSeen, (std::vector<MethodId>{A, B}));
}

TEST(SerialReplay, OneReplayFeedsEverySink) {
  // Sinks attached to one replay see exactly what one-sink wrappers see.
  LoopFixture F;
  PathGraphCache Paths(F.P);
  TraceCapture Cap = captureOf(
      TraceMode::MethodOrder,
      {{F.record(F.EntryToBody), F.record(F.CondToBody)},
       {F.record(F.CondToBody), F.record(F.EntryToBody)}});
  CodeOrderAnalysis MethodA(F.P, CodeOrderAnalysis::Source::MethodEnter);
  BlockCountAnalysis BlockA(F.P);
  SalvageStats Stats;
  replayTrace(F.P, Cap, Paths, {&MethodA, &BlockA}, &Stats);
  EXPECT_EQ(Stats.WordsScanned, 4u);
  EXPECT_EQ(MethodA.finish(Stats).toCsv(),
            analyzeMethodOrder(F.P, Cap, Paths).toCsv());
  EXPECT_EQ(BlockA.finish(Stats).toCsv(),
            analyzeBlockCounts(F.P, Cap, Paths).toCsv());
}

//===----------------------------------------------------------------------===//
// Sampled capture headers: code profiles only.
//===----------------------------------------------------------------------===//

namespace {

/// Replaces the first \p From in \p Text's payload with \p To and marks the
/// header as a sampled capture, leaving the CRC cell stale.
std::string tamperAsSampled(std::string Text, const std::string &From,
                            const std::string &To) {
  size_t Nl = Text.find('\n');
  size_t At = Text.find(From, Nl);
  EXPECT_NE(At, std::string::npos) << From;
  Text.replace(At, From.size(), To);
  Text.insert(Nl, ",sampled,2048");
  return Text;
}

} // namespace

TEST(SampledHeader, RejectedOnHeapAndBlockProfiles) {
  HeapProfile Heap;
  Heap.Header.Mode = TraceMode::HeapOrder;
  Heap.Header.HasStrategy = true;
  Heap.Ids = {0x10, 0x20};
  BlockProfile Blocks;
  Blocks.Header.Mode = TraceMode::MethodOrder;
  Blocks.Rows = {{"T.f()", 0, 7}};

  ProfileReadReport R;
  HeapProfile H = HeapProfile::fromCsv(
      tamperAsSampled(Heap.toCsv(), "0000000000000020", "0000000000000030"),
      &R);
  EXPECT_EQ(H.LoadError, ProfileError::BadHeader);
  EXPECT_TRUE(H.Ids.empty());
  EXPECT_FALSE(R.PrefixSalvaged);

  BlockProfile B =
      BlockProfile::fromCsv(tamperAsSampled(Blocks.toCsv(), ",7", ",9"), &R);
  EXPECT_EQ(B.LoadError, ProfileError::BadHeader);
  EXPECT_TRUE(B.Rows.empty());
  EXPECT_FALSE(R.PrefixSalvaged);
}

TEST(SampledHeader, CodeProfilesStillSalvageTheirRowPrefix) {
  CodeProfile Code;
  Code.Sigs = {"T.a()", "T.b()"};
  Code.Counts = {7, 3};
  ProfileReadReport R;
  CodeProfile C =
      CodeProfile::fromCsv(tamperAsSampled(Code.toCsv(), ",7", ",9"), &R);
  EXPECT_EQ(C.LoadError, ProfileError::None);
  EXPECT_TRUE(R.PrefixSalvaged);
  EXPECT_EQ(C.Header.Capture, CaptureKind::Sampled);
  EXPECT_EQ(C.Sigs, Code.Sigs);
}

//===----------------------------------------------------------------------===//
// collectProfiles: recorded digests and pass counts.
//===----------------------------------------------------------------------===//

namespace {

/// CRC-32 of every CSV collectProfiles emits, in CollectedProfiles field
/// order, as space-separated hex.
std::string csvDigests(const CollectedProfiles &C) {
  std::string Out;
  for (const std::string &Csv :
       {C.Cu.toCsv(), C.Method.toCsv(), C.Cluster.toCsv(), C.Blocks.toCsv(),
        C.IncrementalId.toCsv(), C.StructuralHash.toCsv(),
        C.HeapPath.toCsv()}) {
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "%s%08x", Out.empty() ? "" : " ",
                  unsigned(crc32(Csv)));
    Out += Buf;
  }
  return Out;
}

/// Every SalvageStats field of the cu, method and heap captures.
std::string salvageFields(const CollectedProfiles &C) {
  std::string Out;
  for (const SalvageStats *S :
       {&C.CuSalvage, &C.MethodSalvage, &C.HeapSalvage}) {
    if (!Out.empty())
      Out += ' ';
    Out += std::to_string(S->WordsScanned) + '/' +
           std::to_string(S->WordsKept) + '/' +
           std::to_string(S->WordsDropped) + '/' +
           std::to_string(S->ThreadsTruncated) + '/' +
           std::to_string(S->ThreadsDropped) + '/' +
           std::to_string(S->IncompleteTailRecords) + '/' +
           std::to_string(int(S->ModeMismatch));
  }
  return Out;
}

/// CRC-32 over every ClusterStats field and ClusterIssues entry.
uint32_t clusterDigest(const CollectedProfiles &C) {
  const ClusterStats &S = C.ClusterLayoutStats;
  std::string Text;
  for (uint64_t V :
       {uint64_t(S.Nodes), uint64_t(S.Edges), uint64_t(S.Merges),
        uint64_t(S.BudgetRejections), uint64_t(S.Clusters),
        uint64_t(S.FellBack)})
    Text += std::to_string(V) + ',';
  for (const ProfileIssue &I : C.ClusterIssues)
    Text += std::string(profileErrorSlug(I.Kind)) + ',' +
            std::to_string(I.Row) + ',' + I.Detail + ';';
  return crc32(Text);
}

bool isMicroservice(const std::string &Name) {
  const std::vector<std::string> &M = microserviceNames();
  return std::find(M.begin(), M.end(), Name) != M.end();
}

std::unique_ptr<Program> compileWorkload(const std::string &Name) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(
      isMicroservice(Name) ? microserviceBenchmark(Name) : awfyBenchmark(Name),
      Errors);
  EXPECT_TRUE(P) << Name;
  return P;
}

BuildConfig profilingConfig(bool Sampled) {
  BuildConfig Cfg;
  Cfg.Seed = 1001;
  if (Sampled)
    Cfg.ProfileCapture = CaptureKind::Sampled;
  return Cfg;
}

/// Profiles \p Name the way evaluateBenchmark does.
CollectedProfiles collectFor(Program &P, const std::string &Name,
                             bool Sampled) {
  RunConfig Run;
  Run.StopAtFirstResponse = isMicroservice(Name);
  return collectProfiles(P, profilingConfig(Sampled), Run);
}

struct Golden {
  const char *Name;
  bool Sampled;
  const char *Csvs;    ///< csvDigests()
  const char *Salvage; ///< salvageFields()
  uint32_t Cluster;    ///< clusterDigest()
};

/// Recorded before post-processing became one serial replay per capture;
/// a mismatch means a profile byte changed.
const Golden GoldenDigests[] = {
    {"Bounce", false,
     "ff928707 5acdc1e6 03a63506 6b5d667b 03a91477 d57da720 fffac774",
     "5853/5853/0/0/0/0/0 21417/21417/0/0/0/0/0 73969/73969/0/0/0/0/0", 0x4d7ad61au},
    {"Bounce", true,
     "21f3dc9a 16288ec5 21f3dc9a 8cfcfcbe 03a91477 d57da720 fffac774",
     "343/343/0/0/0/0/0 343/343/0/0/0/0/0 73969/73969/0/0/0/0/0", 0xe104b347u},
    {"CD", false,
     "e950b02c 65a75baf 111d4a1a 30aded4b 7175f1b5 05377f01 d4c8017a",
     "18983/18983/0/0/0/0/0 59557/59557/0/0/0/0/0 140234/140234/0/0/0/0/0", 0xd08dc48au},
    {"CD", true,
     "1d8560b8 4be7acdf 1d8560b8 e11dc4c7 7175f1b5 05377f01 d4c8017a",
     "411/411/0/0/0/0/0 411/411/0/0/0/0/0 140234/140234/0/0/0/0/0", 0xe104b347u},
    {"DeltaBlue", false,
     "b9a90fb1 b8dd214b d8e8d8c7 8772f06e b19d70b1 087eb1e9 4e033df7",
     "9046/9046/0/0/0/0/0 38537/38537/0/0/0/0/0 79156/79156/0/0/0/0/0", 0xc03e23abu},
    {"DeltaBlue", true,
     "00d4932a 4837af35 00d4932a 76535926 b19d70b1 087eb1e9 4e033df7",
     "347/347/0/0/0/0/0 347/347/0/0/0/0/0 79156/79156/0/0/0/0/0", 0xe104b347u},
    {"Havlak", false,
     "7747f8b4 4c033ec2 899f91b8 8e4d0007 f72cb8be 5bae4d2a bb20403b",
     "35918/35918/0/0/0/0/0 115110/115110/0/0/0/0/0 262496/262496/0/0/0/0/0", 0xf4bb7ba8u},
    {"Havlak", true,
     "37474ff2 5d7d00e1 37474ff2 5e017106 f72cb8be 5bae4d2a bb20403b",
     "532/532/0/0/0/0/0 532/532/0/0/0/0/0 262496/262496/0/0/0/0/0", 0xe104b347u},
    {"Json", false,
     "29bf7356 5726da61 f43eb04d 8b2079a0 480196ab 764ef451 0a31bac9",
     "6573/6573/0/0/0/0/0 21821/21821/0/0/0/0/0 53348/53348/0/0/0/0/0", 0xd2fb44f2u},
    {"Json", true,
     "80708e66 9c41e1a6 80708e66 a60fe488 480196ab 764ef451 0a31bac9",
     "312/312/0/0/0/0/0 312/312/0/0/0/0/0 53348/53348/0/0/0/0/0", 0xe104b347u},
    {"List", false,
     "75beebf3 59527e05 76623c37 4753d45e 2314ff89 cc3c97ec 8b11cb5b",
     "3167/3167/0/0/0/0/0 31709/31709/0/0/0/0/0 59209/59209/0/0/0/0/0", 0xcf6b9f14u},
    {"List", true,
     "9bb6662e 5df9c7b0 9bb6662e b61c6a77 2314ff89 cc3c97ec 8b11cb5b",
     "348/348/0/0/0/0/0 348/348/0/0/0/0/0 59209/59209/0/0/0/0/0", 0xe104b347u},
    {"Mandelbrot", false,
     "ba69273f 0d0e90a0 023498ba de3fec49 b78783a2 3ac17f85 820f9659",
     "353/353/0/0/0/0/0 140075/140075/0/0/0/0/0 663/663/0/0/0/0/0", 0x15079992u},
    {"Mandelbrot", true,
     "6e46a57c 6d98593f 6e46a57c 3f422dfe b78783a2 3ac17f85 820f9659",
     "2097/2097/0/0/0/0/0 2097/2097/0/0/0/0/0 663/663/0/0/0/0/0", 0xe104b347u},
    {"NBody", false,
     "7c80c35d e53bbc48 060fed81 6c34e156 0ee9589c 25d1a82a f30f4444",
     "861/861/0/0/0/0/0 11259/11259/0/0/0/0/0 187531/187531/0/0/0/0/0", 0x328a3062u},
    {"NBody", true,
     "6f85fac8 138aeb74 6f85fac8 3b0f3c7b 0ee9589c 25d1a82a f30f4444",
     "453/453/0/0/0/0/0 453/453/0/0/0/0/0 187531/187531/0/0/0/0/0", 0xe104b347u},
    {"Permute", false,
     "94067839 a2bd0758 7acbc689 704c3979 b61fbe36 6a07d35c aeddccf9",
     "10432/10432/0/0/0/0/0 44726/44726/0/0/0/0/0 51053/51053/0/0/0/0/0", 0xabfc81d2u},
    {"Permute", true,
     "16499b46 7ff860f0 16499b46 9fb7db98 b61fbe36 6a07d35c aeddccf9",
     "358/358/0/0/0/0/0 358/358/0/0/0/0/0 51053/51053/0/0/0/0/0", 0xe104b347u},
    {"Queens", false,
     "43f48155 00fa4be5 10dad467 cf80f6a4 5a9d8d0b 525cf40e cc12d855",
     "11313/11313/0/0/0/0/0 35341/35341/0/0/0/0/0 58353/58353/0/0/0/0/0", 0x22188761u},
    {"Queens", true,
     "7fe64084 9a168346 7fe64084 f158f118 5a9d8d0b 525cf40e cc12d855",
     "346/346/0/0/0/0/0 346/346/0/0/0/0/0 58353/58353/0/0/0/0/0", 0xe104b347u},
    {"Richards", false,
     "645ac325 1d00b851 91e1e8ff 4f0e7764 f71d4507 33f3f9b9 af3cba16",
     "35106/35106/0/0/0/0/0 108021/108021/0/0/0/0/0 329071/329071/0/0/0/0/0", 0xa2c61432u},
    {"Richards", true,
     "b7746a6d 725566ac b7746a6d 1bbf4939 f71d4507 33f3f9b9 af3cba16",
     "614/614/0/0/0/0/0 614/614/0/0/0/0/0 329071/329071/0/0/0/0/0", 0xe104b347u},
    {"Sieve", false,
     "4445b872 8e351a07 bfc788d5 f5870490 96f35d7a aa94ec96 7ecb83db",
     "358/358/0/0/0/0/0 107566/107566/0/0/0/0/0 234518/234518/0/0/0/0/0", 0x5225d7a1u},
    {"Sieve", true,
     "dfae1514 1f4f88ac dfae1514 6e951e2d 96f35d7a aa94ec96 7ecb83db",
     "745/745/0/0/0/0/0 745/745/0/0/0/0/0 234518/234518/0/0/0/0/0", 0xe104b347u},
    {"Storage", false,
     "362caa6d 726663f0 c4474515 5e0461d5 5a989af4 0c41a835 1254f13d",
     "4450/4450/0/0/0/0/0 26789/26789/0/0/0/0/0 27969/27969/0/0/0/0/0", 0xabfc81d2u},
    {"Storage", true,
     "ed979610 2b43d769 ed979610 5c7f3c7c 5a989af4 0c41a835 1254f13d",
     "321/321/0/0/0/0/0 321/321/0/0/0/0/0 27969/27969/0/0/0/0/0", 0xe104b347u},
    {"Towers", false,
     "ce19493b 7f97e709 e8fd975a e4a4b2d6 ee7ee83b bbb8ffb0 db8d2b9f",
     "24942/24942/0/0/0/0/0 67843/67843/0/0/0/0/0 131850/131850/0/0/0/0/0", 0xdff92817u},
    {"Towers", true,
     "8c46a9da c430ed3c 8c46a9da d80bb184 ee7ee83b bbb8ffb0 db8d2b9f",
     "367/367/0/0/0/0/0 367/367/0/0/0/0/0 131850/131850/0/0/0/0/0", 0xe104b347u},
    {"micronaut", false,
     "391dd88f b7552176 025b2ada 18c3c7ba 6dabd386 ba00ce80 c5efc145",
     "824/824/0/0/0/0/0 6242/6242/0/0/0/0/0 8042/8042/0/0/0/0/0", 0xb30f021du},
    {"micronaut", true,
     "0118a3fb 24a113df 0118a3fb 6a007782 6dabd386 ba00ce80 c5efc145",
     "376/376/0/0/0/0/0 376/376/0/0/0/0/0 8042/8042/0/0/0/0/0", 0xe104b347u},
    {"quarkus", false,
     "6306fdf2 1aed0834 9f710139 3f4d0325 977d8b54 c5970e07 b4bff476",
     "815/815/0/0/0/0/0 7364/7364/0/0/0/0/0 10566/10566/0/0/0/0/0", 0x92f63d57u},
    {"quarkus", true,
     "b456d764 c317d5cf b456d764 4a8060fa 977d8b54 c5970e07 b4bff476",
     "361/361/0/0/0/0/0 361/361/0/0/0/0/0 10566/10566/0/0/0/0/0", 0xe104b347u},
    {"spring", false,
     "a0a4e991 ef634ca5 8bee2eb1 af246cf9 38adb200 cf609f6b a6beebc1",
     "985/985/0/0/0/0/0 7407/7407/0/0/0/0/0 10395/10395/0/0/0/0/0", 0x5a04fc46u},
    {"spring", true,
     "28a709ac 4ba09ed4 28a709ac 15797a6a 38adb200 cf609f6b a6beebc1",
     "429/429/0/0/0/0/0 429/429/0/0/0/0/0 10395/10395/0/0/0/0/0", 0xe104b347u},
};

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names = awfyBenchmarkNames();
  for (const std::string &M : microserviceNames())
    Names.push_back(M);
  return Names;
}

class CollectGolden : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(CollectGolden, ReproducesRecordedDigests) {
  std::unique_ptr<Program> P = compileWorkload(GetParam());
  ASSERT_TRUE(P);
  size_t Matched = 0;
  for (const Golden &G : GoldenDigests) {
    if (GetParam() != G.Name)
      continue;
    SCOPED_TRACE(G.Sampled ? "sampled" : "instrumented");
    CollectedProfiles C = collectFor(*P, G.Name, G.Sampled);
    EXPECT_EQ(csvDigests(C), G.Csvs);
    EXPECT_EQ(salvageFields(C), G.Salvage);
    EXPECT_EQ(clusterDigest(C), G.Cluster);
    ++Matched;
  }
  EXPECT_EQ(Matched, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CollectGolden, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

//===----------------------------------------------------------------------===//
// runImageTraced: one interpretation, one tracer per mode.
//===----------------------------------------------------------------------===//

namespace {

TraceOptions traceOptions(TraceMode Mode, DumpMode Dump, TraceEncoding Enc) {
  TraceOptions TO;
  TO.Mode = Mode;
  TO.Dump = Dump;
  TO.Encoding = Enc;
  return TO;
}

NativeImage instrumentedImage(Program &P, uint64_t Seed) {
  BuildConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Instrumented = true;
  NativeImage Img = buildNativeImage(P, Cfg);
  EXPECT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  return Img;
}

void expectSameCapture(const TraceCapture &A, const TraceCapture &B) {
  EXPECT_EQ(A.Options.Mode, B.Options.Mode);
  EXPECT_EQ(A.Options.Dump, B.Options.Dump);
  EXPECT_EQ(A.Options.Encoding, B.Options.Encoding);
  ASSERT_EQ(A.Threads.size(), B.Threads.size());
  for (size_t T = 0; T < A.Threads.size(); ++T) {
    EXPECT_EQ(A.Threads[T].Encoded, B.Threads[T].Encoded) << "thread " << T;
    EXPECT_EQ(A.Threads[T].Words, B.Threads[T].Words) << "thread " << T;
    EXPECT_EQ(A.Threads[T].Bytes, B.Threads[T].Bytes) << "thread " << T;
  }
}

/// Runs \p Img once with every mode of \p Modes attached and once per
/// What one tracer of a multi-tracer run produced.
struct FusedMode {
  RunStats Stats;
  size_t Words = 0;
};

/// Runs \p Img once with every mode of \p Modes attached and once per
/// mode alone; every capture and every RunStats field must agree.
std::vector<FusedMode> expectFusedEqualsSingle(
    const NativeImage &Img, const RunConfig &RC,
    const std::vector<TraceOptions> &Modes, const std::string &Ctx) {
  SCOPED_TRACE(Ctx);
  PathGraphCache Paths(*Img.P);
  std::vector<TraceCapture> Caps;
  std::vector<RunStats> Fused = runImageTraced(Img, RC, Modes, Caps, Paths);
  std::vector<FusedMode> Out;
  EXPECT_EQ(Fused.size(), Modes.size());
  EXPECT_EQ(Caps.size(), Modes.size());
  for (size_t I = 0; I < Modes.size() && I < Fused.size() && I < Caps.size();
       ++I) {
    SCOPED_TRACE("mode " + std::to_string(int(Modes[I].Mode)));
    RunConfig Single = RC;
    Single.Trace = &Modes[I];
    TraceCapture Cap;
    RunStats Stats = runImage(Img, Single, &Cap);
    expectSameCapture(Caps[I], Cap);
    expectSameRun(Fused[I], Stats, "fused vs single");
    Out.push_back({Fused[I], Caps[I].totalWords()});
  }
  return Out;
}

class FusedCaptureOracle : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(FusedCaptureOracle, EqualsSingleModeRuns) {
  std::unique_ptr<Program> P = compileWorkload(GetParam());
  ASSERT_TRUE(P);
  for (uint64_t Seed : {1001u, 7u}) {
    NativeImage Img = instrumentedImage(*P, Seed);
    for (DumpMode Dump : {DumpMode::FlushOnFull, DumpMode::MemoryMapped})
      for (TraceEncoding Enc : {TraceEncoding::Raw, TraceEncoding::VarintDelta})
        for (const FusedMode &F : expectFusedEqualsSingle(
                 Img, RunConfig(),
                 {traceOptions(TraceMode::CuOrder, Dump, Enc),
                  traceOptions(TraceMode::MethodOrder, Dump, Enc),
                  traceOptions(TraceMode::HeapOrder, Dump, Enc)},
                 "seed " + std::to_string(Seed) + " dump " +
                     std::to_string(int(Dump)) + " encoding " +
                     std::to_string(int(Enc))))
          EXPECT_GT(F.Words, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FusedCaptureOracle, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

TEST(FusedCapture, FuelLimitedRunEqualsSingleModeRuns) {
  // The fuel check stops every tracer at the same instruction; options
  // may differ per tracer, and one mode may be traced twice.
  std::unique_ptr<Program> P = compileWorkload("Richards");
  ASSERT_TRUE(P);
  NativeImage Img = instrumentedImage(*P, 1001);
  RunConfig RC;
  RC.MaxInstructions = 60000;
  std::vector<FusedMode> Fused = expectFusedEqualsSingle(
      Img, RC,
      {traceOptions(TraceMode::MethodOrder, DumpMode::FlushOnFull,
                    TraceEncoding::Raw),
       traceOptions(TraceMode::CuOrder, DumpMode::MemoryMapped,
                    TraceEncoding::VarintDelta),
       traceOptions(TraceMode::HeapOrder, DumpMode::MemoryMapped,
                    TraceEncoding::Raw),
       traceOptions(TraceMode::CuOrder, DumpMode::FlushOnFull,
                    TraceEncoding::VarintDelta)},
      "fuel-limited");
  for (const FusedMode &F : Fused) {
    EXPECT_TRUE(F.Stats.FuelExhausted);
    EXPECT_GT(F.Words, 0u);
  }
}

TEST(FusedCapture, KilledAtFirstResponseEqualsSingleModeRuns) {
  // The SIGKILL at the first response drops every FlushOnFull writer's
  // unflushed tail (small buffers here, so some flushes land first), and
  // each tracer's first-response time charges only its own probes.
  std::unique_ptr<Program> P = compileWorkload("micronaut");
  ASSERT_TRUE(P);
  NativeImage Img = instrumentedImage(*P, 1001);
  RunConfig RC;
  RC.StopAtFirstResponse = true;
  std::vector<TraceOptions> Modes = {
      traceOptions(TraceMode::CuOrder, DumpMode::MemoryMapped,
                   TraceEncoding::Raw),
      traceOptions(TraceMode::MethodOrder, DumpMode::FlushOnFull,
                   TraceEncoding::VarintDelta),
      traceOptions(TraceMode::HeapOrder, DumpMode::FlushOnFull,
                   TraceEncoding::Raw)};
  Modes[1].BufferWords = Modes[2].BufferWords = 64;
  for (const FusedMode &F :
       expectFusedEqualsSingle(Img, RC, Modes, "killed at first response")) {
    EXPECT_TRUE(F.Stats.Responded);
    EXPECT_GT(F.Words, 0u);
  }
}

TEST(FusedCaptureDeathTest, RejectsSampledMode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::unique_ptr<Program> P = compileWorkload("Bounce");
  ASSERT_TRUE(P);
  NativeImage Img = instrumentedImage(*P, 1001);
  PathGraphCache Paths(*P);
  std::vector<TraceCapture> Caps;
  std::vector<TraceOptions> Modes = {
      traceOptions(TraceMode::CuOrder, DumpMode::FlushOnFull,
                   TraceEncoding::Raw),
      traceOptions(TraceMode::Sampled, DumpMode::FlushOnFull,
                   TraceEncoding::Raw)};
  EXPECT_DEATH(runImageTraced(Img, RunConfig(), Modes, Caps, Paths),
               "Sampled must run alone");
}

#ifndef NIMG_OBS_DISABLED

namespace {

uint64_t counterValue(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name).value();
}

/// One collectProfiles makes \p Scans salvage scans and \p Runs runs of
/// an image (runImage / runImageTraced calls), and every parallel region
/// it opens belongs to the builds it makes (post-processing opens none).
void expectOnePassPerCapture(bool Sampled, uint64_t Scans, uint64_t Runs) {
  std::unique_ptr<Program> P = compileWorkload("Richards");
  ASSERT_TRUE(P);
  collectFor(*P, "Richards", Sampled); // Warm the build cache.

  uint64_t Scans0 = counterValue("nimg.salvage.scans");
  uint64_t Runs0 = counterValue("nimg.run.count");
  uint64_t Regions0 = counterValue("nimg.parallel.for.count");
  collectFor(*P, "Richards", Sampled);
  uint64_t Scans1 = counterValue("nimg.salvage.scans");
  uint64_t Runs1 = counterValue("nimg.run.count");
  uint64_t Regions1 = counterValue("nimg.parallel.for.count");

  // The same builds on their own: instrumented, plus the uninstrumented
  // production geometry a sampled capture runs.
  BuildConfig Cfg = profilingConfig(Sampled);
  Cfg.Instrumented = true;
  buildNativeImage(*P, Cfg);
  if (Sampled) {
    Cfg.Instrumented = false;
    buildNativeImage(*P, Cfg);
  }
  uint64_t Regions2 = counterValue("nimg.parallel.for.count");

  EXPECT_EQ(Scans1 - Scans0, Scans);
  EXPECT_EQ(Runs1 - Runs0, Runs);
  EXPECT_EQ(Regions1 - Regions0, Regions2 - Regions1);
}

} // namespace

TEST(SerialReplay, InstrumentedCollectScansEachCaptureOnce) {
  // cu, method and heap: three captures from one interpretation.
  expectOnePassPerCapture(/*Sampled=*/false, /*Scans=*/3, /*Runs=*/1);
}

TEST(SerialReplay, SampledCollectScansEachCaptureOnce) {
  // The sampler runs alone; the heap capture takes a second run.
  expectOnePassPerCapture(/*Sampled=*/true, /*Scans=*/2, /*Runs=*/2);
}

TEST(FusedCapture, InstrumentedProfileSetInterpretsOnce) {
  // Four instrumented members share one run, and each member's profile is
  // the one a cu-mode run of its own yields.
  std::unique_ptr<Program> P = compileWorkload("Richards");
  ASSERT_TRUE(P);
  BuildConfig Cfg = profilingConfig(/*Sampled=*/false);
  uint64_t Runs0 = counterValue("nimg.run.count");
  std::vector<MemberProfile> Members =
      collectProfileSet(*P, Cfg, RunConfig(), {"a", "b", "c", "d"});
  EXPECT_EQ(counterValue("nimg.run.count") - Runs0, 1u);

  NativeImage Img = instrumentedImage(*P, Cfg.Seed);
  TraceOptions TO = traceOptions(TraceMode::CuOrder, DumpMode::FlushOnFull,
                                 TraceEncoding::VarintDelta);
  RunConfig RC;
  RC.Trace = &TO;
  TraceCapture Cap;
  runImage(Img, RC, &Cap);
  CodeProfile Single = analyzeCuOrder(*P, Cap);
  ASSERT_EQ(Members.size(), 4u);
  for (MemberProfile &M : Members) {
    M.Profile.Header.Fingerprint = Single.Header.Fingerprint;
    M.Profile.Header.Generation = Single.Header.Generation;
    EXPECT_EQ(M.Profile.toCsv(), Single.toCsv()) << M.Name;
  }
}

#endif // NIMG_OBS_DISABLED
