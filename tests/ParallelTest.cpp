//===- ParallelTest.cpp - parallelMap and pipeline determinism --------------===//
//
// Unit tests for parallelMap (index coverage and order, the inline path,
// exception propagation, nested-use rejection), its one caller —
// evaluateSuite's fan-out over benchmarks, which must give the same
// evaluation at any worker count — and the pipeline's determinism:
// profiles, identity tables, and image bytes must not depend on the worker
// count, nor on other threads building or running at the same time. This
// binary carries the "tsan" ctest label so a -DNIMG_SANITIZE=thread build
// can run it alone.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/core/Evaluation.h"
#include "src/heap/BuildHeap.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/obs/Metrics.h"
#include "src/support/ThreadPool.h"
#include "src/workloads/Workloads.h"
#include "tests/ExpectSameRun.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace nimg;

namespace {

//===----------------------------------------------------------------------===//
// parallelMap unit tests.
//===----------------------------------------------------------------------===//

/// Runs Body(I) for every I in [0, N) through parallelMap at \p Jobs
/// workers, then resets the worker count.
template <typename Fn> void mapAtJobs(int Jobs, size_t N, Fn Body) {
  struct ResetJobs {
    ~ResetJobs() { setJobs(0); }
  } Reset;
  setJobs(Jobs);
  parallelMap(N, [&](size_t I) {
    Body(I);
    return 0;
  });
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Hits(103);
  mapAtJobs(4, Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> Calls{0};
  mapAtJobs(4, 0, [&](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ThreadPoolTest, SingleJobRunsInlineInsideParallelRegion) {
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Ran(8);
  mapAtJobs(1, Ran.size(),
            [&](size_t I) { Ran[I] = std::this_thread::get_id(); });
  for (size_t I = 0; I < Ran.size(); ++I)
    EXPECT_EQ(Ran[I], Caller) << "index " << I;
}

TEST(ThreadPoolTest, ExceptionPropagatesFromInlineExecution) {
  EXPECT_THROW(mapAtJobs(1, 8,
                         [](size_t) {
                           throw std::runtime_error("task failed");
                         }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromWorkers) {
  EXPECT_THROW(mapAtJobs(4, 64,
                         [](size_t I) {
                           if (I % 2 == 1)
                             throw std::runtime_error("task failed");
                         }),
               std::runtime_error);
}

TEST(ThreadPoolTest, LowestChunkIndexExceptionWins) {
  // Several indices throw; which thread ran which index is scheduling
  // noise, but the rethrown error must always come from the lowest one.
  for (int Round = 0; Round < 8; ++Round) {
    try {
      mapAtJobs(4, 32, [](size_t I) {
        if (I >= 3)
          throw std::runtime_error("index " + std::to_string(I));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "index 3");
    }
  }
}

TEST(ThreadPoolTest, NestedUseIsRejected) {
  // At 2 jobs on the workers and the caller, at 1 job on the inline path.
  for (int Jobs : {2, 1})
    EXPECT_THROW(mapAtJobs(Jobs, 8,
                           [](size_t) {
                             parallelMap(2, [](size_t I) { return I; });
                           }),
                 std::logic_error)
        << "jobs " << Jobs;
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  setJobs(4);
  std::vector<size_t> Out = parallelMap(257, [](size_t I) { return I * I; });
  ASSERT_EQ(Out.size(), 257u);
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], I * I);
  setJobs(0);
}

TEST(ThreadPoolTest, JobsConfigurationResolvesOverrides) {
  setJobs(3);
  EXPECT_EQ(currentJobs(), 3);
  setJobs(1000);
  EXPECT_EQ(currentJobs(), 256);
  setJobs(0);
  EXPECT_GE(currentJobs(), 1);
  EXPECT_GE(hardwareJobs(), 1);
}

//===----------------------------------------------------------------------===//
// Pipeline determinism: jobs=1 vs jobs=8.
//===----------------------------------------------------------------------===//

/// A workload that spawns real threads so trace captures carry several
/// per-thread buffers — the case where the parallel trace post-processing
/// actually fans out and the thread-order merge is load-bearing.
const char *kSpawnWorkload = R"(
class State {
  static int ready = 0;
  static int done = 0;
  static int sum = 0;
}
class ArrayWorker {
  static void run() {
    while (State.ready == 0) { Sys.yield(); }
    int[] xs = new int[32];
    for (int i = 0; i < xs.length; i = i + 1) { xs[i] = i * 3; }
    int t = 0;
    for (int i = 0; i < xs.length; i = i + 1) { t = t + xs[i]; }
    State.sum = State.sum + t;
    State.done = State.done + 1;
  }
}
class StringWorker {
  static String label = "worker";
  static void run() {
    while (State.ready == 0) { Sys.yield(); }
    String s = label;
    for (int i = 0; i < 6; i = i + 1) { s = s + i; }
    State.sum = State.sum + 7;
    State.done = State.done + 1;
  }
}
class Main {
  static int main() {
    Sys.spawn("ArrayWorker.run");
    Sys.spawn("StringWorker.run");
    Sys.spawn("ArrayWorker.run");
    State.ready = 1;
    while (State.done < 3) { Sys.yield(); }
    Sys.print("sum: " + State.sum);
    return State.sum;
  }
}
)";

/// Everything the pipeline emits that must not depend on the worker count.
struct PipelineArtifacts {
  std::string CuCsv, MethodCsv, ClusterCsv, HeapIncCsv, HeapStructCsv,
      HeapPathCsv, BlocksCsv;
  std::vector<uint64_t> IncIds, StructIds, PathIds;
  uint64_t InlineFingerprint = 0;
  std::vector<uint8_t> ImageBytes;
  /// The same build with --split hotcold: decisions are a pure function
  /// of the merged block profile, so these must be worker-count-invariant
  /// too.
  uint64_t SplitFingerprint = 0;
  std::vector<uint8_t> SplitImageBytes;
  /// Fleet aggregation at the same worker count: the merged profile and
  /// the image it drives must be worker-count-invariant too.
  std::string MergedCsv;
  std::vector<uint8_t> MergedImageBytes;
  size_t TraceThreads = 0;
};

PipelineArtifacts runPipeline(int Jobs) {
  setJobs(Jobs);
  PipelineArtifacts Art;

  Program P;
  std::vector<std::string> Errors;
  if (!compileSources({kSpawnWorkload}, P, Errors)) {
    for (const std::string &E : Errors)
      ADD_FAILURE() << E;
    return Art;
  }

  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(P, ProfCfg, RunConfig());
  Art.CuCsv = Prof.Cu.toCsv();
  Art.MethodCsv = Prof.Method.toCsv();
  Art.ClusterCsv = Prof.Cluster.toCsv();
  Art.HeapIncCsv = Prof.IncrementalId.toCsv();
  Art.HeapStructCsv = Prof.StructuralHash.toCsv();
  Art.HeapPathCsv = Prof.HeapPath.toCsv();

  BuildConfig Opt;
  Opt.Seed = 7;
  Opt.CodeOrder = CodeStrategy::CuOrder;
  Opt.CodeProf = &Prof.Cu;
  Opt.UseHeapOrder = true;
  Opt.HeapOrder = HeapStrategy::HeapPath;
  Opt.HeapProf = &Prof.HeapPath;
  NativeImage Img = buildNativeImage(P, Opt);
  EXPECT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);
  EXPECT_TRUE(Img.ProfileDiag.HeapProfileApplied);

  Art.IncIds = Img.Ids.IncrementalIds;
  Art.StructIds = Img.Ids.StructuralHashes;
  Art.PathIds = Img.Ids.HeapPathHashes;
  Art.InlineFingerprint = Img.code().InlineFingerprint;
  Art.ImageBytes = serializeImage(P, Img);
  Art.BlocksCsv = Prof.Blocks.toCsv();

  BuildConfig SplitCfg = Opt;
  SplitCfg.Split = SplitMode::HotCold;
  SplitCfg.BlockProf = &Prof.Blocks;
  NativeImage SplitImg = buildNativeImage(P, SplitCfg);
  EXPECT_FALSE(SplitImg.Built.Failed) << SplitImg.Built.FailureMessage;
  Art.SplitFingerprint = SplitImg.Split.DecisionFingerprint;
  Art.SplitImageBytes = serializeImage(P, SplitImg);

  // Fleet path: capture a 3-member set (one instrumented run each at the
  // same worker count), merge, and build from the merged profile.
  BuildConfig SetCfg = ProfCfg;
  SetCfg.ProfileGeneration = 100;
  std::vector<MemberProfile> Members =
      collectProfileSet(P, SetCfg, RunConfig(), {"a", "b", "c"});
  EXPECT_EQ(Members.size(), 3u);
  MergeResult MR = aggregateProfiles(Members);
  EXPECT_TRUE(MR.usable());
  Art.MergedCsv = MR.Profile.toCsv();
  BuildConfig MergedCfg = Opt;
  MergedCfg.CodeProf = nullptr;
  MergedCfg.CodeMembers = &Members;
  NativeImage MergedImg = buildNativeImage(P, MergedCfg);
  EXPECT_FALSE(MergedImg.Built.Failed) << MergedImg.Built.FailureMessage;
  EXPECT_TRUE(MergedImg.ProfileDiag.CodeProfileApplied);
  Art.MergedImageBytes = serializeImage(P, MergedImg);

  // Sanity: the profiling runs actually produced multi-thread traces and
  // nonempty profiles, otherwise this test exercises nothing.
  EXPECT_GT(Prof.Cu.Sigs.size(), 0u);
  EXPECT_GT(Prof.Method.Sigs.size(), 0u);
  EXPECT_GT(Prof.HeapPath.Ids.size(), 0u);
  return Art;
}

TEST(ParallelPipelineTest, JobsOneAndEightAreByteIdentical) {
  PipelineArtifacts One = runPipeline(1);
  PipelineArtifacts Eight = runPipeline(8);
  setJobs(0);

  EXPECT_EQ(One.CuCsv, Eight.CuCsv);
  EXPECT_EQ(One.MethodCsv, Eight.MethodCsv);
  EXPECT_EQ(One.ClusterCsv, Eight.ClusterCsv);
  EXPECT_EQ(One.HeapIncCsv, Eight.HeapIncCsv);
  EXPECT_EQ(One.HeapStructCsv, Eight.HeapStructCsv);
  EXPECT_EQ(One.HeapPathCsv, Eight.HeapPathCsv);
  EXPECT_EQ(One.IncIds, Eight.IncIds);
  EXPECT_EQ(One.StructIds, Eight.StructIds);
  EXPECT_EQ(One.PathIds, Eight.PathIds);
  EXPECT_EQ(One.InlineFingerprint, Eight.InlineFingerprint);
  EXPECT_EQ(One.ImageBytes, Eight.ImageBytes);
  EXPECT_EQ(One.BlocksCsv, Eight.BlocksCsv);
  EXPECT_EQ(One.SplitFingerprint, Eight.SplitFingerprint);
  EXPECT_EQ(One.SplitImageBytes, Eight.SplitImageBytes);
  EXPECT_EQ(One.MergedCsv, Eight.MergedCsv);
  EXPECT_EQ(One.MergedImageBytes, Eight.MergedImageBytes);
}

/// Sampled-capture analog of PipelineArtifacts: the capture itself (as
/// its cu profile CSV), the staggered member set, and the sampled-merged
/// image bytes.
struct SampledArtifacts {
  std::string CuCsv, MethodCsv;
  std::vector<std::string> MemberCsvs;
  std::vector<uint8_t> MergedImageBytes;
};

SampledArtifacts runSampledPipeline(int Jobs) {
  setJobs(Jobs);
  SampledArtifacts Art;

  Program P;
  std::vector<std::string> Errors;
  if (!compileSources({kSpawnWorkload}, P, Errors)) {
    for (const std::string &E : Errors)
      ADD_FAILURE() << E;
    return Art;
  }

  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  ProfCfg.ProfileCapture = CaptureKind::Sampled;
  ProfCfg.SamplePeriod = 512;
  CollectedProfiles Prof = collectProfiles(P, ProfCfg, RunConfig());
  EXPECT_GT(Prof.CuRun.SamplesTaken, 0u);
  Art.CuCsv = Prof.Cu.toCsv();
  Art.MethodCsv = Prof.Method.toCsv();

  BuildConfig SetCfg = ProfCfg;
  SetCfg.ProfileGeneration = 100;
  std::vector<MemberProfile> Members =
      collectProfileSet(P, SetCfg, RunConfig(), {"a", "b", "c"});
  EXPECT_EQ(Members.size(), 3u);
  for (const MemberProfile &M : Members)
    Art.MemberCsvs.push_back(M.Profile.toCsv());

  BuildConfig Opt;
  Opt.Seed = 7;
  Opt.CodeOrder = CodeStrategy::CuOrder;
  Opt.CodeMembers = &Members;
  NativeImage Img = buildNativeImage(P, Opt);
  EXPECT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);
  Art.MergedImageBytes = serializeImage(P, Img);
  return Art;
}

TEST(ParallelPipelineTest, SampledCaptureIsWorkerCountInvariant) {
  // The sample stream is driven by the sequential interpreter's model
  // clock, so the capture — and everything built from it — must be
  // byte-identical at any worker count.
  SampledArtifacts One = runSampledPipeline(1);
  for (int Jobs : {2, 5, 8}) {
    SampledArtifacts J = runSampledPipeline(Jobs);
    EXPECT_EQ(One.CuCsv, J.CuCsv) << "jobs=" << Jobs;
    EXPECT_EQ(One.MethodCsv, J.MethodCsv) << "jobs=" << Jobs;
    EXPECT_EQ(One.MemberCsvs, J.MemberCsvs) << "jobs=" << Jobs;
    EXPECT_EQ(One.MergedImageBytes, J.MergedImageBytes) << "jobs=" << Jobs;
  }
  setJobs(0);
}

TEST(ParallelPipelineTest, HugePageBuildsAreWorkerCountInvariant) {
  // The huge-page region is a sequential overlay on the final layout, so a
  // --huge-pages build (including its fold into the decision fingerprint)
  // must be byte-identical at any worker count.
  auto BuildHuge = [](int Jobs) {
    setJobs(Jobs);
    Program P;
    std::vector<std::string> Errors;
    EXPECT_TRUE(compileSources({kSpawnWorkload}, P, Errors));
    BuildConfig ProfCfg;
    ProfCfg.Seed = 1001;
    ProfCfg.Image.HugePages = 2;
    CollectedProfiles Prof = collectProfiles(P, ProfCfg, RunConfig());
    BuildConfig Opt;
    Opt.Seed = 7;
    Opt.CodeOrder = CodeStrategy::Cluster;
    Opt.CodeProf = &Prof.Cluster;
    Opt.Image.HugePages = 2;
    NativeImage Img = buildNativeImage(P, Opt);
    EXPECT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
    return std::make_pair(serializeImage(P, Img),
                          Img.Split.DecisionFingerprint);
  };
  auto One = BuildHuge(1);
  for (int Jobs : {2, 5, 8}) {
    auto J = BuildHuge(Jobs);
    EXPECT_EQ(One.first, J.first) << "jobs=" << Jobs;
    EXPECT_EQ(One.second, J.second) << "jobs=" << Jobs;
  }
  setJobs(0);
}

TEST(ParallelPipelineTest, WarmCacheBuildsMatchColdBuildsAtAnyJobs) {
  // runPipeline() compiles a fresh program, so its builds miss the build
  // cache. Rebuilding on a program whose cache was filled at jobs 1 must
  // give the same bytes at every worker count, and a run of the warm image
  // (a replay of the jobs-1 run) the same stats.
  setJobs(1);
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, P, Errors));
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(P, ProfCfg, RunConfig());
  BuildConfig Opt;
  Opt.Seed = 7;
  Opt.CodeOrder = CodeStrategy::CuOrder;
  Opt.CodeProf = &Prof.Cu;
  Opt.UseHeapOrder = true;
  Opt.HeapOrder = HeapStrategy::HeapPath;
  Opt.HeapProf = &Prof.HeapPath;
  NativeImage First = buildNativeImage(P, Opt);
  RunStats FirstRun = runImage(First, RunConfig());
  for (int Jobs : {1, 2, 5, 8}) {
    std::vector<uint8_t> Cold = runPipeline(Jobs).ImageBytes;
    setJobs(Jobs);
    NativeImage Warm = buildNativeImage(P, Opt);
    EXPECT_EQ(Warm.Base, First.Base) << "jobs=" << Jobs;
    EXPECT_EQ(serializeImage(P, Warm), Cold) << "jobs=" << Jobs;
    RunStats WarmRun = runImage(Warm, RunConfig());
    EXPECT_EQ(WarmRun.TimeNs, FirstRun.TimeNs) << "jobs=" << Jobs;
    EXPECT_EQ(WarmRun.Output, FirstRun.Output) << "jobs=" << Jobs;
  }
  setJobs(0);
}

TEST(ParallelPipelineTest, IntermediateJobCountsMatchToo) {
  // 1 vs 8 is the headline contract; 2 and 5 cover uneven chunk shapes
  // (5 workers over small ranges produce ragged final chunks).
  PipelineArtifacts One = runPipeline(1);
  for (int Jobs : {2, 5}) {
    PipelineArtifacts J = runPipeline(Jobs);
    EXPECT_EQ(One.ImageBytes, J.ImageBytes) << "jobs=" << Jobs;
    EXPECT_EQ(One.CuCsv, J.CuCsv) << "jobs=" << Jobs;
    EXPECT_EQ(One.ClusterCsv, J.ClusterCsv) << "jobs=" << Jobs;
    EXPECT_EQ(One.HeapPathCsv, J.HeapPathCsv) << "jobs=" << Jobs;
    EXPECT_EQ(One.SplitImageBytes, J.SplitImageBytes) << "jobs=" << Jobs;
    EXPECT_EQ(One.MergedCsv, J.MergedCsv) << "jobs=" << Jobs;
    EXPECT_EQ(One.MergedImageBytes, J.MergedImageBytes) << "jobs=" << Jobs;
  }
  setJobs(0);
}

TEST(ParallelPipelineTest, ConcurrentBuildsOfOneBaseShareItsHashMemo) {
  // Six threads build different layouts of one base at once. Two threads
  // each share a code order (cu, method) that no build has walked yet, so
  // they race on the first fill of its heap-path rows. Warm, the base was
  // made by an earlier build; cold, on a fresh program, all six race to
  // make it, and must still end up sharing one. Every image must equal the
  // same layout built alone on a fresh program.
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, P, Errors));
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(P, ProfCfg, RunConfig());

  std::vector<BuildConfig> Cfgs(6);
  for (BuildConfig &C : Cfgs)
    C.Seed = 7;
  Cfgs[1].CodeOrder = CodeStrategy::CuOrder;
  Cfgs[1].CodeProf = &Prof.Cu;
  Cfgs[2].UseHeapOrder = true;
  Cfgs[2].HeapOrder = HeapStrategy::StructuralHash;
  Cfgs[2].HeapProf = &Prof.StructuralHash;
  Cfgs[3] = Cfgs[1];
  Cfgs[3].UseHeapOrder = true;
  Cfgs[3].HeapOrder = HeapStrategy::HeapPath;
  Cfgs[3].HeapProf = &Prof.HeapPath;
  Cfgs[4].CodeOrder = CodeStrategy::MethodOrder;
  Cfgs[4].CodeProf = &Prof.Method;
  Cfgs[5] = Cfgs[4];
  Cfgs[5].UseHeapOrder = true;
  Cfgs[5].HeapOrder = HeapStrategy::HeapPath;
  Cfgs[5].HeapProf = &Prof.HeapPath;

  std::vector<IdTable> RefIds;
  std::vector<std::vector<uint8_t>> RefBytes;
  for (const BuildConfig &C : Cfgs) {
    Program Fresh;
    ASSERT_TRUE(compileSources({kSpawnWorkload}, Fresh, Errors));
    NativeImage Img = buildNativeImage(Fresh, C);
    ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
    RefIds.push_back(Img.Ids);
    RefBytes.push_back(serializeImage(Fresh, Img));
  }

  auto BuildAll = [&](Program &Q) {
    std::vector<NativeImage> Imgs(Cfgs.size());
    std::vector<std::thread> Threads;
    for (size_t I = 0; I < Cfgs.size(); ++I)
      Threads.emplace_back(
          [&, I] { Imgs[I] = buildNativeImage(Q, Cfgs[I]); });
    for (std::thread &T : Threads)
      T.join();
    return Imgs;
  };
  auto ExpectShared = [&](Program &Q, const std::vector<NativeImage> &Imgs,
                          const std::shared_ptr<const ImageBase> &Base,
                          const char *Ctx) {
    ASSERT_TRUE(Base && Base->Cached) << Ctx;
    for (size_t I = 0; I < Cfgs.size(); ++I) {
      EXPECT_EQ(Imgs[I].Base, Base) << Ctx << ", variant " << I;
      EXPECT_EQ(Imgs[I].Ids.IncrementalIds, RefIds[I].IncrementalIds)
          << Ctx << ", variant " << I;
      EXPECT_EQ(Imgs[I].Ids.StructuralHashes, RefIds[I].StructuralHashes)
          << Ctx << ", variant " << I;
      EXPECT_EQ(Imgs[I].Ids.HeapPathHashes, RefIds[I].HeapPathHashes)
          << Ctx << ", variant " << I;
      EXPECT_EQ(serializeImage(Q, Imgs[I]), RefBytes[I])
          << Ctx << ", variant " << I;
    }
  };

  std::shared_ptr<const ImageBase> Base = buildNativeImage(P, Cfgs[0]).Base;
  ExpectShared(P, BuildAll(P), Base, "warm");

  Program Cold;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, Cold, Errors));
  // The metadata class is the one edit a first build makes to the program;
  // make it here, on one thread, so the builds below only read it.
  ensureClassMetaClass(Cold);
  std::vector<NativeImage> Imgs = BuildAll(Cold);
  ExpectShared(Cold, Imgs, Imgs[0].Base, "cold");
}

TEST(ParallelPipelineTest, ConcurrentIdTablesFillOneEmptyMemo) {
  // Six threads take the code heap-path rows of one base's snapshots,
  // walked in three code orders and PEA fingerprints, from one empty memo:
  // pairs race on the first fill of an order's rows. Each identity table
  // must equal one computed without the base's rows.
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 7;
  NativeImage Img = buildNativeImage(P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  const ImageBase &Base = *Img.Base;
  const Heap &H = *Img.Built.BuildHeap;
  int32_t NumCus = int32_t(Base.Code.CUs.size());
  std::vector<SnapshotConfig> Orders(3);
  for (int32_t Cu = NumCus; Cu-- > 0;)
    Orders[1].CuOrder.push_back(Cu);
  for (int32_t Start : {1, 0})
    for (int32_t Cu = Start; Cu < NumCus; Cu += 2)
      Orders[2].CuOrder.push_back(Cu);
  std::vector<HeapSnapshot> Snaps;
  std::vector<IdTable> Refs;
  for (size_t I = 0; I < Orders.size(); ++I) {
    Orders[I].PeaFingerprint = I + 1;
    Snaps.push_back(walkSnapshotPlan(Base.Plan, H, Orders[I]));
    Refs.push_back(computeIdTable(P, H, Snaps.back()));
  }

  CodePathMemo Memo;
  std::vector<IdTable> Got(6);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Got.size(); ++I)
    Threads.emplace_back([&, I] {
      const HeapSnapshot &Snap = Snaps[I % Snaps.size()];
      Got[I] = idTableFromBase(Snap, Base.IdRows, *Memo.rowsOf(P, H, Snap));
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Memo.Orders.size(), Orders.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    const IdTable &Ref = Refs[I % Refs.size()];
    EXPECT_EQ(Got[I].IncrementalIds, Ref.IncrementalIds) << "thread " << I;
    EXPECT_EQ(Got[I].StructuralHashes, Ref.StructuralHashes) << "thread " << I;
    EXPECT_EQ(Got[I].HeapPathHashes, Ref.HeapPathHashes) << "thread " << I;
  }
}

TEST(ParallelPipelineTest, ConcurrentFingerprintsOfOneProgramAgree) {
  // Four threads fingerprint and build one freshly compiled program whose
  // fingerprint memo is still empty: several may hash it, each publishes
  // the same value, and every image equals a build on a program of its
  // own (under -DNIMG_SANITIZE=thread an unguarded memo shows as a race).
  std::vector<std::string> Errors;
  BuildConfig Cfg;
  Cfg.Seed = 7;
  Program Ref;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, Ref, Errors));
  NativeImage RefImg = buildNativeImage(Ref, Cfg);
  ASSERT_FALSE(RefImg.Built.Failed) << RefImg.Built.FailureMessage;
  uint64_t RefFp = programFingerprint(Ref);
  std::vector<uint8_t> RefBytes = serializeImage(Ref, RefImg);

  Program P;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, P, Errors));
  // The metadata class is the one edit a first build makes; make it here,
  // on one thread, so the threads below only read the program.
  ensureClassMetaClass(P);
  std::vector<uint64_t> Fps(4);
  std::vector<std::vector<uint8_t>> Bytes(Fps.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Fps.size(); ++I)
    Threads.emplace_back([&, I] {
      Fps[I] = programFingerprint(P);
      Bytes[I] = serializeImage(P, buildNativeImage(P, Cfg));
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < Fps.size(); ++I) {
    EXPECT_EQ(Fps[I], RefFp) << "thread " << I;
    EXPECT_EQ(Bytes[I], RefBytes) << "thread " << I;
  }
  EXPECT_EQ(programFingerprint(P), RefFp);
}

TEST(ParallelPipelineTest, ConcurrentProfileCollectionsOwnTheirPathCaches) {
  // The path-graph cache has no lock: each collectProfiles makes its own
  // and uses it on one thread. Four collections on four threads at once
  // must match a serial one byte for byte (under -DNIMG_SANITIZE=thread
  // a shared cache would show up as a race).
  std::vector<std::string> Errors;
  BuildConfig Cfg;
  Cfg.Seed = 1001;
  auto Csvs = [](const CollectedProfiles &C) {
    return C.Cu.toCsv() + C.Method.toCsv() + C.Cluster.toCsv() +
           C.Blocks.toCsv() + C.HeapPath.toCsv();
  };
  Program Ref;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, Ref, Errors));
  CollectedProfiles RefProf = collectProfiles(Ref, Cfg, RunConfig());
  ASSERT_FALSE(RefProf.Method.Sigs.empty());
  ASSERT_FALSE(RefProf.HeapPath.Ids.empty());
  std::string Expected = Csvs(RefProf);

  std::vector<Program> Programs(4);
  for (Program &P : Programs)
    ASSERT_TRUE(compileSources({kSpawnWorkload}, P, Errors));
  std::vector<std::string> Got(Programs.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Programs.size(); ++I)
    Threads.emplace_back([&, I] {
      Got[I] = Csvs(collectProfiles(Programs[I], Cfg, RunConfig()));
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(Got[I], Expected) << "thread " << I;
}

TEST(ParallelPipelineTest, ConcurrentRunsOfOneProgramShareItsDecodedCode) {
  // Four images of one program, read back from their files (a loaded image
  // always interprets), run twice each from parallelMap on four workers.
  // The program is edited first, so the runs find the interpreter's
  // decoded-code memo stale: several decode it, one publishes, and every
  // run reads methods another run may have decoded (under
  // -DNIMG_SANITIZE=thread an unguarded memo or a method read without
  // synchronizing with its publication shows as a race). Each run must
  // equal its serial run, field for field.
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P =
      compileBenchmark(awfyBenchmark("Richards"), Errors);
  ASSERT_TRUE(P) << (Errors.empty() ? "" : Errors[0]);
  std::vector<NativeImage> Loaded(4);
  for (size_t I = 0; I < Loaded.size(); ++I) {
    BuildConfig Cfg;
    Cfg.Seed = 3 + I;
    NativeImage Img = buildNativeImage(*P, Cfg);
    ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
    std::string Error;
    ASSERT_TRUE(deserializeImage(*P, serializeImage(*P, Img), Loaded[I], Error))
        << Error;
  }
  RunConfig RC;
  RC.RecordTouches = true;
  std::vector<RunStats> Serial;
  for (const NativeImage &Img : Loaded)
    Serial.push_back(runImage(Img, RC));
  ASSERT_FALSE(Serial[0].Trapped) << Serial[0].TrapMessage;
  ASSERT_GT(Serial[0].Instructions, 0u);

  (void)P->method(P->MainMethod); // An edit handle: bumps the version.
  std::vector<RunStats> Concurrent(2 * Loaded.size());
  mapAtJobs(4, Concurrent.size(), [&](size_t I) {
    Concurrent[I] = runImage(Loaded[I % Loaded.size()], RC);
  });
  for (size_t I = 0; I < Concurrent.size(); ++I)
    expectSameRun(Concurrent[I], Serial[I % Loaded.size()],
                  "run " + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// The evaluation fan-out: parallelMap's one call site, over benchmarks.
//===----------------------------------------------------------------------===//

/// Three small AWFY programs and one microservice.
std::vector<BenchmarkSpec> evalSpecs() {
  return {awfyBenchmark("Bounce"), awfyBenchmark("Sieve"),
          awfyBenchmark("Towers"), microserviceBenchmark("micronaut")};
}

const std::vector<SplitMode> BothSeries = {SplitMode::None,
                                           SplitMode::HotCold};

EvalOptions oneSeed() {
  EvalOptions Opts;
  Opts.Seeds = 1;
  return Opts;
}

/// The two-series evaluation of evalSpecs() on one job, computed once.
const std::vector<std::vector<BenchmarkEval>> &serialEvaluation() {
  static const std::vector<std::vector<BenchmarkEval>> Evals = [] {
    setJobs(1);
    auto Out = evaluateSuite(evalSpecs(), BothSeries, oneSeed());
    setJobs(0);
    return Out;
  }();
  return Evals;
}

TEST(EvaluationFanOut, FourJobsEqualOneJobExactly) {
  const std::vector<std::vector<BenchmarkEval>> &One = serialEvaluation();
  setJobs(4);
  std::vector<std::vector<BenchmarkEval>> Four =
      evaluateSuite(evalSpecs(), BothSeries, oneSeed());
  setJobs(0);
  ASSERT_EQ(Four.size(), 2u);
  for (size_t S = 0; S < Four.size(); ++S) {
    ASSERT_EQ(Four[S].size(), evalSpecs().size());
    for (size_t B = 0; B < Four[S].size(); ++B) {
      EXPECT_EQ(Four[S][B].Benchmark, evalSpecs()[B].Name);
      EXPECT_EQ(Four[S][B].Variants.size(), std::size(PaperVariants) - 1);
      // Every Stat, factor and overhead, compared exactly.
      EXPECT_TRUE(Four[S][B] == One[S][B])
          << "series " << S << " " << Four[S][B].Benchmark;
    }
  }
  EXPECT_TRUE(One[0][3].Microservice);
}

TEST(EvaluationFanOut, SeriesEqualSeparateCalls) {
  // One compile and one profile serve both series: the split series must
  // equal a call that evaluates it alone, and so must the plain one.
  const std::vector<std::vector<BenchmarkEval>> &Both = serialEvaluation();
  setJobs(4);
  std::vector<std::vector<BenchmarkEval>> Plain =
      evaluateSuite(evalSpecs(), {SplitMode::None}, oneSeed());
  std::vector<std::vector<BenchmarkEval>> Split =
      evaluateSuite(evalSpecs(), {SplitMode::HotCold}, oneSeed());
  setJobs(0);
  ASSERT_EQ(Plain.size(), 1u);
  ASSERT_EQ(Split.size(), 1u);
  EXPECT_TRUE(Plain[0] == Both[0]);
  EXPECT_TRUE(Split[0] == Both[1]);
  // The series differ, or the oracle compares nothing.
  EXPECT_FALSE(Both[0] == Both[1]);
}

#ifndef NIMG_OBS_DISABLED
TEST(EvaluationFanOut, ProfilesEachBenchmarkOncePerCall) {
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  obs::Counter &Collects = R.counter("nimg.profile.collect.count");
  obs::Counter &Maps = R.counter("nimg.parallel.for.count");
  obs::Counter &Items = R.counter("nimg.parallel.evaluate.items");
  uint64_t Before = Collects.value(), MapsBefore = Maps.value(),
           ItemsBefore = Items.value();
  setJobs(4);
  evaluateSuite(evalSpecs(), BothSeries, oneSeed());
  setJobs(0);
  EXPECT_EQ(Collects.value() - Before, evalSpecs().size());
  // One parallelMap over the benchmarks, whatever the series count.
  EXPECT_EQ(Maps.value() - MapsBefore, 1u);
  EXPECT_EQ(Items.value() - ItemsBefore, evalSpecs().size());
}
#endif

} // namespace
