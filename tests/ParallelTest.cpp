//===- ParallelTest.cpp - Thread pool and pipeline determinism --------------===//
//
// Unit tests for the deterministic thread pool (chunking, exception
// propagation, nested-use rejection), its one stage — evaluateSuite's
// fan-out over benchmarks, which must give the same evaluation at any
// worker count — and the pipeline's determinism: profiles, identity
// tables, and image bytes must not depend on the worker count, nor on
// other threads building at the same time. This binary carries the "tsan"
// ctest label so a -DNIMG_SANITIZE=thread build can run it alone.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/core/Evaluation.h"
#include "src/heap/BuildHeap.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/obs/Metrics.h"
#include "src/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace nimg;

namespace {

//===----------------------------------------------------------------------===//
// Pool unit tests.
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(103);
  Pool.parallelFor(Hits.size(), 1, "cover",
                   [&](size_t Begin, size_t End, size_t) {
                     for (size_t I = Begin; I < End; ++I)
                       Hits[I].fetch_add(1);
                   });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  Pool.parallelFor(0, 1, "empty",
                   [&](size_t, size_t, size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ThreadPoolTest, SingleJobRunsInlineInsideParallelRegion) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1);
  EXPECT_FALSE(ThreadPool::inParallelRegion());
  bool SawRegion = false;
  Pool.parallelFor(4, 1, "inline", [&](size_t, size_t, size_t) {
    SawRegion = ThreadPool::inParallelRegion();
  });
  EXPECT_TRUE(SawRegion);
  EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(ThreadPoolTest, ExceptionPropagatesFromInlineExecution) {
  ThreadPool Pool(1);
  EXPECT_THROW(Pool.parallelFor(8, 1, "throwing",
                                [](size_t, size_t, size_t) {
                                  throw std::runtime_error("task failed");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromWorkers) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(64, 1, "throwing",
                                [](size_t, size_t, size_t Chunk) {
                                  if (Chunk % 2 == 1)
                                    throw std::runtime_error("task failed");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, LowestChunkIndexExceptionWins) {
  // Several chunks throw; which worker ran which chunk is scheduling
  // noise, but the rethrown error must always come from the lowest chunk.
  ThreadPool Pool(4);
  for (int Round = 0; Round < 8; ++Round) {
    try {
      Pool.parallelFor(32, 1, "throwing",
                       [](size_t, size_t, size_t Chunk) {
                         if (Chunk >= 3)
                           throw std::runtime_error("chunk " +
                                                    std::to_string(Chunk));
                       });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "chunk 3");
    }
  }
}

TEST(ThreadPoolTest, NestedUseIsRejected) {
  ThreadPool Pool(2);
  EXPECT_THROW(Pool.parallelFor(8, 1, "outer",
                                [&](size_t, size_t, size_t) {
                                  Pool.parallelFor(
                                      2, 1, "inner",
                                      [](size_t, size_t, size_t) {});
                                }),
               std::logic_error);
  // And on the inline path too: a 1-job pool still flags the region.
  ThreadPool Inline(1);
  EXPECT_THROW(Inline.parallelFor(2, 1, "outer",
                                  [&](size_t, size_t, size_t) {
                                    Inline.parallelFor(
                                        2, 1, "inner",
                                        [](size_t, size_t, size_t) {});
                                  }),
               std::logic_error);
}

TEST(ThreadPoolTest, MinChunkBoundsChunkGranularity) {
  ThreadPool Pool(4);
  std::mutex Mu;
  std::vector<std::pair<size_t, size_t>> Ranges;
  Pool.parallelFor(100, 40, "coarse", [&](size_t Begin, size_t End, size_t) {
    std::lock_guard<std::mutex> G(Mu);
    Ranges.emplace_back(Begin, End);
  });
  // ceil(100/40) = 3 chunks; all but the last span exactly MinChunk.
  EXPECT_EQ(Ranges.size(), 3u);
  size_t Total = 0;
  for (auto [Begin, End] : Ranges) {
    EXPECT_LT(Begin, End);
    Total += End - Begin;
  }
  EXPECT_EQ(Total, 100u);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  setJobs(4);
  std::vector<size_t> Out = parallelMap(
      257, 8, "map", [](size_t I) { return I * I; });
  ASSERT_EQ(Out.size(), 257u);
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], I * I);
  setJobs(0);
}

TEST(ThreadPoolTest, JobsConfigurationResolvesOverrides) {
  setJobs(3);
  EXPECT_EQ(currentJobs(), 3);
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
  /// Fleet aggregation rides on the same pool: the merged profile and the
  /// image it drives must be worker-count-invariant too.
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

  // Fleet path: capture a 3-member set (one instrumented run each under
  // the same pool), merge, and build from the merged profile.
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
  // Multi-size packing is a sequential post-pass over the final clusters,
  // so a --huge-pages build (including its PackFingerprint fold into the
  // decision fingerprint) must be byte-identical at any worker count.
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
  // Four threads build different layouts of one cached base at once; the
  // first to take the base's structural-hash memo refills it (it was left
  // at another depth), the others read it. Every image must equal the
  // same layout built alone on a fresh program.
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kSpawnWorkload}, P, Errors));
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(P, ProfCfg, RunConfig());

  std::vector<BuildConfig> Cfgs(4);
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

  BuildConfig Warm = Cfgs[0];
  Warm.StructuralMaxDepth = 3;
  std::shared_ptr<const ImageBase> Base = buildNativeImage(P, Warm).Base;
  ASSERT_TRUE(Base->Cached);

  std::vector<NativeImage> Imgs(Cfgs.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Cfgs.size(); ++I)
    Threads.emplace_back(
        [&, I] { Imgs[I] = buildNativeImage(P, Cfgs[I]); });
  for (std::thread &T : Threads)
    T.join();

  for (size_t I = 0; I < Cfgs.size(); ++I) {
    EXPECT_EQ(Imgs[I].Base, Base) << "variant " << I;
    EXPECT_EQ(Imgs[I].Ids.IncrementalIds, RefIds[I].IncrementalIds)
        << "variant " << I;
    EXPECT_EQ(Imgs[I].Ids.StructuralHashes, RefIds[I].StructuralHashes)
        << "variant " << I;
    EXPECT_EQ(Imgs[I].Ids.HeapPathHashes, RefIds[I].HeapPathHashes)
        << "variant " << I;
    EXPECT_EQ(serializeImage(P, Imgs[I]), RefBytes[I]) << "variant " << I;
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

//===----------------------------------------------------------------------===//
// The evaluation fan-out: one pool stage over benchmarks.
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
  obs::Counter &Collects =
      obs::MetricsRegistry::global().counter("nimg.profile.collect.count");
  uint64_t Before = Collects.value();
  setJobs(4);
  evaluateSuite(evalSpecs(), BothSeries, oneSeed());
  setJobs(0);
  EXPECT_EQ(Collects.value() - Before, evalSpecs().size());
}
#endif

} // namespace
