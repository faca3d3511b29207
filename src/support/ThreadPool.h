//===- ThreadPool.h - Deterministic fixed-size thread pool ------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fan-out substrate of the evaluation engine (DESIGN.md § 10). A
/// ThreadPool owns a fixed set of workers; parallelFor() splits an index
/// range [0, N) into contiguous chunks that workers (and the calling
/// thread) pull from an atomic cursor. Which worker runs which chunk is
/// scheduling-dependent, but chunk *boundaries* are a pure function of
/// (N, MinChunk, jobs) and every chunk writes only its own output slots —
/// the caller then merges per-chunk results at an ordered join point, so
/// results are byte-identical for any worker count. Its one caller is
/// evaluateSuite (src/core/Evaluation.h), which fans out over benchmarks.
///
/// Contracts:
///  - One job (or a single chunk) executes inline on the caller with zero
///    thread handoffs — the sequential path is literally the same code.
///  - A task exception is captured and rethrown from parallelFor() on the
///    caller; when several chunks throw, the lowest chunk index wins, so
///    the surfaced error does not depend on scheduling. Inline execution
///    stops at the first throwing chunk; threaded execution still drains
///    the remaining chunks (outputs are discarded by the throw).
///  - Nested use from inside a task throws std::logic_error: the pool is
///    fixed-size and a blocked worker waiting on its own pool deadlocks.
///
/// The process-wide worker count comes from, in priority order: setJobs(),
/// the NIMG_JOBS environment variable, and
/// std::thread::hardware_concurrency(). Callers reach the pool through
/// sharedPool().
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_SUPPORT_THREADPOOL_H
#define NIMG_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nimg {

class ThreadPool {
public:
  /// Chunk body: processes indices [Begin, End); Chunk is the chunk index
  /// (chunk 0 covers [0, ChunkSize), etc.).
  using ChunkFn = std::function<void(size_t Begin, size_t End, size_t Chunk)>;

  /// Spawns Jobs - 1 worker threads (the caller is the Jobs-th worker).
  /// Jobs < 1 is clamped to 1; a 1-job pool spawns no threads at all.
  explicit ThreadPool(int Jobs);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int jobs() const { return NumJobs; }

  /// Runs \p Fn over [0, N) in chunks of at least \p MinChunk indices.
  /// Blocks until every chunk completed. \p Stage names the work for the
  /// per-stage nimg.parallel.<stage>.* counters and worker-chunk spans.
  void parallelFor(size_t N, size_t MinChunk, const char *Stage,
                   const ChunkFn &Fn);

  /// Whether the calling thread is currently inside a parallelFor task (of
  /// any pool, including the inline jobs=1 execution).
  static bool inParallelRegion();

private:
  struct Batch;

  void workerLoop();
  void runChunks(Batch &B);
  static void runOneChunk(Batch &B, size_t Chunk);

  int NumJobs;
  std::vector<std::thread> Workers;

  std::mutex Mu; // Guards Current / Gen / Stop.
  std::condition_variable WorkCv;
  std::shared_ptr<Batch> Current;
  uint64_t Gen = 0;
  bool Stop = false;
};

/// max(1, hardware_concurrency).
int hardwareJobs();

/// The worker count the next sharedPool() use will have (or the live
/// pool's count): setJobs() override, else NIMG_JOBS, else hardwareJobs().
int currentJobs();

/// Overrides the shared pool's worker count; 0 resets to the
/// NIMG_JOBS / hardware default. Destroys the current shared pool, so call
/// only between pipeline stages, never from inside parallel work.
void setJobs(int Jobs);

/// Lazily constructed process-wide pool with currentJobs() workers.
ThreadPool &sharedPool();

/// Maps [0, N) through \p F on the shared pool into a vector in index
/// order — the ordered-merge primitive: Out[I] = F(I) regardless of which
/// worker computed it.
template <typename Fn>
auto parallelMap(size_t N, size_t MinChunk, const char *Stage, Fn F)
    -> std::vector<std::invoke_result_t<Fn &, size_t>> {
  using R = std::invoke_result_t<Fn &, size_t>;
  std::vector<R> Out(N);
  sharedPool().parallelFor(N, MinChunk, Stage,
                           [&](size_t Begin, size_t End, size_t) {
                             for (size_t I = Begin; I < End; ++I)
                               Out[I] = F(I);
                           });
  return Out;
}

} // namespace nimg

#endif // NIMG_SUPPORT_THREADPOOL_H
