//===- ThreadPool.cpp - Deterministic fixed-size thread pool ----------------===//

#include "src/support/ThreadPool.h"

#include "src/obs/Metrics.h"
#include "src/obs/SpanTracer.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

using namespace nimg;

namespace {

/// Chunks outnumber workers by this factor so uneven chunk costs still
/// balance (a worker that drew a cheap chunk pulls another one).
constexpr size_t OversubFactor = 4;

thread_local bool InParallelTask = false;

struct ParallelRegionGuard {
  ParallelRegionGuard() { InParallelTask = true; }
  ~ParallelRegionGuard() { InParallelTask = false; }
};

} // namespace

/// One parallelFor invocation. Heap-allocated and shared with the workers
/// so a straggler waking after the batch completed only ever touches this
/// object, never the state of a newer batch.
struct ThreadPool::Batch {
  const ChunkFn *Fn = nullptr;
  const char *Stage = "";
  size_t N = 0;
  size_t ChunkSize = 1;
  size_t NumChunks = 0;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Done{0};

  std::mutex Mu; // Guards Errors / Completed.
  std::condition_variable DoneCv;
  bool Completed = false;
  /// (chunk index, exception) of every throwing chunk; the lowest chunk
  /// index is rethrown so the surfaced error is scheduling-independent.
  std::vector<std::pair<size_t, std::exception_ptr>> Errors;
};

ThreadPool::ThreadPool(int Jobs) : NumJobs(std::max(1, Jobs)) {
  Workers.reserve(size_t(NumJobs - 1));
  for (int I = 1; I < NumJobs; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> G(Mu);
    Stop = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

bool ThreadPool::inParallelRegion() { return InParallelTask; }

void ThreadPool::runOneChunk(Batch &B, size_t Chunk) {
  size_t Begin = Chunk * B.ChunkSize;
  size_t End = std::min(Begin + B.ChunkSize, B.N);
  NIMG_SPAN("parallel",
            std::string(B.Stage) + " chunk " + std::to_string(Chunk));
  (*B.Fn)(Begin, End, Chunk);
}

void ThreadPool::runChunks(Batch &B) {
  ParallelRegionGuard Guard;
  while (true) {
    size_t C = B.Next.fetch_add(1, std::memory_order_relaxed);
    if (C >= B.NumChunks)
      return;
    try {
      runOneChunk(B, C);
    } catch (...) {
      std::lock_guard<std::mutex> G(B.Mu);
      B.Errors.emplace_back(C, std::current_exception());
    }
    if (B.Done.fetch_add(1, std::memory_order_acq_rel) + 1 == B.NumChunks) {
      std::lock_guard<std::mutex> G(B.Mu);
      B.Completed = true;
      B.DoneCv.notify_all();
    }
  }
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  uint64_t Seen = 0;
  while (true) {
    WorkCv.wait(L, [&] { return Stop || Gen != Seen; });
    if (Stop)
      return;
    Seen = Gen;
    std::shared_ptr<Batch> B = Current;
    L.unlock();
    if (B)
      runChunks(*B);
    L.lock();
  }
}

void ThreadPool::parallelFor(size_t N, size_t MinChunk, const char *Stage,
                             const ChunkFn &Fn) {
  if (N == 0)
    return;
  if (InParallelTask)
    throw std::logic_error(
        "nested ThreadPool::parallelFor from inside a parallel task");
  if (MinChunk == 0)
    MinChunk = 1;

  size_t WantChunks = size_t(NumJobs) * OversubFactor;
  size_t ChunkSize = std::max(MinChunk, (N + WantChunks - 1) / WantChunks);
  size_t NumChunks = (N + ChunkSize - 1) / ChunkSize;

  NIMG_COUNTER_ADD("nimg.parallel.for.count", 1);
  NIMG_COUNTER_ADD_DYN(std::string("nimg.parallel.") + Stage + ".items", N);
  NIMG_COUNTER_ADD_DYN(std::string("nimg.parallel.") + Stage + ".chunks",
                       NumChunks);

  auto Shared = std::make_shared<Batch>();
  Shared->Fn = &Fn;
  Shared->Stage = Stage;
  Shared->N = N;
  Shared->ChunkSize = ChunkSize;
  Shared->NumChunks = NumChunks;

  // Inline execution: sequential pools, single-chunk batches. Zero thread
  // handoffs; exceptions propagate directly (first throwing chunk wins —
  // which is also the lowest index, matching the threaded contract).
  if (NumJobs == 1 || NumChunks == 1 || Workers.empty()) {
    NIMG_COUNTER_ADD("nimg.parallel.for.inline", 1);
    ParallelRegionGuard Guard;
    for (size_t C = 0; C < NumChunks; ++C)
      runOneChunk(*Shared, C);
    return;
  }

  {
    std::lock_guard<std::mutex> G(Mu);
    Current = Shared;
    ++Gen;
  }
  WorkCv.notify_all();

  runChunks(*Shared); // The caller is a worker too.
  {
    std::unique_lock<std::mutex> DL(Shared->Mu);
    Shared->DoneCv.wait(DL, [&] { return Shared->Completed; });
  }
  {
    std::lock_guard<std::mutex> G(Mu);
    if (Current == Shared)
      Current.reset();
  }
  if (!Shared->Errors.empty()) {
    auto It = std::min_element(
        Shared->Errors.begin(), Shared->Errors.end(),
        [](const auto &A, const auto &C) { return A.first < C.first; });
    std::rethrow_exception(It->second);
  }
}

//===----------------------------------------------------------------------===//
// Process-wide jobs configuration and shared pool.
//===----------------------------------------------------------------------===//

namespace {

struct PoolState {
  std::mutex Mu;
  std::unique_ptr<ThreadPool> Pool;
  int Requested = 0; // setJobs() override; 0 = env / hardware.
};

PoolState &poolState() {
  static PoolState S;
  return S;
}

int envJobs() {
  const char *E = std::getenv("NIMG_JOBS");
  if (!E || !*E)
    return 0;
  int V = std::atoi(E);
  return V > 0 ? V : 0;
}

int resolveJobs(int Requested) {
  if (Requested > 0)
    return std::min(Requested, 256);
  if (int E = envJobs())
    return std::min(E, 256);
  return hardwareJobs();
}

} // namespace

int nimg::hardwareJobs() {
  unsigned H = std::thread::hardware_concurrency();
  return H ? int(H) : 1;
}

int nimg::currentJobs() {
  PoolState &S = poolState();
  std::lock_guard<std::mutex> G(S.Mu);
  if (S.Pool)
    return S.Pool->jobs();
  return resolveJobs(S.Requested);
}

void nimg::setJobs(int Jobs) {
  PoolState &S = poolState();
  std::lock_guard<std::mutex> G(S.Mu);
  S.Requested = Jobs > 0 ? Jobs : 0;
  S.Pool.reset(); // Recreated lazily with the new count.
}

ThreadPool &nimg::sharedPool() {
  PoolState &S = poolState();
  std::lock_guard<std::mutex> G(S.Mu);
  if (!S.Pool) {
    S.Pool = std::make_unique<ThreadPool>(resolveJobs(S.Requested));
    NIMG_GAUGE_SET("nimg.parallel.jobs", int64_t(S.Pool->jobs()));
  }
  return *S.Pool;
}
