//===- ThreadPool.cpp - Per-call ordered parallel map -----------------------===//

#include "src/support/ThreadPool.h"

#include "src/obs/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

using namespace nimg;

static std::atomic<int> RequestedJobs{0}; // 0: NIMG_JOBS / hardware.
static thread_local bool InParallelTask = false;

int nimg::hardwareJobs() {
  unsigned H = std::thread::hardware_concurrency();
  return H ? int(H) : 1;
}

int nimg::currentJobs() {
  if (int R = RequestedJobs.load())
    return std::min(R, 256);
  const char *E = std::getenv("NIMG_JOBS");
  if (int V = E ? std::atoi(E) : 0; V > 0)
    return std::min(V, 256);
  return hardwareJobs();
}

void nimg::setJobs(int Jobs) {
  RequestedJobs.store(std::max(Jobs, 0));
}

void nimg::detail::forEachIndex(size_t N,
                                const std::function<void(size_t)> &Body) {
  if (InParallelTask)
    throw std::logic_error("nested parallelMap from inside a parallel task");
  int Jobs = currentJobs();
  NIMG_COUNTER_ADD("nimg.parallel.for.count", 1);
  NIMG_GAUGE_SET("nimg.parallel.jobs", int64_t(Jobs));

  std::atomic<size_t> Next{0};
  std::atomic<bool> Failed{false};
  std::vector<std::exception_ptr> Errors(N); // Each index writes its own.
  auto Work = [&] {
    InParallelTask = true;
    // Failed is read before an index is taken, so a taken index always runs.
    for (size_t I = 0; !Failed.load() && (I = Next.fetch_add(1)) < N;) {
      try {
        Body(I);
      } catch (...) {
        Errors[I] = std::current_exception();
        Failed.store(true);
      }
    }
    InParallelTask = false;
  };

  std::vector<std::thread> Workers;
  try {
    for (size_t T = 1; T < std::min(size_t(Jobs), N); ++T)
      Workers.emplace_back(Work);
  } catch (...) {
    // Fewer threads only slow the map down; the caller drains the cursor.
  }
  Work(); // The caller takes indices too; alone when jobs == 1 or N <= 1.
  for (std::thread &W : Workers)
    W.join();
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}
