//===- ThreadPool.h - Per-call ordered parallel map -------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelMap, the fan-out of evaluateSuite (DESIGN.md § 10). Each call
/// starts min(currentJobs(), N) - 1 threads that, with the caller, take
/// indices from one atomic cursor into Out[I] = F(I) and are joined, so the
/// result is the same at any worker count; one job or N <= 1 runs on the
/// caller alone. Indices go out in increasing order and none after a throw,
/// so the exception rethrown on the caller is the lowest throwing index's.
/// parallelMap from inside F throws std::logic_error: nested calls would
/// start jobs^2 threads.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_SUPPORT_THREADPOOL_H
#define NIMG_SUPPORT_THREADPOOL_H

#include <functional>
#include <type_traits>
#include <vector>

namespace nimg {

/// max(1, hardware_concurrency).
int hardwareJobs();

/// The worker count of the next parallelMap: the setJobs() override, else
/// NIMG_JOBS (either capped at 256), else hardwareJobs().
int currentJobs();

/// Overrides the worker count; 0 resets to the NIMG_JOBS / hardware default.
void setJobs(int Jobs);

namespace detail {
/// parallelMap's untyped core: runs Body(I) for every I in [0, N).
void forEachIndex(size_t N, const std::function<void(size_t)> &Body);
} // namespace detail

/// Maps [0, N) through \p F into a vector in index order.
template <typename Fn>
auto parallelMap(size_t N, Fn F)
    -> std::vector<std::invoke_result_t<Fn &, size_t>> {
  std::vector<std::invoke_result_t<Fn &, size_t>> Out(N);
  detail::forEachIndex(N, [&](size_t I) { Out[I] = F(I); });
  return Out;
}

} // namespace nimg

#endif // NIMG_SUPPORT_THREADPOOL_H
