//===- Workloads.h - Evaluation workloads ------------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation workloads, reimplemented in MiniJava (Sec. 7.1):
///
///  - the 14 "Are We Fast Yet?" benchmarks (micro: Bounce, List,
///    Mandelbrot, NBody, Permute, Queens, Sieve, Storage, Towers; macro:
///    CD, DeltaBlue, Havlak, Json, Richards), backed by a som-style core
///    library (Vector, Dictionary, Random) also written in MiniJava. The
///    macro benchmarks are reduced-but-structure-preserving ports (see
///    DESIGN.md);
///  - three synthetic microservice frameworks standing in for micronaut,
///    quarkus, and spring: generated framework-scale class sets with a DI
///    container, route registration, config resources, worker threads, and
///    a hello-world endpoint;
///  - a generated "runtime library" prelude linked into every workload.
///    Only a fraction of it executes, reproducing the conservative
///    points-to analysis's cold code and the metadata-dominated heap
///    snapshot (Sec. 7.2 reports ~4 % of snapshot objects accessed).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_WORKLOADS_WORKLOADS_H
#define NIMG_WORKLOADS_WORKLOADS_H

#include "src/ir/Program.h"

#include <memory>
#include <string>
#include <vector>

namespace nimg {

struct BenchmarkSpec {
  std::string Name;
  std::vector<std::string> Sources;
  bool Microservice = false;
  /// Embedded resources (name -> contents), included in the snapshot with
  /// reason "Resource".
  std::vector<std::pair<std::string, std::string>> Resources;
};

/// The som-style core library (Vector, Dictionary, Random, util classes).
std::string somLibrarySource();

/// The generated runtime-library prelude: \p Classes library classes plus
/// a Runtime.initialize() entry that the workloads call on startup.
std::string runtimePreludeSource(int Classes = 140);

/// Names of the 14 AWFY benchmarks, in the paper's order.
const std::vector<std::string> &awfyBenchmarkNames();

/// Builds the spec of one AWFY benchmark (asserts on unknown names).
BenchmarkSpec awfyBenchmark(const std::string &Name);

/// Names of the three microservice workloads.
const std::vector<std::string> &microserviceNames();

/// Builds the spec of one microservice hello-world workload.
BenchmarkSpec microserviceBenchmark(const std::string &Name);

/// A rung of the scale ladder: micronaut with \p Factor times each of its
/// generated class counts (controllers, services, repositories, workers
/// and the runtime-library prelude). x1 has 0.5 MiB of .text, x4 1.3 MiB,
/// x10 3.0 MiB and x25 7.3 MiB.
BenchmarkSpec scaleRung(int Factor);

/// Compiles a spec into a Program (registers resources too). Returns null
/// and fills \p Errors on failure.
std::unique_ptr<Program> compileBenchmark(const BenchmarkSpec &Spec,
                                          std::vector<std::string> &Errors);

} // namespace nimg

#endif // NIMG_WORKLOADS_WORKLOADS_H
