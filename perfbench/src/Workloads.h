//===- Workloads.h - The benchmark's three workloads ------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is one nimage_cli command run at volume, driven through
/// the library's public functions:
///
///  - layout_sweep (`build` + `run`): one op builds one paper variant of one
///    program at one build seed and runs it cold. The shape of fig2/fig5.
///  - profile_capture (`profile`): one op captures a program's profiles,
///    round-trips them through the CSV interchange, captures and merges a
///    4-member sampled profile set, and builds + runs cu+heap path from the
///    parsed profiles.
///  - cold_start_storm (`run --image --fleet`): one op loads a serialized
///    image, runs it cold recording first touches, and sweeps the fleet
///    simulator over N = 1/10/100/1000 with an unlimited and a capped cache.
///
/// Inputs are generated from the --seed argument only (AWFY draw, build
/// seeds, fleet arrival seed). Every op checks its outputs against an
/// oracle and reports the first one that fails.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PERFBENCH_WORKLOADS_H
#define NIMG_PERFBENCH_WORKLOADS_H

#include "Spans.h"

#include "src/core/Builder.h"
#include "src/workloads/Workloads.h"

#include <memory>
#include <string>
#include <vector>

namespace bench {

enum class Kind { LayoutSweep, ProfileCapture, ColdStartStorm };

bool parseKind(const std::string &Name, Kind &Out);

/// One program of a workload and what set-up prepared for it.
struct Subject {
  nimg::BenchmarkSpec Spec;
  std::unique_ptr<nimg::Program> P;
  /// Captured in set-up by layout_sweep and cold_start_storm.
  nimg::CollectedProfiles Prof;
  bool HasProf = false;
  /// Cold run of the baseline image at the first build seed: the output
  /// oracle.
  nimg::RunStats Reference;
  /// cold_start_storm, per image (0 = baseline, 1 = cu+heap path): the
  /// serialized file, the cold run of the in-memory image it came from
  /// (with first touches), and the shared-cache cap below its working set.
  std::vector<uint8_t> File[2];
  nimg::RunStats Recorded[2];
  uint64_t CapPages[2] = {0, 0};
};

/// One op: a subject, a variant (index into the paper's variant table)
/// and a build-seed index.
struct Op {
  uint32_t Subject = 0;
  uint8_t Variant = 0;
  uint8_t Seed = 0;
};

/// The modeled-clock end-to-end metrics (geomeans over the subjects).
struct Modeled {
  double Speedup = 0;
  double FaultFactor = 0;
  double ProfilingOverhead = 0;
  double FleetP99Ms = 0;
};

class Workload {
public:
  /// \p Smoke shrinks the program set to one or two small programs.
  Workload(Kind K, uint64_t Seed, bool Smoke);

  /// Programs, variants and build seeds, for the run's header.
  std::string describe() const;

  /// Compiles and captures everything the ops need, replacing any earlier
  /// set-up. Returns an empty string or what failed.
  std::string setup(Tracer &T);

  /// One full cycle of ops in a seeded order; the loop repeats it.
  const std::vector<Op> &cycle() const { return Cycle; }

  /// The percentile op_tail_ms reports: the highest standard percentile
  /// (75, 90, 95, 99) with at least ten ops beyond it at half this
  /// workload's usual op rate (about 500, 120 and 250 ops a run), so a
  /// slow phase of a shared host still leaves enough ops beyond it; the
  /// run fails otherwise. It is fixed per workload, so faster ops cannot
  /// move the tail to a higher percentile.
  double tailPercentile() const {
    return K == Kind::LayoutSweep ? 95 : K == Kind::ColdStartStorm ? 90 : 75;
  }

  /// Runs one op. Returns an empty string or the oracle that failed.
  std::string run(const Op &O, Tracer &T);

  /// Computes the modeled metrics over every subject at both build seeds
  /// (untimed, bit-exact for a given seed).
  std::string modeled(Modeled &Out);

  /// Calls every layer once per subject under spans, including the build
  /// stage functions on the same inputs as one buildNativeImage.
  std::string layerPass(Tracer &T);

private:
  std::string runLayoutOp(const Op &O, Tracer &T);
  std::string runProfileOp(const Op &O, Tracer &T);
  std::string runStormOp(const Op &O, Tracer &T);

  Kind K;
  std::vector<nimg::BenchmarkSpec> Specs;
  std::vector<uint64_t> BuildSeeds;
  uint64_t ArrivalSeed = 0;
  std::vector<Op> Cycle;
  std::vector<Subject> Subjects;
};

} // namespace bench

#endif // NIMG_PERFBENCH_WORKLOADS_H
