//===- Aggregate.h - Fleet-scale profile aggregation ------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validated multi-profile merging for fleet-scale PGO. Production
/// profile pipelines (BOLT, AutoFDO) do not get one clean instrumented
/// run: they ingest N per-instance profiles of mixed quality — truncated,
/// CRC-corrupt, version-skewed, stale, or statistically drifted — and
/// must still drive a layout. aggregateProfiles() classifies every member
/// (accepted / salvaged / quarantined, with a typed ProfileError reason),
/// merges the survivors by weighted first-execution rank (weight =
/// coverage x freshness decay), and degrades along a fixed ladder:
///
///   merged  ->  best single member  ->  default cu-order layout
///
/// so the build never fails on profile input. The whole fold runs in
/// fixed member order, making the merged profile a pure function of the
/// member list — byte-identical at any --jobs, like the trace analyses.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_AGGREGATE_H
#define NIMG_PROFILING_AGGREGATE_H

#include "src/profiling/Analyses.h"

#include <string>
#include <vector>

namespace nimg {

/// One per-instance profile offered to the aggregator, as loaded from
/// disk (or captured in-process). Name identifies the instance/workload;
/// duplicates within one set are quarantined (DuplicateMember).
struct MemberProfile {
  std::string Name;
  CodeProfile Profile;
  /// What fromCsv() saw while parsing this member (salvage evidence).
  ProfileReadReport Read;
};

/// Parses \p CsvText into a named member. Never throws: parse problems
/// land in Profile.LoadError / Read and quarantine the member later.
MemberProfile loadMemberProfile(std::string Name, const std::string &CsvText);

/// Reads each path into a member (member name = the path). An unreadable
/// file becomes a BadHeader-quarantined member rather than an error —
/// fail-open, like every other stage.
std::vector<MemberProfile>
loadMemberProfiles(const std::vector<std::string> &Paths);

/// Member files inside \p Dir: regular files named cu*.csv, sorted by
/// name so the member order — and therefore the merge — is deterministic.
std::vector<std::string> listMemberProfileDir(const std::string &Dir);

/// Knobs of the validation gates. Defaults are deliberately permissive:
/// quarantine is for evidence of damage, not for tuning.
struct MergeOptions {
  /// Members whose capture coverage (header cell, permille) is below this
  /// are quarantined (CoverageBelowGate).
  uint32_t MinCoveragePermille = 500;
  /// Sampled members bypass MinCoveragePermille — their coverage cell is a
  /// sampling estimate (distinct sampled roots per entered root), not
  /// salvage evidence, and a staggered fleet recovers the gaps — but are
  /// still dropped below this floor: a handful of samples carries no rank
  /// signal. Their merge weight stays coverage-derived, so a sparse member
  /// votes weakly instead of being quarantined.
  uint32_t MinSampledCoveragePermille = 50;
  /// Members whose mean |log2| per-CU count ratio against the member
  /// median exceeds this are quarantined (DriftOutlier).
  double MaxDriftScore = 1.5;
  /// Members whose generation stamp lags the newest member by more than
  /// this are quarantined (StaleGeneration). Generation 0 = unknown,
  /// exempt from the check.
  uint64_t MaxGenerationLag = 8;
  /// Freshness decay half-life, in generations: a member one half-life
  /// behind the newest carries half the weight.
  double FreshnessHalfLifeGenerations = 4.0;
  /// When nonzero, members with a different nonzero fingerprint are
  /// quarantined (FingerprintMismatch) — build-to-build version skew.
  uint64_t ExpectedFingerprint = 0;
  /// Drift scoring needs a quorum: with fewer live members a median is
  /// meaningless, so the check is skipped entirely.
  size_t MinMembersForDrift = 3;
  /// Trace granularity every member must carry; anything else is
  /// quarantined (ModeMismatch). Rank merging only makes sense within one
  /// granularity, so a --code method build sets MethodOrder here and a
  /// cu/cluster build keeps the CuOrder default.
  TraceMode ExpectedMode = TraceMode::CuOrder;
};

/// The aggregator's product: the layout-driving profile (empty on
/// Fallback) plus the full quarantine manifest.
struct MergeResult {
  CodeProfile Profile;
  MergeManifest Manifest;

  /// True when Profile should be offered to the build (Merged or
  /// BestSingle); on Fallback the build keeps its default cu-order layout.
  bool usable() const {
    return Manifest.Outcome == MergeOutcome::Merged ||
           Manifest.Outcome == MergeOutcome::BestSingle;
  }
};

/// Merges \p Members under \p Opts. Fail-open: never throws, never
/// rejects the whole build — the worst outcome is an empty profile with
/// Outcome == Fallback and every member quarantined with a typed reason.
MergeResult aggregateProfiles(const std::vector<MemberProfile> &Members,
                              const MergeOptions &Opts = {});

} // namespace nimg

#endif // NIMG_PROFILING_AGGREGATE_H
