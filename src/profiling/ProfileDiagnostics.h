//===- ProfileDiagnostics.h - Profile ingestion diagnostics -----*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed diagnostics for the profile interchange format. Ordering-profile
/// CSVs carry a header row (format version, trace mode, heap strategy,
/// program fingerprint, payload CRC-32); ingestion validates it and every
/// payload cell, and the optimizing build downgrades to the default layout
/// — recording a ProfileDiagnostics summary on the image — instead of
/// consuming a corrupt or stale profile. This is the degradation policy
/// the paper's pipeline needs to survive SIGKILL'd profiling runs and
/// build-to-build staleness (Secs. 6.1, 7.1).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_PROFILEDIAGNOSTICS_H
#define NIMG_PROFILING_PROFILEDIAGNOSTICS_H

#include "src/ordering/IdStrategies.h"
#include "src/profiling/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nimg {

/// Current version of the profile CSV header. Version 0 denotes a legacy
/// headerless file (accepted, but without checksum/fingerprint checks);
/// version 1 files lack the generation/coverage cells appended in v2 and
/// are accepted with generation 0 (staleness check disabled) and coverage
/// 1000.
inline constexpr uint32_t ProfileFormatVersion = 2;

enum class ProfileError : uint8_t {
  None,
  BadHeader,           ///< Header row present but unparsable.
  UnsupportedVersion,  ///< Header version newer than this build understands.
  ChecksumMismatch,    ///< Payload CRC-32 does not match the header.
  FingerprintMismatch, ///< Profile came from a different program.
  ModeMismatch,        ///< Trace mode does not fit the requested strategy.
  StrategyMismatch,    ///< Heap profile computed for a different strategy.
  MalformedCell,       ///< A payload cell failed to parse (row skipped).
  LegacyFormat,        ///< Informational: headerless pre-v1 file.
  WorkerFault,         ///< A parallel build task threw; its unit degraded.
  EmptyTransitionGraph, ///< Cluster analysis saw no CU transitions; the
                        ///< profile degraded to plain cu ordering.
  InsufficientBlockProfile, ///< Block counts missing or salvage coverage
                            ///< below threshold; CUs stay unsplit.
  CoverageBelowGate,   ///< Merge member's salvage coverage under the gate.
  DriftOutlier,        ///< Merge member's per-CU count distribution is a
                       ///< statistical outlier vs the member median.
  StaleGeneration,     ///< Merge member's generation stamp lags the
                       ///< newest member beyond the allowed window.
  DuplicateMember,     ///< Two members of one capture/merge set carry the
                       ///< same instance name; later ones are dropped.
  ImplausibleSamplePeriod, ///< A sampled profile whose period metadata is
                           ///< zero or absurdly coarse; member quarantined.
  HugeBudgetUnfillable, ///< The hot .text prefix is too small to
                        ///< justify the full --huge-pages budget; the
                        ///< effective region is clamped, the tail of the
                        ///< budget stays on base pages.
};

inline const char *profileErrorName(ProfileError E) {
  switch (E) {
  case ProfileError::None:
    return "none";
  case ProfileError::BadHeader:
    return "bad header";
  case ProfileError::UnsupportedVersion:
    return "unsupported version";
  case ProfileError::ChecksumMismatch:
    return "checksum mismatch";
  case ProfileError::FingerprintMismatch:
    return "fingerprint mismatch";
  case ProfileError::ModeMismatch:
    return "trace-mode mismatch";
  case ProfileError::StrategyMismatch:
    return "heap-strategy mismatch";
  case ProfileError::MalformedCell:
    return "malformed cell";
  case ProfileError::LegacyFormat:
    return "legacy headerless format";
  case ProfileError::WorkerFault:
    return "worker task fault";
  case ProfileError::EmptyTransitionGraph:
    return "empty transition graph";
  case ProfileError::InsufficientBlockProfile:
    return "insufficient block profile";
  case ProfileError::CoverageBelowGate:
    return "coverage below gate";
  case ProfileError::DriftOutlier:
    return "count-distribution drift outlier";
  case ProfileError::StaleGeneration:
    return "stale generation";
  case ProfileError::DuplicateMember:
    return "duplicate member name";
  case ProfileError::ImplausibleSamplePeriod:
    return "implausible sample period";
  case ProfileError::HugeBudgetUnfillable:
    return "huge budget unfillable";
  }
  return "unknown";
}

/// Stable snake_case identifier for \p E, used in metric names and the
/// startup report's JSON (profileErrorName() is the human-facing form).
inline const char *profileErrorSlug(ProfileError E) {
  switch (E) {
  case ProfileError::None:
    return "none";
  case ProfileError::BadHeader:
    return "bad_header";
  case ProfileError::UnsupportedVersion:
    return "unsupported_version";
  case ProfileError::ChecksumMismatch:
    return "checksum_mismatch";
  case ProfileError::FingerprintMismatch:
    return "fingerprint_mismatch";
  case ProfileError::ModeMismatch:
    return "mode_mismatch";
  case ProfileError::StrategyMismatch:
    return "strategy_mismatch";
  case ProfileError::MalformedCell:
    return "malformed_cell";
  case ProfileError::LegacyFormat:
    return "legacy_format";
  case ProfileError::WorkerFault:
    return "worker_fault";
  case ProfileError::EmptyTransitionGraph:
    return "empty_transition_graph";
  case ProfileError::InsufficientBlockProfile:
    return "insufficient_block_profile";
  case ProfileError::CoverageBelowGate:
    return "coverage_below_gate";
  case ProfileError::DriftOutlier:
    return "drift_outlier";
  case ProfileError::StaleGeneration:
    return "stale_generation";
  case ProfileError::DuplicateMember:
    return "duplicate_member";
  case ProfileError::ImplausibleSamplePeriod:
    return "implausible_sample_period";
  case ProfileError::HugeBudgetUnfillable:
    return "huge_budget_unfillable";
  }
  return "unknown";
}

/// One ingestion finding: what went wrong and where.
struct ProfileIssue {
  ProfileError Kind = ProfileError::None;
  size_t Row = 0; ///< 1-based CSV row; 0 = whole file.
  std::string Detail;
};

/// How the capture behind a profile was taken. Instrumented captures
/// record every transition; sampled captures record a periodic sample of
/// the executing method/CU and reconstruct ranks from hit statistics.
enum class CaptureKind : uint8_t { Instrumented, Sampled };

inline const char *captureKindName(CaptureKind K) {
  switch (K) {
  case CaptureKind::Instrumented:
    return "instrumented";
  case CaptureKind::Sampled:
    return "sampled";
  }
  return "unknown";
}

/// The interchange header of a profile CSV (first row). Fingerprint 0
/// means "unknown" and disables the staleness check.
struct ProfileHeader {
  uint32_t Version = ProfileFormatVersion;
  TraceMode Mode = TraceMode::CuOrder;
  bool HasStrategy = false; ///< Heap profiles also carry their strategy.
  HeapStrategy Strategy = HeapStrategy::IncrementalId;
  uint64_t Fingerprint = 0;
  /// Monotonic capture-generation stamp (v2 cell 7). 0 = unknown; such
  /// members are exempt from the merge staleness check.
  uint64_t Generation = 0;
  /// Salvage coverage of the capture that produced this profile, in
  /// permille (v2 cell 8). v0/v1 files default to full coverage. Sampled
  /// profiles carry their coverage *estimate* here (distinct sampled CU
  /// roots per entered root).
  uint32_t CoveragePermille = 1000;
  /// Capture strategy (v2 cells 9+10, emitted only for sampled profiles
  /// so instrumented files stay byte-identical with pre-sampling readers).
  CaptureKind Capture = CaptureKind::Instrumented;
  /// Sampled captures: the model-clock period the sampler ran at.
  uint64_t SamplePeriod = 0;
};

/// Everything fromCsv() learned while reading one profile file.
struct ProfileReadReport {
  bool HeaderPresent = false;
  ProfileHeader Header;
  /// First unrecoverable problem; None means the profile is usable (its
  /// payload may still have skipped rows, listed in Issues).
  ProfileError Fatal = ProfileError::None;
  std::vector<ProfileIssue> Issues;
  size_t RowsKept = 0;
  size_t RowsSkipped = 0;
  /// Sampled profiles only: the payload CRC did not match but the file
  /// was recovered as its longest well-formed row prefix (a truncated
  /// fleet upload). Instrumented profiles never set this — a bad CRC
  /// there stays Fatal, because every row carries rank information.
  bool PrefixSalvaged = false;

  bool usable() const { return Fatal == ProfileError::None; }
};

/// How one member of a merge/capture set was classified by the profile
/// aggregator (src/profiling/Aggregate.h).
enum class MergeMemberStatus : uint8_t {
  Accepted,    ///< Clean: contributes to the merge at full standing.
  Salvaged,    ///< Usable but lossy (skipped rows / partial coverage).
  Quarantined, ///< Dropped with a typed ProfileError reason.
};

inline const char *mergeMemberStatusName(MergeMemberStatus S) {
  switch (S) {
  case MergeMemberStatus::Accepted:
    return "accepted";
  case MergeMemberStatus::Salvaged:
    return "salvaged";
  case MergeMemberStatus::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

/// Which rung of the degradation ladder the aggregator landed on.
enum class MergeOutcome : uint8_t {
  NotAttempted, ///< No member set was offered to this build.
  Merged,       ///< >= 2 live members, weighted merge applied.
  BestSingle,   ///< Exactly 1 live member survived; used verbatim.
  Fallback,     ///< Every member quarantined; default cu-order layout.
};

inline const char *mergeOutcomeName(MergeOutcome O) {
  switch (O) {
  case MergeOutcome::NotAttempted:
    return "not_attempted";
  case MergeOutcome::Merged:
    return "merged";
  case MergeOutcome::BestSingle:
    return "best_single";
  case MergeOutcome::Fallback:
    return "fallback";
  }
  return "unknown";
}

/// Per-member line of the quarantine manifest: how the member was
/// classified, why, and the weight it carried into the merged fold.
struct MergeMemberReport {
  std::string Name;
  MergeMemberStatus Status = MergeMemberStatus::Accepted;
  ProfileError Reason = ProfileError::None; ///< Quarantine/salvage reason.
  std::string Detail;
  uint32_t CoveragePermille = 0;
  uint64_t Generation = 0;
  double DriftScore = 0.0; ///< Mean |log2| count ratio vs member median.
  double Weight = 0.0;     ///< coverage x freshness decay; 0 if dropped.
  size_t Rows = 0;         ///< Payload rows the member contributed.
};

/// The aggregator's full account of one merge: every member's fate plus
/// the outcome rung. Recorded on the image's ProfileDiagnostics and
/// surfaced in the StartupReport "merge" section.
struct MergeManifest {
  MergeOutcome Outcome = MergeOutcome::NotAttempted;
  std::vector<MergeMemberReport> Members;

  bool attempted() const { return Outcome != MergeOutcome::NotAttempted; }
  size_t countWithStatus(MergeMemberStatus S) const {
    size_t N = 0;
    for (const MergeMemberReport &M : Members)
      if (M.Status == S)
        ++N;
    return N;
  }
};

/// Summary of profile ingestion recorded on a built image: which profiles
/// were offered, which were actually applied, and why any were rejected.
struct ProfileDiagnostics {
  bool CodeProfileProvided = false;
  bool CodeProfileApplied = false;
  bool HeapProfileProvided = false;
  bool HeapProfileApplied = false;
  /// Hot/cold splitting evidence (--split hotcold only; both stay false
  /// for unsplit builds). "Applied" means at least the profile was usable
  /// — individual CUs may still degrade to unsplit, listed in Issues.
  bool BlockProfileProvided = false;
  bool BlockProfileApplied = false;
  std::vector<ProfileIssue> Issues;
  /// Fleet aggregation account (BuildConfig::CodeMembers builds only;
  /// Outcome stays NotAttempted otherwise).
  MergeManifest Merge;

  /// True when at least one offered profile was rejected and the build
  /// fell back to the default layout for that dimension.
  bool degraded() const {
    return (CodeProfileProvided && !CodeProfileApplied) ||
           (HeapProfileProvided && !HeapProfileApplied);
  }
};

} // namespace nimg

#endif // NIMG_PROFILING_PROFILEDIAGNOSTICS_H
