//===- StartupReportFixtures.h - Synthetic startup reports ------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three startup reports built from hand-set inputs, no build or run: a bare
/// run, a build with every image-side section (split, pages, typed issues, a
/// merge manifest with salvaged and quarantined members), and a trapped
/// sampled-capture fleet storm run with two salvage phases. Every number is
/// set here, so a change to the modeled pipeline never changes these
/// reports. ObsTest pins their exact bytes; DocsCheckTest reads their rows
/// as the report's full schema.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_TESTS_STARTUPREPORTFIXTURES_H
#define NIMG_TESTS_STARTUPREPORTFIXTURES_H

#include "src/obs/StartupReport.h"

#include <memory>

namespace nimg {
namespace fixtures {

inline RunStats syntheticRun() {
  RunStats S;
  S.TextFaults = 9;
  S.HeapFaults = 17;
  S.TextColdFaults = 2;
  S.TextHugeFaults = 3;
  S.Instructions = 795814;
  S.ProbeUnits = 0;
  S.PrefetchedPages = 31;
  S.TimeNs = 3131072.25;
  S.Responded = true;
  S.TimeToFirstResponseNs = 1048576.5;
  S.StoredObjectsTouched = 222;
  S.StoredObjectsTotal = 2894;
  S.TextPages = {PageState::Faulted, PageState::Faulted,
                 PageState::Prefetched, PageState::Untouched,
                 PageState::Faulted};
  S.HeapPages = {PageState::Faulted, PageState::Prefetched,
                 PageState::Untouched};
  return S;
}

/// An image summary with hot/cold splitting, a huge-page budget, two typed
/// issues (one detail carries a comma and a quote) and a three-member
/// merge: accepted, salvaged and quarantined.
inline NativeImage syntheticImage() {
  NativeImage Img;
  auto Base = std::make_shared<ImageBase>();
  Base->Code.CUs.resize(3);
  Img.Base = std::move(Base);
  Img.Snapshot.Entries.resize(5);
  Img.Layout.TextSize = 413696;
  Img.Layout.HeapSize = 282624;
  Img.Layout.ColdTailOffset = 401408;
  Img.Layout.ColdTailSize = 12288;
  Img.Layout.HugePagesRequested = 2;
  Img.Layout.HugePages = 1;
  Img.Layout.HugeRegionSize = 2097152;
  Img.Seed = 7;
  Img.Split.Mode = SplitMode::HotCold;
  Img.Split.SplitCus = 2;
  Img.Split.DegradedCus = 1;
  Img.Split.HotBytes = 9000;
  Img.Split.ColdBytes = 4000;
  Img.Split.StubBytes = 48;

  ProfileDiagnostics &D = Img.ProfileDiag;
  D.CodeProfileProvided = true;
  D.CodeProfileApplied = true;
  D.HeapProfileProvided = true;
  D.HeapProfileApplied = false;
  D.Issues.push_back({ProfileError::ChecksumMismatch, 0, ""});
  D.Issues.push_back(
      {ProfileError::MalformedCell, 4, "cell 2, \"x\" is not a count"});

  MergeManifest &M = D.Merge;
  M.Outcome = MergeOutcome::Merged;
  MergeMemberReport A;
  A.Name = "fleet/a/cu.csv";
  A.CoveragePermille = 1000;
  A.Generation = 101;
  A.DriftScore = 0.125;
  A.Weight = 1.0;
  A.Rows = 40;
  MergeMemberReport B;
  B.Name = "fleet/b/cu.csv";
  B.Status = MergeMemberStatus::Salvaged;
  B.Reason = ProfileError::ChecksumMismatch;
  B.Detail = "salvaged 30 of 40 rows";
  B.CoveragePermille = 750;
  B.Generation = 100;
  B.DriftScore = 0.3;
  B.Weight = 0.7071067811865476;
  B.Rows = 30;
  MergeMemberReport C;
  C.Name = "fleet/c/cu.csv";
  C.Status = MergeMemberStatus::Quarantined;
  C.Reason = ProfileError::StaleGeneration;
  C.Generation = 60;
  M.Members = {A, B, C};
  return Img;
}

inline SalvageStats syntheticSalvage(size_t Dropped) {
  SalvageStats S;
  S.WordsScanned = 4096;
  S.WordsKept = 4096 - Dropped;
  S.WordsDropped = Dropped;
  S.ThreadsTruncated = Dropped > 0;
  return S;
}

/// `run` with nothing but the run attached.
inline obs::StartupReport bareRunReport() {
  obs::StartupReport R;
  R.Target = "Richards";
  R.Command = "run";
  R.setRun(syntheticRun());
  return R;
}

/// `build` with every image-side section and no run.
inline obs::StartupReport buildReport() {
  obs::StartupReport R;
  R.Target = "Richards";
  R.Command = "build";
  R.Variant = "code=cu members=3 split=hotcold huge-pages=2";
  R.setImage(syntheticImage());
  return R;
}

/// A trapped, sampled run over the full image with a storm fleet and two
/// salvage phases: every section except metrics.
inline obs::StartupReport fleetStormReport() {
  RunStats S = syntheticRun();
  S.ProbeUnits = 4000;
  S.SamplePeriod = 2048;
  S.SamplesTaken = 388;
  S.SampleEventsSkipped = 12;
  S.SampleCoveragePermille = 968;
  S.Responded = false;
  S.Trapped = true;
  S.TrapMessage = "null dereference in Richards.run";

  FleetConfig Cfg;
  Cfg.Instances = 4;
  Cfg.Arrivals = ArrivalKind::Storm;
  Cfg.ArrivalWindowNs = 20000000.0;
  Cfg.Seed = 11;
  Cfg.StormBursts = 2;
  Cfg.CachePages = 64;
  FleetResult F;
  F.Instances.resize(4);
  F.TotalMajors = 30;
  F.TotalWarmHits = 74;
  F.UniquePages = 30;
  F.Evictions = 0;
  F.P50Ns = 1565536.125;
  F.P90Ns = 2000000.5;
  F.P99Ns = 3131072.25;
  F.MeanNs = 1800000.0 / 3.0;
  F.ReferenceFaults = 26;
  F.ReferenceTimeNs = 3131072.25;

  obs::StartupReport R;
  R.Target = "Richards";
  R.Command = "run";
  R.Variant = "fleet=4 arrivals=storm";
  R.setRun(S);
  R.setImage(syntheticImage());
  R.setFleet(F, Cfg);
  R.addSalvage("cu", syntheticSalvage(0));
  R.addSalvage("heap", syntheticSalvage(96));
  return R;
}

} // namespace fixtures
} // namespace nimg

#endif // NIMG_TESTS_STARTUPREPORTFIXTURES_H
