//===- Analyses.cpp - Trace post-processing analyses ------------------------===//

#include "src/profiling/Analyses.h"

#include "src/obs/Metrics.h"
#include "src/support/Crc32.h"
#include "src/support/Csv.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <type_traits>

using namespace nimg;

//===----------------------------------------------------------------------===//
// CSV interchange: header row + payload + CRC.
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *ProfileMagic = "#nimg-profile";
/// Cap on recorded per-row issues so a multi-megabyte corrupt file cannot
/// balloon the report.
constexpr size_t MaxRecordedIssues = 16;
/// Payload sanity bound: no real signature is this long.
constexpr size_t MaxSigBytes = 4096;

const char *modeToken(TraceMode M) {
  switch (M) {
  case TraceMode::CuOrder:
    return "cu";
  case TraceMode::MethodOrder:
    return "method";
  case TraceMode::HeapOrder:
    return "heap";
  case TraceMode::Sampled:
    return "sampled";
  }
  return "cu";
}

bool parseModeToken(const std::string &S, TraceMode &Out) {
  if (S == "cu")
    Out = TraceMode::CuOrder;
  else if (S == "method")
    Out = TraceMode::MethodOrder;
  else if (S == "heap")
    Out = TraceMode::HeapOrder;
  else if (S == "sampled")
    Out = TraceMode::Sampled;
  else
    return false;
  return true;
}

bool parseCaptureToken(const std::string &S, CaptureKind &Out) {
  if (S == "instrumented")
    Out = CaptureKind::Instrumented;
  else if (S == "sampled")
    Out = CaptureKind::Sampled;
  else
    return false;
  return true;
}

const char *strategyToken(HeapStrategy S) {
  switch (S) {
  case HeapStrategy::IncrementalId:
    return "inc";
  case HeapStrategy::StructuralHash:
    return "struct";
  case HeapStrategy::HeapPath:
    return "path";
  }
  return "inc";
}

bool parseStrategyToken(const std::string &S, bool &Has, HeapStrategy &Out) {
  Has = true;
  if (S == "inc")
    Out = HeapStrategy::IncrementalId;
  else if (S == "struct")
    Out = HeapStrategy::StructuralHash;
  else if (S == "path")
    Out = HeapStrategy::HeapPath;
  else if (S == "-")
    Has = false;
  else
    return false;
  return true;
}

/// Range-checked hex parse of a whole cell (satellite: no strtoull UB on
/// non-numeric or overflowing cells).
bool parseHexU64(const std::string &Cell, uint64_t &Out) {
  if (Cell.empty() || Cell.size() > 16)
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Cell.data(), Cell.data() + Cell.size(), Out, 16);
  return Ec == std::errc() && Ptr == Cell.data() + Cell.size();
}

bool parseDecU32(const std::string &Cell, uint32_t &Out) {
  if (Cell.empty() || Cell.size() > 9)
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Cell.data(), Cell.data() + Cell.size(), Out, 10);
  return Ec == std::errc() && Ptr == Cell.data() + Cell.size();
}

bool parseDecU64(const std::string &Cell, uint64_t &Out) {
  if (Cell.empty() || Cell.size() > 20)
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Cell.data(), Cell.data() + Cell.size(), Out, 10);
  return Ec == std::errc() && Ptr == Cell.data() + Cell.size();
}

void addIssue(ProfileReadReport &R, ProfileError Kind, size_t Row,
              std::string Detail) {
  if (R.Issues.size() < MaxRecordedIssues)
    R.Issues.push_back({Kind, Row, std::move(Detail)});
}

/// A profile file: the header row, carrying the CRC-32 of the payload,
/// then \p Payload's rows.
std::string profileCsv(const ProfileHeader &H, const CsvDocument &Payload) {
  std::string Body = writeCsv(Payload);
  char Fp[17], CrcBuf[9];
  std::snprintf(Fp, sizeof(Fp), "%016" PRIx64, H.Fingerprint);
  std::snprintf(CrcBuf, sizeof(CrcBuf), "%08" PRIx32, crc32(Body));
  CsvDocument Doc;
  // v2 appends generation and coverage after the CRC so v1 readers that
  // stop at cell 6 (and our own v1 test vectors) stay parseable.
  Doc.Rows.push_back({ProfileMagic, std::to_string(ProfileFormatVersion),
                      modeToken(H.Mode),
                      H.HasStrategy ? strategyToken(H.Strategy) : "-", Fp,
                      CrcBuf, std::to_string(H.Generation),
                      std::to_string(H.CoveragePermille)});
  // Sampled-capture profiles append their capture kind and sample period;
  // instrumented headers stay byte-identical with pre-sampling emitters.
  if (H.Capture == CaptureKind::Sampled) {
    Doc.Rows[0].push_back(captureKindName(H.Capture));
    Doc.Rows[0].push_back(std::to_string(H.SamplePeriod));
  }
  return writeCsv(Doc) + Body;
}

/// Validates the header row (Doc.Rows[0]) if present. Returns the index of
/// the first payload row; on a fatal problem R.Fatal is set. A file whose
/// first cell does not start with '#' is a legacy headerless profile:
/// accepted without checksum or fingerprint protection. Only code profiles
/// (\p MaySample) can come from a sampled capture; on any other kind a
/// sampled header is corruption, never a licence to skip the CRC.
size_t readProfileHeader(const std::string &Text, const CsvDocument &Doc,
                         bool MaySample, ProfileReadReport &R) {
  R.Header.Version = 0;
  if (Doc.Rows.empty())
    return 0;
  const std::vector<std::string> &Row = Doc.Rows[0];
  if (Row.empty() || Row[0].empty() || Row[0][0] != '#') {
    addIssue(R, ProfileError::LegacyFormat, 1, "no interchange header");
    return 0;
  }
  // The row claims to be a header; from here anything unparsable is fatal
  // corruption, not legacy data.
  if (Row[0] != ProfileMagic || Row.size() < 6) {
    R.Fatal = ProfileError::BadHeader;
    addIssue(R, R.Fatal, 1, "unrecognized header row");
    return 1;
  }
  uint32_t Version = 0;
  if (!parseDecU32(Row[1], Version) || Version == 0) {
    R.Fatal = ProfileError::BadHeader;
    addIssue(R, R.Fatal, 1, "bad version cell: " + Row[1]);
    return 1;
  }
  if (Version > ProfileFormatVersion) {
    R.Fatal = ProfileError::UnsupportedVersion;
    addIssue(R, R.Fatal, 1, "profile version " + Row[1]);
    return 1;
  }
  uint64_t Fp = 0, Crc = 0;
  if (!parseModeToken(Row[2], R.Header.Mode) ||
      !parseStrategyToken(Row[3], R.Header.HasStrategy, R.Header.Strategy) ||
      !parseHexU64(Row[4], Fp) || !parseHexU64(Row[5], Crc) ||
      Crc > 0xffffffffu) {
    R.Fatal = ProfileError::BadHeader;
    addIssue(R, R.Fatal, 1, "bad header cells");
    return 1;
  }
  // v2 carries a generation stamp and capture coverage after the CRC; a
  // v1 row simply lacks them (generation unknown, full coverage assumed).
  R.Header.Generation = 0;
  R.Header.CoveragePermille = 1000;
  if (Version >= 2) {
    if (Row.size() < 8 || !parseDecU64(Row[6], R.Header.Generation) ||
        !parseDecU32(Row[7], R.Header.CoveragePermille) ||
        R.Header.CoveragePermille > 1000) {
      R.Fatal = ProfileError::BadHeader;
      addIssue(R, R.Fatal, 1, "bad generation/coverage cells");
      return 1;
    }
    // Optional capture cells (sampled profiles only): the capture kind
    // token and the sample period. The period is only syntax-checked here;
    // its plausibility is an aggregation gate (implausible_sample_period),
    // not a parse error — bad metadata quarantines a member, a lone build
    // still degrades through the normal profile-rejection path.
    if (Row.size() >= 9) {
      if (!parseCaptureToken(Row[8], R.Header.Capture) ||
          (R.Header.Capture == CaptureKind::Sampled &&
           (Row.size() < 10 || !parseDecU64(Row[9], R.Header.SamplePeriod)))) {
        R.Fatal = ProfileError::BadHeader;
        addIssue(R, R.Fatal, 1, "bad capture cells");
        return 1;
      }
      if (R.Header.Capture == CaptureKind::Sampled && !MaySample) {
        R.Fatal = ProfileError::BadHeader;
        addIssue(R, R.Fatal, 1, "sampled capture header on a non-code profile");
        return 1;
      }
    }
  }
  R.Header.Version = Version;
  R.Header.Fingerprint = Fp;
  R.HeaderPresent = true;
  // The CRC covers the raw payload text: everything after the header line.
  size_t Nl = Text.find('\n');
  std::string Payload = Nl == std::string::npos ? "" : Text.substr(Nl + 1);
  if (crc32(Payload) != uint32_t(Crc)) {
    if (R.Header.Capture == CaptureKind::Sampled) {
      // A sampled profile is a statistical artifact: a truncated upload
      // still carries usable hit evidence, so recover the longest
      // well-formed row prefix instead of rejecting the file. Instrumented
      // profiles keep the strict contract — every row is rank-bearing.
      R.PrefixSalvaged = true;
      addIssue(R, ProfileError::ChecksumMismatch, 0,
               "payload CRC-32 mismatch; salvaging sampled row prefix");
      return 1;
    }
    R.Fatal = ProfileError::ChecksumMismatch;
    addIssue(R, R.Fatal, 0, "payload CRC-32 mismatch");
    return 1;
  }
  return 1;
}

bool isBlankRow(const std::vector<std::string> &Row) {
  return Row.empty() || (Row.size() == 1 && Row[0].empty());
}

/// Surfaces one profile-load outcome ("code"/"heap"/"block")
/// through the registry, including a per-rejection-kind counter (dynamic
/// names; ingestion is not a hot path).
void meterProfileLoad(const char *Kind, const ProfileReadReport &R) {
  std::string Base = std::string("nimg.profile.load.") + Kind;
  NIMG_COUNTER_ADD_DYN(Base + ".attempts", 1);
  if (R.usable()) {
    NIMG_COUNTER_ADD_DYN(Base + ".ok", 1);
  } else {
    NIMG_COUNTER_ADD_DYN(Base + ".rejected", 1);
    NIMG_COUNTER_ADD_DYN(Base + ".rejected." + profileErrorSlug(R.Fatal), 1);
  }
  if (R.RowsKept)
    NIMG_COUNTER_ADD_DYN(Base + ".rows_kept", R.RowsKept);
  if (R.RowsSkipped)
    NIMG_COUNTER_ADD_DYN(Base + ".rows_skipped", R.RowsSkipped);
}

/// The row loop of every fromCsv: validates the header into \p P (an empty
/// profile of the kind), hands each non-blank payload row to \p ParseRow
/// (which appends it to the profile and returns true, or sets a detail and
/// returns false to skip it as malformed), accounts the rows, and meters
/// the load as \p Kind. Only a code profile may be a sampled capture, so
/// only its CRC-mismatched payload is cut at the first malformed row.
template <typename Profile, typename RowFn>
Profile readProfileRows(const std::string &Text, const char *Kind,
                        ProfileReadReport *Report, Profile P,
                        RowFn ParseRow) {
  ProfileReadReport Local;
  ProfileReadReport &R = Report ? *Report : Local;
  R = ProfileReadReport{};
  CsvDocument Doc = parseCsv(Text);
  size_t I = readProfileHeader(Text, Doc,
                               std::is_same_v<Profile, CodeProfile>, R);
  P.Header = R.Header;
  P.LoadError = R.Fatal;
  for (; R.usable() && I < Doc.Rows.size(); ++I) {
    const std::vector<std::string> &Row = Doc.Rows[I];
    if (isBlankRow(Row))
      continue;
    std::string Why;
    if (ParseRow(P, Row, Why)) {
      ++R.RowsKept;
      continue;
    }
    addIssue(R, ProfileError::MalformedCell, I + 1, std::move(Why));
    if (R.PrefixSalvaged) {
      R.RowsSkipped += Doc.Rows.size() - I; // The cut point.
      break;
    }
    ++R.RowsSkipped;
  }
  // A CRC-mismatched sampled file that salvaged clean to its last row
  // still lost *something* (the CRC said so): account at least one row so
  // the aggregator classifies the member as salvaged, not accepted.
  if (R.PrefixSalvaged && R.RowsSkipped == 0)
    R.RowsSkipped = 1;
  meterProfileLoad(Kind, R);
  return P;
}

/// First payload cell of the coverage row of block profiles. '@'
/// cannot start a method signature, so the row is unambiguous.
constexpr const char *CoverageRowTag = "@coverage";

bool parseCoverageRow(const std::vector<std::string> &Row, uint32_t &Out,
                      std::string &Why) {
  uint32_t Permille = 0;
  if (Row.size() < 2 || !parseDecU32(Row[1], Permille) || Permille > 1000) {
    Why = "bad coverage row";
    return false;
  }
  Out = Permille;
  return true;
}

bool validSig(const std::string &Sig) {
  return !Sig.empty() && Sig.size() <= MaxSigBytes;
}

} // namespace

std::string CodeProfile::toCsv() const {
  CsvDocument Doc;
  Doc.Rows.reserve(Sigs.size());
  bool WithCounts = Counts.size() == Sigs.size() && !Counts.empty();
  for (size_t I = 0; I < Sigs.size(); ++I) {
    if (WithCounts)
      Doc.Rows.push_back({Sigs[I], std::to_string(Counts[I])});
    else
      Doc.Rows.push_back({Sigs[I]});
  }
  return profileCsv(Header, Doc);
}

CodeProfile CodeProfile::fromCsv(const std::string &Text,
                                 ProfileReadReport *Report) {
  bool AnyCount = false;
  CodeProfile P = readProfileRows(
      Text, "code", Report, CodeProfile{},
      [&](CodeProfile &Out, const std::vector<std::string> &Row,
          std::string &Why) {
        if (!validSig(Row[0])) {
          Why = "bad signature cell";
          return false;
        }
        // Optional second cell: per-sig event count (v2 cu profiles). A
        // row without one contributes the neutral count 1.
        uint64_t Count = 1;
        if (Row.size() >= 2 && !Row[1].empty()) {
          if (!parseDecU64(Row[1], Count)) {
            Why = "bad count cell";
            return false;
          }
          AnyCount = true;
        }
        Out.Sigs.push_back(Row[0]);
        Out.Counts.push_back(Count);
        return true;
      });
  if (!AnyCount)
    P.Counts.clear(); // No count evidence: keep the legacy shape.
  return P;
}

std::string HeapProfile::toCsv() const {
  CsvDocument Doc;
  Doc.Rows.reserve(Ids.size());
  char Buf[32];
  for (uint64_t Id : Ids) {
    std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Id);
    Doc.Rows.push_back({Buf});
  }
  return profileCsv(Header, Doc);
}

HeapProfile HeapProfile::fromCsv(const std::string &Text,
                                 ProfileReadReport *Report) {
  return readProfileRows(
      Text, "heap", Report, HeapProfile{},
      [](HeapProfile &Out, const std::vector<std::string> &Row,
         std::string &Why) {
        uint64_t Id = 0;
        if (!parseHexU64(Row[0], Id)) {
          Why = Row[0].substr(0, 32);
          return false;
        }
        Out.Ids.push_back(Id);
        return true;
      });
}

std::string BlockProfile::toCsv() const {
  CsvDocument Doc;
  Doc.Rows.reserve(Rows.size() + 1);
  Doc.Rows.push_back({CoverageRowTag, std::to_string(CoveragePermille)});
  for (const Row &R : Rows)
    Doc.Rows.push_back(
        {R.Sig, std::to_string(R.Block), std::to_string(R.Count)});
  return profileCsv(Header, Doc);
}

BlockProfile BlockProfile::fromCsv(const std::string &Text,
                                   ProfileReadReport *Report) {
  BlockProfile Empty;
  Empty.CoveragePermille = 0; // Only an explicit coverage row vouches.
  return readProfileRows(
      Text, "block", Report, std::move(Empty),
      [](BlockProfile &Out, const std::vector<std::string> &Row,
         std::string &Why) {
        if (Row[0] == CoverageRowTag)
          return parseCoverageRow(Row, Out.CoveragePermille, Why);
        BlockProfile::Row Parsed;
        if (Row.size() < 3 || !validSig(Row[0]) ||
            !parseDecU32(Row[1], Parsed.Block) ||
            !parseDecU64(Row[2], Parsed.Count)) {
          Why = "bad block-count row";
          return false;
        }
        Parsed.Sig = Row[0];
        Out.Rows.push_back(std::move(Parsed));
        return true;
      });
}

//===----------------------------------------------------------------------===//
// Replay.
//===----------------------------------------------------------------------===//

namespace {

/// Dispatches the salvaged prefix (\p End words) of one thread's trace to
/// \p Analyses in execution order.
void replayThread(const Program &P, TraceMode Mode,
                  const std::vector<uint64_t> &Words, size_t End,
                  PathGraphCache &Paths, PathEvents &Events,
                  const std::vector<OrderingAnalysis *> &Analyses) {
  bool HasOperands = Mode == TraceMode::HeapOrder;
  size_t I = 0;
  while (I < End) {
    uint64_t W = Words[I++];
    if (tracerec::isCuEnter(W)) {
      for (OrderingAnalysis *A : Analyses)
        A->onCuEnter(tracerec::cuRoot(W));
      continue;
    }
    if (tracerec::isSample(W)) {
      for (OrderingAnalysis *A : Analyses)
        A->onSample(tracerec::sampleMethod(W), tracerec::sampleRoot(W));
      continue;
    }
    if (!tracerec::isPath(W))
      continue; // Unreachable inside a salvaged prefix; defensive.
    MethodId M = tracerec::pathMethod(W);
    if (M < 0 || size_t(M) >= P.numMethods())
      continue;
    Paths.of(M).decodeInto(tracerec::pathId(W), Events);
    if (Events.MethodEntry)
      for (OrderingAnalysis *A : Analyses)
        A->onMethodEnter(M);
    for (BlockId B : Events.Blocks)
      for (OrderingAnalysis *A : Analyses)
        A->onBlockVisit(M, B);
    if (!HasOperands)
      continue;
    // A record cut mid-operands at the thread's end (mode-1 SIGKILL)
    // keeps its surviving operands; consume what is there.
    for (uint32_t K = 0; K < Events.OperandCount && I < End; ++K) {
      uint64_t Op = Words[I++];
      if (Op == 0)
        continue;
      for (OrderingAnalysis *A : Analyses)
        A->onObjectAccess(int32_t(Op - 1));
    }
  }
}

/// Salvage coverage in permille, or \p Empty when nothing was scanned.
uint32_t coveragePermille(const SalvageStats &S, uint32_t Empty) {
  return S.WordsScanned ? uint32_t(S.WordsKept * 1000 / S.WordsScanned)
                        : Empty;
}

/// Shared body of the one-sink wrappers: replays \p Capture into \p Sink
/// when it is in \p Mode and returns (and copies to \p Out) the salvage
/// stats.
SalvageStats replayInto(const Program &P, const TraceCapture &Capture,
                        TraceMode Mode, PathGraphCache &Paths,
                        OrderingAnalysis &Sink, SalvageStats *Out) {
  SalvageStats Stats;
  if (captureInMode(Capture, Mode, Stats))
    replayTrace(P, Capture, Paths, {&Sink}, &Stats);
  if (Out)
    *Out = Stats;
  return Stats;
}

} // namespace

void nimg::replayTrace(const Program &P, const TraceCapture &Capture,
                       PathGraphCache &Paths,
                       const std::vector<OrderingAnalysis *> &Analyses,
                       SalvageStats *StatsOut) {
  if (captureEncoded(Capture)) {
    size_t Cut = 0;
    TraceCapture Decoded = decodeCapture(Capture, &Cut);
    replayTrace(P, Decoded, Paths, Analyses, StatsOut);
    if (StatsOut)
      StatsOut->IncompleteTailRecords += Cut;
    return;
  }
  SalvageStats Stats;
  std::vector<size_t> Prefix = scanCapture(P, Capture, Paths, Stats);
  // One scratch for the whole replay: decodeInto() reuses its vectors, so
  // records do not reallocate Blocks/Sites.
  PathEvents Events;
  for (size_t T = 0; T < Capture.Threads.size(); ++T) {
    for (OrderingAnalysis *A : Analyses)
      A->onThreadBegin();
    replayThread(P, Capture.Options.Mode, Capture.Threads[T].Words, Prefix[T],
                 Paths, Events, Analyses);
  }
  if (StatsOut)
    *StatsOut = Stats;
}

//===----------------------------------------------------------------------===//
// Sinks.
//===----------------------------------------------------------------------===//

void CodeOrderAnalysis::onCuEnter(MethodId Root) {
  if (S == Source::CuEnter)
    Ids.note(Root);
}

void CodeOrderAnalysis::onMethodEnter(MethodId M) {
  if (S == Source::MethodEnter)
    Ids.note(M);
}

void CodeOrderAnalysis::onSample(MethodId M, MethodId Root) {
  if (S == Source::SampleRoot)
    Ids.note(Root);
  else if (S == Source::SampleMethod)
    Ids.note(M);
}

CodeProfile CodeOrderAnalysis::finish(const SalvageStats &Stats) const {
  CodeProfile Out;
  Out.Header.Mode = S == Source::CuEnter || S == Source::SampleRoot
                        ? TraceMode::CuOrder
                        : TraceMode::MethodOrder;
  if (S == Source::SampleRoot || S == Source::SampleMethod) {
    Out.Header.Capture = CaptureKind::Sampled;
    Out.Header.SamplePeriod = SamplePeriod;
  }
  Out.Header.CoveragePermille = coveragePermille(Stats, 1000);
  Out.Sigs.reserve(Ids.Order.size());
  for (MethodId M : Ids.Order)
    Out.Sigs.push_back(P.method(M).Sig);
  if (S != Source::MethodEnter)
    Out.Counts = Ids.Hits;
  return Out;
}

BlockProfile BlockCountAnalysis::finish(const SalvageStats &Stats) const {
  BlockProfile Out;
  Out.Header.Mode = TraceMode::MethodOrder;
  Out.Rows.reserve(Counts.size());
  for (const auto &[Key, N] : Counts) {
    BlockProfile::Row R;
    R.Sig = P.method(MethodId(int32_t(Key >> 32))).Sig;
    R.Block = uint32_t(Key & 0xffffffffu);
    R.Count = N;
    Out.Rows.push_back(std::move(R));
  }
  std::sort(Out.Rows.begin(), Out.Rows.end(),
            [](const BlockProfile::Row &A, const BlockProfile::Row &B) {
              if (A.Sig != B.Sig)
                return A.Sig < B.Sig;
              return A.Block < B.Block;
            });
  Out.CoveragePermille = coveragePermille(Stats, 0);
  NIMG_COUNTER_ADD("nimg.split.block_rows", Out.Rows.size());
  return Out;
}

//===----------------------------------------------------------------------===//
// One-sink wrappers.
//===----------------------------------------------------------------------===//

CodeProfile nimg::analyzeCuOrder(const Program &P, const TraceCapture &Capture,
                                 SalvageStats *Stats) {
  PathGraphCache Paths(P); // Unused for cu records but required by replay.
  CodeOrderAnalysis A(P, CodeOrderAnalysis::Source::CuEnter);
  return A.finish(
      replayInto(P, Capture, TraceMode::CuOrder, Paths, A, Stats));
}

CodeProfile nimg::analyzeMethodOrder(const Program &P,
                                     const TraceCapture &Capture,
                                     PathGraphCache &Paths,
                                     SalvageStats *Stats) {
  CodeOrderAnalysis A(P, CodeOrderAnalysis::Source::MethodEnter);
  return A.finish(
      replayInto(P, Capture, TraceMode::MethodOrder, Paths, A, Stats));
}

CodeProfile nimg::analyzeSampledCuOrder(const Program &P,
                                        const TraceCapture &Capture,
                                        SalvageStats *Stats) {
  PathGraphCache Paths(P); // Unused for sample records; required by replay.
  CodeOrderAnalysis A(P, CodeOrderAnalysis::Source::SampleRoot,
                      Capture.Options.SamplePeriod);
  return A.finish(
      replayInto(P, Capture, TraceMode::Sampled, Paths, A, Stats));
}

CodeProfile nimg::analyzeSampledMethodOrder(const Program &P,
                                            const TraceCapture &Capture,
                                            SalvageStats *Stats) {
  PathGraphCache Paths(P); // Unused for sample records; required by replay.
  CodeOrderAnalysis A(P, CodeOrderAnalysis::Source::SampleMethod,
                      Capture.Options.SamplePeriod);
  return A.finish(
      replayInto(P, Capture, TraceMode::Sampled, Paths, A, Stats));
}

std::vector<int32_t> nimg::analyzeHeapAccessOrder(const Program &P,
                                                  const TraceCapture &Capture,
                                                  PathGraphCache &Paths,
                                                  SalvageStats *Stats) {
  HeapAccessAnalysis A;
  replayInto(P, Capture, TraceMode::HeapOrder, Paths, A, Stats);
  return A.finish();
}

BlockProfile nimg::analyzeBlockCounts(const Program &P,
                                      const TraceCapture &Capture,
                                      PathGraphCache &Paths,
                                      SalvageStats *Stats) {
  BlockCountAnalysis A(P);
  return A.finish(
      replayInto(P, Capture, TraceMode::MethodOrder, Paths, A, Stats));
}

HeapProfile nimg::heapProfileFor(const std::vector<int32_t> &EntryOrder,
                                 const IdTable &Ids, HeapStrategy Strategy) {
  HeapProfile P;
  P.Header.Mode = TraceMode::HeapOrder;
  P.Header.HasStrategy = true;
  P.Header.Strategy = Strategy;
  const std::vector<uint64_t> &Table = Ids.of(Strategy);
  P.Ids.reserve(EntryOrder.size());
  for (int32_t Entry : EntryOrder) {
    if (Entry < 0 || size_t(Entry) >= Table.size())
      continue;
    P.Ids.push_back(Table[size_t(Entry)]);
  }
  return P;
}
