//===- Analyses.h - Trace post-processing analyses --------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-processing framework of Sec. 6.2: analyses consume decoded
/// trace events in execution order (threads concatenated in creation
/// order, Sec. 7.1), keep an ordered set in encounter order, and emit a
/// CSV ordering profile that the optimizing build consumes.
///
/// Ingestion is crash-tolerant: replay salvages the longest valid prefix
/// of each thread (TraceSalvage.h), and the CSV interchange carries a
/// versioned header with a payload CRC-32 and program fingerprint so a
/// truncated, bit-flipped, or stale profile is rejected with a typed
/// diagnostic instead of silently producing a garbage layout.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_ANALYSES_H
#define NIMG_PROFILING_ANALYSES_H

#include "src/ordering/IdStrategies.h"
#include "src/profiling/PathGraph.h"
#include "src/profiling/ProfileDiagnostics.h"
#include "src/profiling/Trace.h"
#include "src/profiling/TraceSalvage.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace nimg {

/// Ordering profile over code: first-execution order of CU roots (cu
/// ordering) or of all methods (method ordering).
struct CodeProfile {
  ProfileHeader Header;
  /// Fatal problem found by fromCsv(); a profile with a load error is
  /// empty and the optimizing build falls back to the default layout.
  ProfileError LoadError = ProfileError::None;
  std::vector<std::string> Sigs;
  /// Optional per-sig event counts (cu mode: cu_enter events observed for
  /// the root, summed across threads). Either empty (no count evidence —
  /// legacy and method/cluster profiles) or parallel to Sigs. The merge
  /// drift scorer compares these distributions across fleet members.
  std::vector<uint64_t> Counts;

  /// Count for \p I, treating missing count evidence as 1.
  uint64_t countAt(size_t I) const {
    return I < Counts.size() ? Counts[I] : 1;
  }

  /// Serializes header row + payload + CRC.
  std::string toCsv() const;
  /// Parses and validates; never throws or asserts on hostile input. The
  /// returned profile records any fatal problem in LoadError; pass
  /// \p Report for per-row diagnostics.
  static CodeProfile fromCsv(const std::string &Text,
                             ProfileReadReport *Report = nullptr);
};

/// Ordering profile over heap objects: first-access order of 64-bit
/// strategy ids.
struct HeapProfile {
  ProfileHeader Header;
  ProfileError LoadError = ProfileError::None;
  std::vector<uint64_t> Ids;

  std::string toCsv() const;
  static HeapProfile fromCsv(const std::string &Text,
                             ProfileReadReport *Report = nullptr);
};

/// Per-basic-block execution counts derived by replaying a MethodOrder
/// path capture — the evidence the hot/cold CU splitter consumes. Counts
/// are keyed by (method signature, block index) so they apply to every
/// inline copy of a method. CoveragePermille records how much of the raw
/// trace survived salvage when the counts were derived; the splitter
/// degrades to unsplit below its threshold (the counts of a heavily
/// truncated trace under-report executed blocks, and a block wrongly
/// believed cold would fault on the cold tail every startup).
struct BlockProfile {
  ProfileHeader Header;
  ProfileError LoadError = ProfileError::None;
  /// WordsKept * 1000 / WordsScanned of the deriving salvage scan; 1000
  /// for a clean trace, 0 when nothing was scanned.
  uint32_t CoveragePermille = 1000;

  struct Row {
    std::string Sig;
    uint32_t Block = 0;
    uint64_t Count = 0;
  };
  /// Sorted by Sig then Block.
  std::vector<Row> Rows;

  bool usable() const { return LoadError == ProfileError::None; }

  std::string toCsv() const;
  static BlockProfile fromCsv(const std::string &Text,
                              ProfileReadReport *Report = nullptr);
};

/// An event sink in the visitor style of Sec. 6.2.
class OrderingAnalysis {
public:
  virtual ~OrderingAnalysis() = default;
  /// Called before each traced thread's events. Sinks that relate
  /// consecutive events (transition edges) reset that state here:
  /// temporal adjacency exists only within one thread.
  virtual void onThreadBegin() {}
  virtual void onCuEnter(MethodId Root) { (void)Root; }
  virtual void onMethodEnter(MethodId M) { (void)M; }
  /// One periodic sample from a Sampled-mode capture: the method that was
  /// executing at the sample tick and its enclosing CU root.
  virtual void onSample(MethodId M, MethodId Root) {
    (void)M;
    (void)Root;
  }
  /// One basic-block visit decoded from a path record (method/heap modes;
  /// consecutive duplicates within one path are collapsed).
  virtual void onBlockVisit(MethodId M, BlockId B) {
    (void)M;
    (void)B;
  }
  /// \p SnapshotEntry is the traced image-object index (already >= 0).
  virtual void onObjectAccess(int32_t SnapshotEntry) { (void)SnapshotEntry; }
};

/// The one replay loop: decodes an encoded capture, salvages each
/// thread's longest valid prefix in one scan, decodes path records via
/// \p Paths, and dispatches events to every sink in \p Analyses in
/// execution order — threads replayed serially in creation order
/// (Sec. 7.1), each preceded by onThreadBegin(). \p Stats (optional)
/// reports what salvage dropped. The trace mode is not checked; see
/// captureInMode().
void replayTrace(const Program &P, const TraceCapture &Capture,
                 PathGraphCache &Paths,
                 const std::vector<OrderingAnalysis *> &Analyses,
                 SalvageStats *Stats = nullptr);

/// Ids in first-seen order with per-id event counts.
template <typename Id> class FirstSeenOrder {
public:
  void note(Id V) {
    auto [It, Fresh] = Index.try_emplace(V, Order.size());
    if (Fresh) {
      Order.push_back(V);
      Hits.push_back(0);
    }
    ++Hits[It->second];
  }
  std::vector<Id> Order;
  std::vector<uint64_t> Hits; ///< Parallel to Order.

private:
  std::unordered_map<Id, size_t> Index;
};

/// Sink for the code-ordering profiles: methods ranked by the first
/// occurrence of one event kind.
class CodeOrderAnalysis : public OrderingAnalysis {
public:
  enum class Source : uint8_t {
    CuEnter,      ///< CU roots by first entry (Sec. 4.1), with entry counts.
    MethodEnter,  ///< Methods by first entry (Sec. 4.2), no counts.
    SampleRoot,   ///< CU roots by earliest sample, with hit counts.
    SampleMethod, ///< Sampled methods by earliest sample, with hit counts.
  };
  /// \p SamplePeriod stamps the header of the two sampled sources.
  CodeOrderAnalysis(const Program &P, Source S, uint64_t SamplePeriod = 0)
      : P(P), S(S), SamplePeriod(SamplePeriod) {}

  void onCuEnter(MethodId Root) override;
  void onMethodEnter(MethodId M) override;
  void onSample(MethodId M, MethodId Root) override;

  /// The profile, with header coverage from the replay's \p Stats. Sampled
  /// sources are stamped Capture=Sampled with the cu or method mode, so
  /// they flow through the instrumented ingestion paths unchanged.
  CodeProfile finish(const SalvageStats &Stats) const;

private:
  const Program &P;
  Source S;
  uint64_t SamplePeriod;
  FirstSeenOrder<MethodId> Ids;
};

/// Sink for the heap ordering: snapshot entries by first access.
class HeapAccessAnalysis : public OrderingAnalysis {
public:
  void onObjectAccess(int32_t Entry) override { Entries.note(Entry); }
  std::vector<int32_t> finish() const { return Entries.Order; }

private:
  FirstSeenOrder<int32_t> Entries;
};

/// Sink for per-block execution counts, keyed by (method, block).
class BlockCountAnalysis : public OrderingAnalysis {
public:
  explicit BlockCountAnalysis(const Program &P) : P(P) {}
  void onBlockVisit(MethodId M, BlockId B) override {
    ++Counts[(uint64_t(uint32_t(M)) << 32) | uint32_t(B)];
  }
  /// The profile; CoveragePermille comes from \p Stats (0 when nothing was
  /// scanned).
  BlockProfile finish(const SalvageStats &Stats) const;

private:
  const Program &P;
  std::unordered_map<uint64_t, uint64_t> Counts;
};

// One-sink wrappers over replayTrace(). A capture in the wrong mode yields
// an empty result (and sets Stats->ModeMismatch) instead of asserting —
// trace files are external input.

/// The cu-ordering profile (Sec. 4.1) from a CuOrder-mode capture.
CodeProfile analyzeCuOrder(const Program &P, const TraceCapture &Capture,
                           SalvageStats *Stats = nullptr);

/// The method-ordering profile (Sec. 4.2) from a MethodOrder-mode capture.
CodeProfile analyzeMethodOrder(const Program &P, const TraceCapture &Capture,
                               PathGraphCache &Paths,
                               SalvageStats *Stats = nullptr);

/// Rank reconstruction from a Sampled-mode capture at CU granularity: CU
/// roots ordered by their earliest sample, counts = sample hits per root,
/// stamped Mode=cu with Capture=Sampled and the capture's period.
CodeProfile analyzeSampledCuOrder(const Program &P, const TraceCapture &Capture,
                                  SalvageStats *Stats = nullptr);

/// Same reconstruction at method granularity (Mode=method, for
/// `--code method` builds).
CodeProfile analyzeSampledMethodOrder(const Program &P,
                                      const TraceCapture &Capture,
                                      SalvageStats *Stats = nullptr);

/// First-access order of snapshot entries from a HeapOrder-mode capture.
std::vector<int32_t> analyzeHeapAccessOrder(const Program &P,
                                            const TraceCapture &Capture,
                                            PathGraphCache &Paths,
                                            SalvageStats *Stats = nullptr);

/// Translates a first-access entry order into a strategy-id profile using
/// the profiling build's identity table.
HeapProfile heapProfileFor(const std::vector<int32_t> &EntryOrder,
                           const IdTable &Ids, HeapStrategy Strategy);

/// Per-block execution counts from a MethodOrder-mode capture.
BlockProfile analyzeBlockCounts(const Program &P, const TraceCapture &Capture,
                                PathGraphCache &Paths,
                                SalvageStats *Stats = nullptr);

} // namespace nimg

#endif // NIMG_PROFILING_ANALYSES_H
