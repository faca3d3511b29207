//===- TraceSalvage.cpp - Validate and salvage trace captures -----------------===//

#include "src/profiling/TraceSalvage.h"

#include "src/obs/Metrics.h"

using namespace nimg;

namespace {

/// Longest valid prefix (in words) of one thread's trace. Sets
/// \p IncompleteTail when the thread ends inside a record's operand run.
size_t scanThread(const Program &P, TraceMode Mode,
                  const std::vector<uint64_t> &Words, PathGraphCache &Paths,
                  const SalvageOptions &Opts, bool &IncompleteTail) {
  size_t I = 0;
  while (I < Words.size()) {
    uint64_t W = Words[I];
    if (Mode == TraceMode::CuOrder) {
      // CU-entry records use bits [3, 35) for the root method; anything
      // else is corruption.
      if (!tracerec::isCuEnter(W) || (W >> 35) != 0)
        return I;
      MethodId Root = tracerec::cuRoot(W);
      if (Root < 0 || size_t(Root) >= P.numMethods())
        return I;
      ++I;
      continue;
    }
    if (Mode == TraceMode::Sampled) {
      // Sample records: bits [59, 64) are reserved, and both the sampled
      // method and its CU root must exist in the program.
      if (!tracerec::isSample(W) || (W >> 59) != 0)
        return I;
      MethodId M = tracerec::sampleMethod(W);
      MethodId Root = tracerec::sampleRoot(W);
      if (M < 0 || size_t(M) >= P.numMethods() || Root < 0 ||
          size_t(Root) >= P.numMethods())
        return I;
      ++I;
      continue;
    }
    // Method/heap traces hold path records: bits [56, 64) are reserved,
    // the method must exist, and the path id must decode in its graph.
    if (!tracerec::isPath(W) || (W >> 56) != 0)
      return I;
    MethodId M = tracerec::pathMethod(W);
    if (M < 0 || size_t(M) >= P.numMethods())
      return I;
    const PathGraph &G = Paths.of(M);
    if (tracerec::pathId(W) >= G.numPaths())
      return I;
    ++I;
    if (Mode != TraceMode::HeapOrder)
      continue;
    // The path statically determines how many operand words follow.
    uint32_t Need = G.decode(tracerec::pathId(W)).OperandCount;
    uint32_t Have = 0;
    while (Have < Need && I < Words.size()) {
      uint64_t Op = Words[I];
      if (Op != 0 && Op > Opts.MaxOperand)
        return I; // Corrupt operand: keep the record, cut before it.
      ++I;
      ++Have;
    }
    if (Have < Need)
      IncompleteTail = true; // SIGKILL landed mid-record; keep the prefix.
  }
  return Words.size();
}

} // namespace

std::vector<size_t> nimg::scanCapture(const Program &P, const TraceCapture &C,
                                      PathGraphCache &Paths,
                                      SalvageStats &Stats,
                                      const SalvageOptions &Opts) {
  std::vector<size_t> Prefix(C.Threads.size(), 0);
  SalvageStats Delta;
  for (size_t T = 0; T < C.Threads.size(); ++T) {
    const std::vector<uint64_t> &Words = C.Threads[T].Words;
    bool IncompleteTail = false;
    size_t Valid =
        scanThread(P, C.Options.Mode, Words, Paths, Opts, IncompleteTail);
    Prefix[T] = Valid;
    Delta.WordsScanned += Words.size();
    Delta.WordsKept += Valid;
    Delta.WordsDropped += Words.size() - Valid;
    if (IncompleteTail)
      ++Delta.IncompleteTailRecords;
    if (Valid < Words.size()) {
      if (Valid == 0)
        ++Delta.ThreadsDropped;
      else
        ++Delta.ThreadsTruncated;
    }
  }
  Stats.WordsScanned += Delta.WordsScanned;
  Stats.WordsKept += Delta.WordsKept;
  Stats.WordsDropped += Delta.WordsDropped;
  Stats.ThreadsTruncated += Delta.ThreadsTruncated;
  Stats.ThreadsDropped += Delta.ThreadsDropped;
  Stats.IncompleteTailRecords += Delta.IncompleteTailRecords;
  NIMG_COUNTER_ADD("nimg.salvage.scans", 1);
  NIMG_COUNTER_ADD("nimg.salvage.words_scanned", Delta.WordsScanned);
  NIMG_COUNTER_ADD("nimg.salvage.words_kept", Delta.WordsKept);
  NIMG_COUNTER_ADD("nimg.salvage.words_dropped", Delta.WordsDropped);
  NIMG_COUNTER_ADD("nimg.salvage.threads_truncated", Delta.ThreadsTruncated);
  NIMG_COUNTER_ADD("nimg.salvage.threads_dropped", Delta.ThreadsDropped);
  NIMG_COUNTER_ADD("nimg.salvage.incomplete_tail_records",
                   Delta.IncompleteTailRecords);
  return Prefix;
}

bool nimg::captureInMode(const TraceCapture &C, TraceMode Mode,
                         SalvageStats &Stats) {
  if (C.Options.Mode == Mode)
    return true;
  NIMG_COUNTER_ADD("nimg.salvage.mode_mismatch", 1);
  Stats = SalvageStats{};
  Stats.ModeMismatch = true;
  return false;
}

bool nimg::captureEncoded(const TraceCapture &C) {
  for (const ThreadTrace &T : C.Threads)
    if (T.Encoded)
      return true;
  return false;
}

TraceCapture nimg::decodeCapture(const TraceCapture &C,
                                 size_t *TruncatedTails) {
  TraceCapture Out;
  Out.Options = C.Options;
  Out.Options.Encoding = TraceEncoding::Raw;
  Out.Threads.resize(C.Threads.size());
  size_t Cut = 0;
  for (size_t T = 0; T < C.Threads.size(); ++T)
    if (!C.Threads[T].decodeWords(Out.Threads[T].Words))
      ++Cut;
  if (TruncatedTails)
    *TruncatedTails += Cut;
  return Out;
}

TraceCapture nimg::salvageCapture(const Program &P, const TraceCapture &C,
                                  PathGraphCache &Paths, SalvageStats &Stats,
                                  const SalvageOptions &Opts) {
  if (captureEncoded(C)) {
    // Word-cut varint tails are records cut mid-word: the same SIGKILL
    // signature scanThread tracks for operand runs.
    size_t Cut = 0;
    TraceCapture Decoded = decodeCapture(C, &Cut);
    TraceCapture Out = salvageCapture(P, Decoded, Paths, Stats, Opts);
    Stats.IncompleteTailRecords += Cut;
    return Out;
  }
  std::vector<size_t> Prefix = scanCapture(P, C, Paths, Stats, Opts);
  TraceCapture Out;
  Out.Options = C.Options;
  Out.Threads.resize(C.Threads.size());
  for (size_t T = 0; T < C.Threads.size(); ++T) {
    const std::vector<uint64_t> &Words = C.Threads[T].Words;
    Out.Threads[T].Words.assign(Words.begin(),
                                Words.begin() + ptrdiff_t(Prefix[T]));
  }
  return Out;
}
