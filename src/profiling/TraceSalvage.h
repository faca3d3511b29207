//===- TraceSalvage.h - Validate and salvage trace captures -----*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace files reach post-processing through hostile conditions: a
/// SIGKILL'd run persists an arbitrary prefix (Sec. 6.1), disks flip bits,
/// per-thread files go missing. This pass validates every trace word
/// against the program and its path graphs — record kind, reserved bits,
/// method range, path-id range, and the statically known operand count of
/// each path — and recovers the *longest valid prefix* of every thread.
/// Truncating at the first invalid word matters: once a word is corrupt,
/// record alignment is lost and operand words would be misread as records,
/// so skipping (the old behavior) manufactures garbage events.
///
/// One deliberate tolerance: a heap-mode record cut mid-operands at the
/// very end of a thread (the SIGKILL signature) keeps the record and its
/// surviving operands — they are real observations.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_TRACESALVAGE_H
#define NIMG_PROFILING_TRACESALVAGE_H

#include "src/profiling/PathGraph.h"
#include "src/profiling/Trace.h"

#include <cstddef>
#include <vector>

namespace nimg {

struct SalvageOptions {
  /// Largest admissible operand word (snapshot entry count of the
  /// profiling build; operand words encode entry + 1, or 0). The default
  /// accepts any value — downstream analyses bounds-check per id table.
  uint64_t MaxOperand = ~uint64_t(0);
};

/// What salvage found and dropped. WordsKept + WordsDropped == WordsScanned.
struct SalvageStats {
  size_t WordsScanned = 0;
  size_t WordsKept = 0;
  size_t WordsDropped = 0;
  size_t ThreadsTruncated = 0; ///< Kept a nonempty proper prefix.
  size_t ThreadsDropped = 0;   ///< Nonempty thread with no valid prefix.
  size_t IncompleteTailRecords = 0; ///< Records cut mid-operands at a
                                    ///< thread's end (kept).
  /// Set by captureInMode() when the capture's trace mode does not match
  /// the requested analysis (the whole capture is ignored).
  bool ModeMismatch = false;

  bool clean() const { return WordsDropped == 0 && !ModeMismatch; }
};

/// Validates \p C without copying it. Returns the valid prefix length (in
/// words) of each thread, accumulates \p Stats, and meters the scan into
/// the nimg.salvage.* counters.
std::vector<size_t> scanCapture(const Program &P, const TraceCapture &C,
                                PathGraphCache &Paths, SalvageStats &Stats,
                                const SalvageOptions &Opts = {});

/// True when \p C is in \p Mode. Otherwise the analysis must ignore the
/// capture: counts nimg.salvage.mode_mismatch and resets \p Stats to a
/// ModeMismatch report.
bool captureInMode(const TraceCapture &C, TraceMode Mode, SalvageStats &Stats);

/// Returns a cleaned copy of \p C with every thread truncated to its valid
/// prefix. Re-scanning the result is always clean. Accepts both trace
/// encodings; the result is always in Raw (word) form.
TraceCapture salvageCapture(const Program &P, const TraceCapture &C,
                            PathGraphCache &Paths, SalvageStats &Stats,
                            const SalvageOptions &Opts = {});

/// True when any thread of \p C is in the varint-delta dump encoding.
/// Word-level consumers (scanCapture, the replay analyses) materialize
/// such captures with decodeCapture() first.
bool captureEncoded(const TraceCapture &C);

/// Raw-form copy of \p C: every varint-encoded thread is decoded back to
/// words. A byte stream cut mid-varint (SIGKILL during a dump) keeps the
/// words decoded before the cut; \p TruncatedTails (optional) counts such
/// threads.
TraceCapture decodeCapture(const TraceCapture &C,
                           size_t *TruncatedTails = nullptr);

} // namespace nimg

#endif // NIMG_PROFILING_TRACESALVAGE_H
