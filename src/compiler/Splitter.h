//===- Splitter.h - Profile-guided hot/cold CU splitting --------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits compilation units into a hot and a cold fragment from per-block
/// execution counts (BlockProfile, derived from the replayed Ball-Larus
/// path profiles). The paper's orderers move *whole* CUs, so a hot CU
/// still drags its never-executed blocks — exception paths, slow paths —
/// onto startup pages; BOLT-style splitting (Panchenko et al.) exiles
/// those blocks to a cold tail packed after the last startup-touched page
/// of .text (ImageLayout), composing with every code-ordering strategy.
///
/// Decision rule, per CU: a block is *hot* when its profile count is
/// nonzero for the method of any inline copy containing it (counts are
/// keyed by method signature, so they apply to every inline copy of a
/// method). A never-executed block with both index neighbors hot and a
/// size at or below the glue threshold stays hot (fall-through glue —
/// exiling it would cost two stubs for fewer saved bytes than the stubs
/// spend). Each static CFG edge crossing the hot/cold boundary pays a stub
/// branch, charged to the source block's fragment. A CU splits only when
/// it has at least one hot and one cold block and the cold fragment saves
/// at least MinColdBytes.
///
/// Degradation: when the block profile is missing, unusable, or its
/// salvage coverage is below MinCoveragePermille, every CU stays unsplit
/// and one typed `insufficient_block_profile` issue is recorded (the build
/// still succeeds). A CU whose profile is internally inconsistent (hot
/// blocks but a cold root entry block) degrades individually with the same
/// slug. Split decisions are pure functions of the merged profile, so the
/// result — and the DecisionFingerprint folded into the build fingerprint
/// — is byte-identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_COMPILER_SPLITTER_H
#define NIMG_COMPILER_SPLITTER_H

#include "src/compiler/Inliner.h"
#include "src/profiling/Analyses.h"

#include <cstdint>
#include <vector>

namespace nimg {

enum class SplitMode : uint8_t { None, HotCold };

struct SplitOptions {
  /// Minimum salvage coverage (permille of trace words kept) the block
  /// profile must vouch for; below it, counts under-report executed blocks
  /// and a wrongly-cold block would fault on the cold tail every startup.
  uint32_t MinCoveragePermille = 900;
  /// Minimum cold bytes (before stubs) a CU must shed to be worth two
  /// fragments.
  uint32_t MinColdBytes = 32;
  /// Modeled size of one stub branch across the hot/cold boundary.
  uint32_t StubBytes = 8;
  /// Never-executed blocks at or below this size with hot index neighbors
  /// stay hot (fall-through glue).
  uint32_t GlueMaxBytes = 12;
};

/// Placement of one basic block inside its copy's fragment pair.
struct BlockPlace {
  uint32_t Offset = 0; ///< Within the CU's hot or cold fragment.
  uint32_t Size = 0;   ///< Block bytes (entry block carries the prologue).
  bool Cold = false;
};

/// One inline copy's share of a split CU. Offsets address the CU's hot
/// fragment (laid out by the code-ordering strategy) or its cold fragment
/// (packed on the cold tail).
struct CopySplit {
  uint32_t HotOffset = 0;
  uint32_t HotSize = 0; ///< Hot block bytes + hot-side stubs.
  uint32_t ColdOffset = 0;
  uint32_t ColdSize = 0; ///< Cold block bytes + cold-side stubs.
  std::vector<BlockPlace> Blocks; ///< Indexed by the method's BlockId.
};

/// Split decision for one CU. An unsplit CU has Split == false,
/// HotSize == CodeSize and no Copies. Blocks of both fragments keep block
/// index order.
struct CuSplit {
  bool Split = false;
  uint32_t HotSize = 0;
  uint32_t ColdSize = 0;
  uint32_t StubBytes = 0; ///< Total stub bytes (counted in Hot/ColdSize).
  std::vector<CopySplit> Copies;
};

/// The whole program's split decisions plus accounting. PerCu is indexed
/// like CompiledProgram::CUs.
struct SplitResult {
  SplitMode Mode = SplitMode::None;
  std::vector<CuSplit> PerCu;
  /// Order-independent hash over every per-CU decision; the Builder folds
  /// it into the build fingerprint so split and unsplit builds of the same
  /// program diverge deterministically.
  uint64_t DecisionFingerprint = 0;
  uint32_t SplitCus = 0;
  uint32_t DegradedCus = 0; ///< CUs forced unsplit by a profile problem.
  uint64_t HotBytes = 0;
  uint64_t ColdBytes = 0;
  uint64_t StubBytes = 0;
  /// Typed degradation findings (insufficient_block_profile), capped
  /// like profile ingestion issues.
  std::vector<ProfileIssue> Issues;

  bool active() const { return Mode == SplitMode::HotCold; }
};

/// Runs the splitting pass. \p Prof may be null (no block profile was
/// offered): every CU stays unsplit with a single degradation issue.
/// \p CP must be the optimized (non-instrumented) program — block sizes
/// are modeled without probes.
SplitResult splitCompiledProgram(const Program &P, const CompiledProgram &CP,
                                 const BlockProfile *Prof,
                                 const SplitOptions &Opts = {});

} // namespace nimg

#endif // NIMG_COMPILER_SPLITTER_H
