//===- ImageLayout.h - Binary image layout ----------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte layout of the two startup-critical image sections. `.text` holds
/// the compilation units (default: alphabetical by root signature) followed
/// by a fixed tail of statically linked native code that is never profiled
/// or reordered (the paper's Fig. 6 notes these methods at the end of
/// .text). `.svm_heap` holds the per-class static-field storage followed by
/// the snapshot objects (default: traversal order, which follows the CU
/// order per Sec. 2).
///
/// The ordering steps of Secs. 4-5 produce permutations consumed here.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_IMAGE_IMAGELAYOUT_H
#define NIMG_IMAGE_IMAGELAYOUT_H

#include "src/compiler/Inliner.h"
#include "src/compiler/Splitter.h"
#include "src/heap/Snapshot.h"
#include "src/runtime/CostModel.h"

#include <vector>

namespace nimg {

struct ImageOptions {
  /// `--huge-pages N`: map up to N huge pages (N x 2 MiB) at the front of
  /// `.text`. The huge-page region is a pure page-size overlay: no byte
  /// offset of the layout moves, so a zero budget is byte-identical to a
  /// build without the option. The effective count is clamped to the hot
  /// `.text` prefix (the profiled/ordered code before the cold and native
  /// tails) — an unfillable remainder degrades with a typed
  /// huge_budget_unfillable diagnostic instead of mapping never-touched
  /// tail bytes at huge granularity.
  uint32_t HugePages = 0;
};

struct ImageLayout {
  uint32_t PageSize = BasePageBytes;

  // .text ------------------------------------------------------------------
  std::vector<int32_t> CuOrder;    ///< CU indices in placement order.
  std::vector<uint64_t> CuOffsets; ///< Indexed by CU index; a split CU's
                                   ///< offset addresses its hot fragment.
  /// Cold-fragment offset per CU index; NotStored for unsplit CUs. Cold
  /// fragments pack into [ColdTailOffset, ColdTailOffset + ColdTailSize),
  /// after the last page the startup-hot fragments can touch and before
  /// the native tail (hot/cold splitting, --split hotcold).
  std::vector<uint64_t> CuColdOffsets;
  uint64_t ColdTailOffset = 0;
  uint64_t ColdTailSize = 0;
  uint64_t NativeTailOffset = 0;
  uint64_t NativeTailSize = 0;
  uint64_t TextSize = 0;
  /// Huge-page region at the front of `.text` (--huge-pages): the budget
  /// as requested, the effective page count after clamping to the hot
  /// prefix, and the bytes those pages nominally span. Pure overlay — no
  /// CU offset depends on these.
  uint32_t HugePagesRequested = 0;
  uint32_t HugePages = 0;
  uint64_t HugeRegionSize = 0;

  // .svm_heap ---------------------------------------------------------------
  std::vector<uint64_t> StaticsBase; ///< Per class id; offset of its statics.
  uint64_t StaticsSize = 0;
  /// Stored snapshot entry indices in placement order.
  std::vector<int32_t> ObjectOrder;
  /// Per snapshot entry index; UINT64_MAX when elided (not stored).
  std::vector<uint64_t> ObjectOffsets;
  uint64_t HeapSize = 0;

  static constexpr uint64_t NotStored = ~uint64_t(0);

  uint64_t staticSlotOffset(ClassId C, int32_t Idx) const {
    return StaticsBase[size_t(C)] + 8 * uint64_t(Idx);
  }
};

/// Computes the layout. \p CuOrder and \p ObjectOrder are the ordering
/// steps' outputs: empty means default order (CUs as compiled, objects in
/// traversal order). \p Split (optional) is the hot/cold splitting pass's
/// result: hot fragments are placed by the active strategy exactly like
/// whole CUs, cold fragments pack onto the cold tail in placement order.
/// An inactive or null \p Split yields a byte-identical layout to before
/// the splitter existed.
ImageLayout computeImageLayout(const Program &P, const CompiledProgram &CP,
                               const HeapSnapshot &Snap,
                               const std::vector<int32_t> &CuOrder,
                               const std::vector<int32_t> &ObjectOrder,
                               const ImageOptions &Opts = {},
                               const SplitResult *Split = nullptr);

} // namespace nimg

#endif // NIMG_IMAGE_IMAGELAYOUT_H
