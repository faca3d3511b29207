//===- NativeImage.h - A built image ---------------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The product of one image build: compiled code (CUs), the initialized
/// build heap and its snapshot, the byte layout of both sections, and —
/// for profiling builds — the per-object identity tables that the
/// post-processing step uses to translate traced snapshot indices into
/// strategy ids (Sec. 3: "associate an identifier to each object instance
/// to be stored in the .svm_heap section"; optimized builds do not store
/// identifiers in the binary but recompute them for matching).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_IMAGE_NATIVEIMAGE_H
#define NIMG_IMAGE_NATIVEIMAGE_H

#include "src/compiler/Inliner.h"
#include "src/compiler/Reachability.h"
#include "src/compiler/Splitter.h"
#include "src/heap/BuildHeap.h"
#include "src/heap/Snapshot.h"
#include "src/image/ImageLayout.h"
#include "src/ordering/IdStrategies.h"
#include "src/profiling/ProfileDiagnostics.h"

#include <memory>
#include <mutex>

namespace nimg {

struct AccessLog;

/// The strategy-independent stages of a build: reachability, the compiled
/// CUs and the initialized build heap. None of them reads an ordering
/// strategy, a profile or a layout knob, so every image of one base key
/// (program content, seed, analysis and inliner configuration,
/// instrumentation, structural-hash depth) shares one immutable base. A
/// base memoized in the program's build cache also keeps the
/// layout-independent access logs of the runs made on its images, from
/// which later runs of any image of the base are replayed instead of
/// interpreted. Every base also keeps, from when it is made, what its
/// layouts share of the snapshot and identity stages: the snapshot plan and
/// the identity rows no code order moves.
struct ImageBase {
  ReachabilityResult Reach;
  CompiledProgram Code;
  BuildHeapResult Built;
  /// Code roots, tail and PEA content keys of the build heap, and the
  /// identity rows of its walk at the base key's MaxDepth (both empty when
  /// build-time initialization failed, and for deserialized images).
  SnapshotPlan Plan;
  BaseIdRows IdRows;
  /// True for bases served from and stored in the program's build cache.
  /// Deserialized images and builds made under an armed compile-fault hook
  /// (or with degraded compile tasks) get a private base with this false;
  /// their runs always interpret and never record.
  bool Cached = false;
  /// The heap-path rows of the entries reached from code, per code order:
  /// the one part of the identity rows a layout moves, kept by the first
  /// build in each order.
  mutable CodePathMemo CodePaths;

  /// The recorded log for execution key \p Key, or null.
  std::shared_ptr<const AccessLog> findLog(uint64_t Key) const;
  /// Keeps \p Log for \p Key; the oldest log goes once MaxLogs are kept.
  void storeLog(uint64_t Key, std::shared_ptr<const AccessLog> Log) const;
  size_t numLogs() const;

  /// Execution keys kept per base (run modes of one program: a split and
  /// an unsplit layout, or a second quantum/fuel setting). Fixed, not a
  /// setting.
  static constexpr size_t MaxLogs = 4;

private:
  mutable std::mutex LogMu;
  mutable std::vector<std::pair<uint64_t, std::shared_ptr<const AccessLog>>>
      Logs;
};

struct NativeImage {
  const Program *P = nullptr; ///< Not owned.
  /// Reachability, CUs and build heap, shared with every image built from
  /// the same base key (see ImageBase).
  std::shared_ptr<const ImageBase> Base;
  /// This image's handle on the base's build-time initialization: the
  /// heap is the base's own (shared, immutable); the statics, metadata
  /// cells and resource table are copies.
  BuildHeapResult Built;
  /// Hot/cold splitting decisions (--split hotcold); Mode == None and an
  /// empty PerCu for unsplit builds. Serialized with the image — a
  /// deserialized split image must still know its fragment geometry to
  /// run.
  SplitResult Split;
  HeapSnapshot Snapshot;
  ImageLayout Layout;
  /// Identity tables of this build's snapshot (all three strategies).
  IdTable Ids;
  bool Instrumented = false;
  uint64_t Seed = 0;
  /// Profile-ingestion outcome of this build: whether offered profiles
  /// were applied, and why any were rejected (degradation policy).
  ProfileDiagnostics ProfileDiag;

  NativeImage() = default;
  NativeImage(NativeImage &&) = default;
  NativeImage &operator=(NativeImage &&) = default;
  NativeImage(const NativeImage &) = delete;
  NativeImage &operator=(const NativeImage &) = delete;

  const ReachabilityResult &reach() const { return Base->Reach; }
  const CompiledProgram &code() const { return Base->Code; }

  uint64_t imageBytes() const { return Layout.TextSize + Layout.HeapSize; }
};

} // namespace nimg

#endif // NIMG_IMAGE_NATIVEIMAGE_H
