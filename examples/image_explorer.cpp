//===- image_explorer.cpp - Inspecting a built image ------------------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Inspects what the build pipeline produced for a workload: section sizes,
// the first compilation units in .text, the heap snapshot broken down by
// inclusion reason (Sec. 5.3's five kinds), the largest object types, and
// the identity ids of a few snapshot objects under all three strategies.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

using namespace nimg;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "Richards";
  BenchmarkSpec Spec = awfyBenchmark(Name);
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  if (!P) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }

  BuildConfig Cfg;
  Cfg.Seed = 11;
  NativeImage Img = buildNativeImage(*P, Cfg);

  std::printf("image of AWFY '%s'\n", Name.c_str());
  std::printf("  .text:     %8llu KiB (%zu compilation units + %llu KiB "
              "native tail)\n",
              (unsigned long long)(Img.Layout.TextSize / 1024),
              Img.code().CUs.size(),
              (unsigned long long)(Img.Layout.NativeTailSize / 1024));
  std::printf("  .svm_heap: %8llu KiB (%zu stored objects, %zu elided by "
              "the PEA-style pass)\n\n",
              (unsigned long long)(Img.Layout.HeapSize / 1024),
              Img.Snapshot.numStored(),
              Img.Snapshot.Entries.size() - Img.Snapshot.numStored());

  std::printf("first CUs in .text (default order is alphabetical by root "
              "signature):\n");
  for (size_t I = 0; I < 8 && I < Img.Layout.CuOrder.size(); ++I) {
    const CompilationUnit &CU =
        Img.code().CUs[size_t(Img.Layout.CuOrder[I])];
    std::printf("  +%06llu %5u B  %s (%zu inlined copies)\n",
                (unsigned long long)
                    Img.Layout.CuOffsets[size_t(Img.Layout.CuOrder[I])],
                CU.CodeSize, Img.P->method(CU.Root).Sig.c_str(),
                CU.Copies.size() - 1);
  }

  // Snapshot breakdown by inclusion reason (of roots) and by type.
  std::map<std::string, std::pair<size_t, uint64_t>> ByReason;
  std::map<std::string, std::pair<size_t, uint64_t>> ByType;
  const Heap &H = *Img.Built.BuildHeap;
  for (const SnapshotEntry &E : Img.Snapshot.Entries) {
    if (E.Elided)
      continue;
    if (E.IsRoot) {
      std::string Key;
      switch (E.Reason.Kind) {
      case InclusionReasonKind::StaticField:
        Key = "StaticField";
        break;
      case InclusionReasonKind::Method:
        Key = "Method";
        break;
      case InclusionReasonKind::InternedString:
        Key = "InternedString";
        break;
      case InclusionReasonKind::DataSection:
        Key = "DataSection";
        break;
      case InclusionReasonKind::Resource:
        Key = "Resource";
        break;
      }
      ByReason[Key].first++;
      ByReason[Key].second += E.SizeBytes;
    }
    auto &T = ByType[H.cellTypeName(E.Cell)];
    T.first++;
    T.second += E.SizeBytes;
  }

  std::printf("\nheap roots by inclusion reason (Sec. 5.3):\n");
  for (const auto &[Key, V] : ByReason)
    std::printf("  %-16s %6zu roots, %8llu bytes\n", Key.c_str(), V.first,
                (unsigned long long)V.second);

  std::printf("\nlargest snapshot types:\n");
  std::vector<std::pair<std::string, std::pair<size_t, uint64_t>>> Types(
      ByType.begin(), ByType.end());
  std::sort(Types.begin(), Types.end(), [](const auto &A, const auto &B) {
    return A.second.second > B.second.second;
  });
  for (size_t I = 0; I < 8 && I < Types.size(); ++I)
    std::printf("  %-24s %6zu objects, %8llu bytes\n",
                Types[I].first.c_str(), Types[I].second.first,
                (unsigned long long)Types[I].second.second);

  std::printf("\nidentity ids of the first stored objects (Sec. 5):\n");
  std::printf("  %-20s %18s %18s %18s\n", "type", "incremental",
              "structural", "heap path");
  size_t Shown = 0;
  for (size_t I = 0; I < Img.Snapshot.Entries.size() && Shown < 6; ++I) {
    if (Img.Snapshot.Entries[I].Elided)
      continue;
    std::printf("  %-20s %018llx %018llx %018llx\n",
                H.cellTypeName(Img.Snapshot.Entries[I].Cell).c_str(),
                (unsigned long long)Img.Ids.IncrementalIds[I],
                (unsigned long long)Img.Ids.StructuralHashes[I],
                (unsigned long long)Img.Ids.HeapPathHashes[I]);
    ++Shown;
  }
  return 0;
}
