//===- IdStrategiesTest.cpp - Alg. 1-3 identity-strategy tests --------------===//

#include "src/core/Evaluation.h"
#include "src/lang/Compile.h"
#include "src/obs/Metrics.h"
#include "src/ordering/IdStrategies.h"
#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

using namespace nimg;

namespace {

/// A small program with enough heap-snapshot variety for the strategies:
/// strings, arrays, linked objects, and class metadata.
struct SnapFixture {
  Program P;
  NativeImage Img;

  SnapFixture(uint64_t Seed = 5) {
    std::vector<std::string> Errors;
    bool Ok = compileSources(
        {"class Node { int k; Node next;\n"
         "  Node(int k, Node next) { this.k = k; this.next = next; } }\n"
         "class Registry {\n"
         "  static String name = \"registry\";\n"
         "  static String[] labels = new String[3];\n"
         "  static Node chain = new Node(1, new Node(2, new Node(3, null)));\n"
         "  static int[] codes = new int[5];\n"
         "  static {\n"
         "    for (int i = 0; i < 3; i = i + 1) {"
         "      labels[i] = name + \"-\" + i; }\n"
         "    for (int i = 0; i < 5; i = i + 1) { codes[i] = i * i; }\n"
         "  }\n"
         "}\n"
         "class Main { static int main() {\n"
         "  return Str.length(Registry.name) + Registry.codes[2]; } }"},
        P, Errors);
    EXPECT_TRUE(Ok);
    for (auto &E : Errors)
      ADD_FAILURE() << E;
    BuildConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.EnablePea = false; // keep all objects for exact comparisons
    Img = buildNativeImage(P, Cfg);
  }
};

/// Alg. 3 as the concatenation it hashes: the path pieces appended to one
/// buffer, hashed once. heapPathHashOf() streams the same pieces.
uint64_t concatenatedHeapPathHash(const Program &P, const Heap &H,
                                  const HeapSnapshot &Snap, int32_t Entry) {
  const SnapshotEntry &E = Snap.Entries[size_t(Entry)];
  ByteBuffer Bytes;
  if (E.IsRoot && E.Reason.Kind == InclusionReasonKind::InternedString) {
    Bytes.appendString(H.cell(E.Cell).Str);
    return murmurHash3(Bytes.bytes());
  }
  for (int32_t Cur = Entry;;) {
    const SnapshotEntry &CurE = Snap.Entries[size_t(Cur)];
    Bytes.appendString(H.cellTypeName(CurE.Cell));
    if (CurE.IsRoot) {
      Bytes.appendString(CurE.Reason.str());
      break;
    }
    const HeapCell &Parent = H.cell(Snap.Entries[size_t(CurE.ParentEntry)].Cell);
    if (Parent.Kind == CellKind::Array) {
      Bytes.appendU32(uint32_t(CurE.ParentSlot));
    } else {
      const Field &F = P.layout(Parent.Class)[size_t(CurE.ParentSlot)];
      Bytes.appendString(P.classDef(F.Owner).Name + "." + F.Name + ":" +
                         P.typeName(F.Type));
    }
    Cur = CurE.ParentEntry;
  }
  return murmurHash3(Bytes.bytes());
}

} // namespace

TEST(HeapPath, StreamedHashEqualsConcatenatedHash) {
  SnapFixture F;
  const Heap &H = *F.Img.Built.BuildHeap;
  ASSERT_FALSE(F.Img.Snapshot.Entries.empty());
  for (size_t I = 0; I < F.Img.Snapshot.Entries.size(); ++I)
    EXPECT_EQ(heapPathHashOf(F.P, H, F.Img.Snapshot, int32_t(I)),
              concatenatedHeapPathHash(F.P, H, F.Img.Snapshot, int32_t(I)))
        << "entry " << I;
}

TEST(IncrementalId, HighBitsAreTheTypeLowBitsCount) {
  SnapFixture F;
  const Heap &H = *F.Img.Built.BuildHeap;
  std::unordered_map<uint32_t, uint32_t> MaxCounter;
  std::unordered_map<uint32_t, std::string> TypeOf;
  for (size_t I = 0; I < F.Img.Snapshot.Entries.size(); ++I) {
    uint64_t Id = F.Img.Ids.IncrementalIds[I];
    ASSERT_NE(Id, 0u);
    uint32_t Type = uint32_t(Id >> 32);
    uint32_t Counter = uint32_t(Id);
    auto [It, Inserted] =
        TypeOf.emplace(Type, H.cellTypeName(F.Img.Snapshot.Entries[I].Cell));
    if (!Inserted)
      EXPECT_EQ(It->second, H.cellTypeName(F.Img.Snapshot.Entries[I].Cell))
          << "type-id collision";
    // Counters are dense, per type, in encounter order.
    EXPECT_EQ(Counter, MaxCounter[Type] + 1);
    MaxCounter[Type] = Counter;
  }
}

TEST(IncrementalId, UniquePerSnapshot) {
  SnapFixture F;
  std::set<uint64_t> Seen(F.Img.Ids.IncrementalIds.begin(),
                          F.Img.Ids.IncrementalIds.end());
  EXPECT_EQ(Seen.size(), F.Img.Ids.IncrementalIds.size());
}

TEST(StructuralHash, DeterministicAndContentSensitive) {
  SnapFixture F;
  // A private copy: the image's build heap is shared and immutable.
  Heap H = *F.Img.Built.BuildHeap;
  // Find the chain head (a Node whose next is a Node).
  ClassId NodeC = F.P.findClass("Node");
  CellIdx Head = -1;
  for (const SnapshotEntry &E : F.Img.Snapshot.Entries) {
    const HeapCell &C = H.cell(E.Cell);
    if (C.Kind == CellKind::Object && C.Class == NodeC &&
        C.Slots[0].asInt() == 1) {
      Head = E.Cell;
      break;
    }
  }
  ASSERT_NE(Head, -1);
  uint64_t H1 = structuralHashOf(F.P, H, Head, 2);
  EXPECT_EQ(H1, structuralHashOf(F.P, H, Head, 2));
  // Mutating a primitive field changes the hash.
  H.cell(Head).Slots[0] = Value::makeInt(99);
  EXPECT_NE(H1, structuralHashOf(F.P, H, Head, 2));
}

TEST(StructuralHash, DepthGatesNeighbourSensitivity) {
  SnapFixture F;
  // A private copy: the image's build heap is shared and immutable.
  Heap H = *F.Img.Built.BuildHeap;
  ClassId NodeC = F.P.findClass("Node");
  CellIdx Head = -1;
  for (const SnapshotEntry &E : F.Img.Snapshot.Entries) {
    const HeapCell &C = H.cell(E.Cell);
    if (C.Kind == CellKind::Object && C.Class == NodeC &&
        C.Slots[0].asInt() == 1)
      Head = E.Cell;
  }
  ASSERT_NE(Head, -1);
  uint64_t Shallow = structuralHashOf(F.P, H, Head, 0);
  uint64_t Deep = structuralHashOf(F.P, H, Head, 3);
  // Mutate the SECOND node's key: invisible at depth 0, visible at 3.
  CellIdx Second = H.cell(Head).Slots[1].asRef();
  H.cell(Second).Slots[0] = Value::makeInt(42);
  EXPECT_EQ(Shallow, structuralHashOf(F.P, H, Head, 0));
  EXPECT_NE(Deep, structuralHashOf(F.P, H, Head, 3));
}

TEST(StructuralHash, StringsHashTheirContents) {
  SnapFixture A(1), B(2); // different build seeds
  // Find "registry" in both snapshots: same content => same hash.
  auto FindString = [](SnapFixture &F, const std::string &S) -> uint64_t {
    const Heap &H = *F.Img.Built.BuildHeap;
    for (size_t I = 0; I < F.Img.Snapshot.Entries.size(); ++I) {
      const HeapCell &C = H.cell(F.Img.Snapshot.Entries[I].Cell);
      if (C.Kind == CellKind::String && C.Str == S)
        return F.Img.Ids.StructuralHashes[I];
    }
    return 0;
  };
  uint64_t HA = FindString(A, "registry-1");
  uint64_t HB = FindString(B, "registry-1");
  ASSERT_NE(HA, 0u);
  EXPECT_EQ(HA, HB) << "same content must hash equally across builds";
}

TEST(HeapPath, StableAcrossSeedsForStaticRoots) {
  SnapFixture A(1), B(2);
  // Per-object heap-path ids of statics-rooted objects agree across
  // builds: the path (root static field, field descriptors, indices) is
  // structural, not order-dependent.
  auto PathIdsOf = [](SnapFixture &F) {
    std::set<uint64_t> Out;
    for (size_t I = 0; I < F.Img.Snapshot.Entries.size(); ++I)
      Out.insert(F.Img.Ids.HeapPathHashes[I]);
    return Out;
  };
  std::set<uint64_t> SA = PathIdsOf(A), SB = PathIdsOf(B);
  // Count the overlap: everything except class metadata (whose initSeq
  // does not enter the path hash) should agree -> near-total overlap.
  size_t Common = 0;
  for (uint64_t Id : SA)
    Common += SB.count(Id);
  EXPECT_GT(Common * 10, SA.size() * 9)
      << "heap-path ids should be largely stable across builds";
}

TEST(HeapPath, InternedStringRootsHashContents) {
  // Two interned strings with different contents must differ even though
  // their "path" (the intern table) is the same — Alg. 3 lines 4-5.
  SnapFixture F;
  const Heap &H = *F.Img.Built.BuildHeap;
  std::vector<uint64_t> StringRootHashes;
  for (size_t I = 0; I < F.Img.Snapshot.Entries.size(); ++I) {
    const SnapshotEntry &E = F.Img.Snapshot.Entries[I];
    if (E.IsRoot && E.Reason.Kind == InclusionReasonKind::InternedString)
      StringRootHashes.push_back(F.Img.Ids.HeapPathHashes[I]);
  }
  std::set<uint64_t> Unique(StringRootHashes.begin(), StringRootHashes.end());
  EXPECT_EQ(Unique.size(), StringRootHashes.size());
  (void)H;
}

TEST(IdTable, ElidedEntriesGetZeroIds) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources(
      {"class Box { int v; String tag;\n"
       "  Box(int v, String tag) { this.v = v; this.tag = tag; } }\n"
       "class R { static Box[] boxes = new Box[40];\n"
       "  static { for (int i = 0; i < boxes.length; i = i + 1) {\n"
       "    boxes[i] = new Box(i, \"box\" + i); } } }\n"
       "class Main { static int main() { return R.boxes.length; } }"},
      P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 3;
  Cfg.EnablePea = true;
  Cfg.PeaRate = 2; // elide aggressively so some Box goes away
  NativeImage Img = buildNativeImage(P, Cfg);
  size_t Elided = 0;
  for (size_t I = 0; I < Img.Snapshot.Entries.size(); ++I) {
    if (Img.Snapshot.Entries[I].Elided) {
      ++Elided;
      EXPECT_EQ(Img.Ids.IncrementalIds[I], 0u);
      EXPECT_EQ(Img.Ids.StructuralHashes[I], 0u);
      EXPECT_EQ(Img.Ids.HeapPathHashes[I], 0u);
    }
  }
  EXPECT_GT(Elided, 0u) << "PEA elided nothing at rate 2";
}

//===----------------------------------------------------------------------===//
// The base's structural-hash memo: memoized tables equal fresh ones.
//===----------------------------------------------------------------------===//

namespace {

void expectFreshTable(const Program &P, const NativeImage &Img, int MaxDepth,
                      const std::string &Ctx) {
  IdTable Fresh = computeIdTable(P, *Img.Built.BuildHeap, Img.Snapshot,
                                 MaxDepth, /*Memo=*/nullptr);
  EXPECT_EQ(Img.Ids.IncrementalIds, Fresh.IncrementalIds) << Ctx;
  EXPECT_EQ(Img.Ids.StructuralHashes, Fresh.StructuralHashes) << Ctx;
  EXPECT_EQ(Img.Ids.HeapPathHashes, Fresh.HeapPathHashes) << Ctx;
}

class StructuralHashMemoOracle
    : public testing::TestWithParam<std::string> {};

std::vector<std::string> memoOraclePrograms() {
  std::vector<std::string> Out = awfyBenchmarkNames();
  for (const std::string &M : microserviceNames())
    Out.push_back(M);
  return Out;
}

} // namespace

TEST_P(StructuralHashMemoOracle, WarmBuildsMatchFreshTables) {
  bool Micro = false;
  for (const std::string &M : microserviceNames())
    Micro |= M == GetParam();
  BenchmarkSpec Spec = Micro ? microserviceBenchmark(GetParam())
                             : awfyBenchmark(GetParam());
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  ASSERT_TRUE(P) << (Errors.empty() ? "" : Errors.front());
  BuildConfig Instr;
  Instr.Seed = 1001;
  RunConfig RC;
  RC.StopAtFirstResponse = Spec.Microservice;
  CollectedProfiles Prof = collectProfiles(*P, Instr, RC);

  // Every build after the first of a seed reads the memo its predecessors
  // filled; each must equal a table computed from scratch.
  for (uint64_t Seed : {7u, 11u})
    for (const PaperVariant &V : PaperVariants) {
      BuildConfig Base;
      Base.Seed = Seed;
      NativeImage Img = buildNativeImage(*P, variantConfig(V, Base, Prof));
      ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
      ASSERT_TRUE(Img.Base->Cached);
      expectFreshTable(*P, Img, DefaultStructuralMaxDepth,
                       std::string(V.Name) + " seed " + std::to_string(Seed));
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, StructuralHashMemoOracle,
                         testing::ValuesIn(memoOraclePrograms()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(StructuralHashMemo, DepthChangesRefillTheMemo) {
  SnapFixture F; // Warms the base at the default depth.
  for (int Depth : {1, 2, 3, 2}) {
    BuildConfig Cfg;
    Cfg.Seed = 5;
    Cfg.EnablePea = false;
    Cfg.StructuralMaxDepth = Depth;
    NativeImage Img = buildNativeImage(F.P, Cfg);
    EXPECT_EQ(Img.Base, F.Img.Base);
    expectFreshTable(F.P, Img, Depth, "depth " + std::to_string(Depth));
  }
}

#ifndef NIMG_OBS_DISABLED
TEST(StructuralHashMemo, SecondBuildOfABaseComputesNoRootHash) {
  auto Count = [](const char *Name) {
    return obs::MetricsRegistry::global().counter(Name).value();
  };
  SnapFixture F;
  uint64_t Computed0 = Count("nimg.ids.structural_computed");
  uint64_t Reused0 = Count("nimg.ids.structural_reused");
  BuildConfig Cfg;
  Cfg.Seed = 5;
  Cfg.EnablePea = false;
  NativeImage Again = buildNativeImage(F.P, Cfg);
  EXPECT_EQ(Again.Base, F.Img.Base);
  EXPECT_EQ(Count("nimg.ids.structural_computed"), Computed0);
  EXPECT_EQ(Count("nimg.ids.structural_reused") - Reused0,
            Again.Snapshot.numStored());
  EXPECT_EQ(Again.Ids.StructuralHashes, F.Img.Ids.StructuralHashes);
}
#endif
