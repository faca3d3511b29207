//===- ImageFileTest.cpp - Image serialization round-trip tests -------------===//

#include "src/core/Builder.h"
#include "src/core/Evaluation.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/runtime/ExecEngine.h"
#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

using namespace nimg;

namespace {

const char *kSource = R"MJ(
class Pair { int a; String label;
  Pair(int a, String label) { this.a = a; this.label = label; } }
class Registry {
  static String banner = "serialized";
  static Pair[] pairs = new Pair[6];
  static {
    for (int i = 0; i < pairs.length; i = i + 1) {
      pairs[i] = new Pair(i, banner + "-" + i);
    }
  }
}
class ColdPath {
  static int classify(int x) {
    int y = x + 1;
    if (x < 0) {
      y = x * x;
      y = y * 3 + 7;
      y = y - x * 5;
      y = y + 11;
    }
    return y;
  }
}
class Main { static int main() {
  String same1 = "shared-literal";
  String same2 = "shared-literal";
  int id = 0;
  if (same1 == same2) { id = 1; }
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) { acc = acc + ColdPath.classify(i); }
  Sys.print(Registry.banner + ":" + Registry.pairs[3].a + ":" + id);
  return Registry.pairs.length;
} }
)MJ";

struct Fixture {
  Program P;
  NativeImage Img;

  Fixture() {
    std::vector<std::string> Errors;
    bool Ok = compileSources({kSource}, P, Errors);
    EXPECT_TRUE(Ok);
    for (auto &E : Errors)
      ADD_FAILURE() << E;
    BuildConfig Cfg;
    Cfg.Seed = 21;
    Img = buildNativeImage(P, Cfg);
  }
};

uint32_t readU32(const std::vector<uint8_t> &B, size_t At) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= uint32_t(B.at(At + size_t(I))) << (8 * I);
  return V;
}

void writeU32(std::vector<uint8_t> &B, size_t At, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.at(At + size_t(I)) = uint8_t(V >> (8 * I));
}

/// Byte offsets of the counts and records of a serialized image, found by
/// walking the encoding independently of the loader.
struct ImageMap {
  size_t CuCount = 0;
  size_t CellCount = 0;
  std::vector<size_t> Cells; ///< Each cell's kind byte.
  size_t StaticRows = 0;
  size_t MetaCells = 0;
  size_t Resources = 0;
  size_t EntryCount = 0;
  std::vector<size_t> Entries; ///< Each snapshot entry's first byte.
  size_t IdTables[3] = {};

  explicit ImageMap(const std::vector<uint8_t> &B) {
    size_t At = 4 + 8 + 1 + 8;
    for (int K = 0; K < 4; ++K) // reachability bit vectors
      At += 4 + readU32(B, At);
    At += 1 + 8;
    At += 4 + 4 * size_t(readU32(B, At)); // CU of each method
    CuCount = At;
    uint32_t NumCus = readU32(B, At);
    At += 4;
    for (uint32_t C = 0; C < NumCus; ++C)
      At += 12 + 20 * size_t(readU32(B, At + 8));
    CellCount = At;
    uint32_t NumCells = readU32(B, At);
    At += 4;
    for (uint32_t C = 0; C < NumCells; ++C) {
      Cells.push_back(At);
      At += 9;
      At += 4 + 9 * size_t(readU32(B, At)); // slots
      At += 4 + readU32(B, At) + 1;         // string + interned flag
    }
    StaticRows = At;
    uint32_t NumRows = readU32(B, At);
    At += 4;
    for (uint32_t R = 0; R < NumRows; ++R)
      At += 4 + 9 * size_t(readU32(B, At));
    At += 4 + 4 * size_t(readU32(B, At)); // init order
    MetaCells = At;
    At += 4 + 4 * size_t(readU32(B, At));
    Resources = At;
    uint32_t NumResources = readU32(B, At);
    At += 4;
    for (uint32_t R = 0; R < NumResources; ++R)
      At += 4 + readU32(B, At) + 4;
    EntryCount = At;
    uint32_t NumEntries = readU32(B, At);
    At += 4;
    for (uint32_t E = 0; E < NumEntries; ++E) {
      Entries.push_back(At);
      At += 10 + 4 + readU32(B, At + 10) + 8;
    }
    for (size_t &T : IdTables) {
      T = At;
      At += 4 + 8 * size_t(readU32(B, At));
    }
  }

  /// Offsets of the kind bytes of every slot value of cell \p C.
  std::vector<size_t> slotsOf(const std::vector<uint8_t> &B, size_t C) const {
    std::vector<size_t> Out;
    size_t At = Cells[C] + 9;
    uint32_t N = readU32(B, At);
    for (uint32_t K = 0; K < N; ++K)
      Out.push_back(At + 4 + 9 * size_t(K));
    return Out;
  }
};

/// The largest single allocation requested while armed. The loader test
/// arms it around a load of a corrupt image; any request over the cap is
/// refused with bad_alloc rather than served, so a count that was not
/// checked before reserving fails the test instead of exhausting memory.
std::atomic<bool> AllocWatchArmed{false};
std::atomic<size_t> LargestAlloc{0};
constexpr size_t kAllocCap = size_t(256) << 20;

std::unique_ptr<Program> compileSpec(const BenchmarkSpec &Spec) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  return P;
}

} // namespace

// The watch replaces every non-aligned allocation function, so that under
// ASan too each allocation and its release go through the same pair.
static void *watchedAlloc(std::size_t N) noexcept {
  if (AllocWatchArmed.load(std::memory_order_relaxed)) {
    size_t Seen = LargestAlloc.load(std::memory_order_relaxed);
    while (N > Seen && !LargestAlloc.compare_exchange_weak(Seen, N))
      ;
    if (N > kAllocCap)
      return nullptr;
  }
  return std::malloc(N ? N : 1);
}
static void *watchedAllocOrThrow(std::size_t N) {
  if (void *P = watchedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N) { return watchedAllocOrThrow(N); }
void *operator new[](std::size_t N) { return watchedAllocOrThrow(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return watchedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return watchedAlloc(N);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

TEST(ImageFile, FingerprintIsStableAndSensitive) {
  Fixture F;
  EXPECT_EQ(programFingerprint(F.P), programFingerprint(F.P));
  Program Other;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({"class Main { static int main() { return 1; } "
                              "}"},
                             Other, Errors));
  EXPECT_NE(programFingerprint(F.P), programFingerprint(Other));
}

TEST(ImageFile, FingerprintMatchesTheBufferedEncoding) {
  // Image and profile headers carry the fingerprint, so hashing the
  // encoding as it is produced must give exactly the digest of the whole
  // encoding collected first.
  Fixture F;
  const Program &P = F.P;
  ByteBuffer B;
  for (size_t C = 0; C < P.numClasses(); ++C) {
    const ClassDef &Def = P.classDef(ClassId(C));
    B.appendSizedString(Def.Name);
    B.appendU32(uint32_t(Def.Super + 1));
    for (const Field &Fd : Def.InstanceFields) {
      B.appendSizedString(Fd.Name);
      B.appendSizedString(P.typeName(Fd.Type));
    }
    for (const Field &Fd : Def.StaticFields) {
      B.appendSizedString(Fd.Name);
      B.appendSizedString(P.typeName(Fd.Type));
    }
  }
  for (size_t M = 0; M < P.numMethods(); ++M) {
    const Method &Meth = P.method(MethodId(M));
    B.appendSizedString(Meth.Sig);
    B.appendU32(uint32_t(Meth.Blocks.size()));
    for (const BasicBlock &BB : Meth.Blocks) {
      B.appendU32(uint32_t(BB.Instrs.size()));
      for (const Instr &In : BB.Instrs) {
        B.appendU8(uint8_t(In.Op));
        B.appendU32(uint32_t(In.Dst) | (uint32_t(In.A) << 16));
        B.appendU32(uint32_t(In.B) | (uint32_t(In.C) << 16));
        B.appendI64(In.IImm);
        B.appendF64(In.FImm);
        B.appendU32(uint32_t(In.Aux));
        B.appendU32(uint32_t(In.Aux2));
        B.appendU32(uint32_t(In.Target));
      }
    }
  }
  for (size_t S = 0; S < P.numStrings(); ++S)
    B.appendSizedString(P.string(StrId(S)));
  EXPECT_EQ(programFingerprint(P), murmurHash3(B.bytes()));
}

TEST(ImageFile, RoundTripPreservesEverything) {
  Fixture F;
  std::vector<uint8_t> Bytes = serializeImage(F.P, F.Img);
  EXPECT_GT(Bytes.size(), 1000u);

  NativeImage Loaded;
  std::string Error;
  ASSERT_TRUE(deserializeImage(F.P, Bytes, Loaded, Error)) << Error;

  EXPECT_EQ(Loaded.Seed, F.Img.Seed);
  EXPECT_EQ(Loaded.code().CUs.size(), F.Img.code().CUs.size());
  EXPECT_EQ(Loaded.code().InlineFingerprint, F.Img.code().InlineFingerprint);
  EXPECT_EQ(Loaded.Snapshot.Entries.size(), F.Img.Snapshot.Entries.size());
  EXPECT_EQ(Loaded.Ids.HeapPathHashes, F.Img.Ids.HeapPathHashes);
  EXPECT_EQ(Loaded.Layout.TextSize, F.Img.Layout.TextSize);
  EXPECT_EQ(Loaded.Layout.HeapSize, F.Img.Layout.HeapSize);
  EXPECT_EQ(Loaded.Layout.ObjectOffsets, F.Img.Layout.ObjectOffsets);
  EXPECT_EQ(Loaded.Built.BuildHeap->numCells(),
            F.Img.Built.BuildHeap->numCells());
}

TEST(ImageFile, LoadedImageRunsIdentically) {
  Fixture F;
  std::vector<uint8_t> Bytes = serializeImage(F.P, F.Img);
  NativeImage Loaded;
  std::string Error;
  ASSERT_TRUE(deserializeImage(F.P, Bytes, Loaded, Error)) << Error;

  RunConfig RC;
  RunStats A = runImage(F.Img, RC);
  RunStats B = runImage(Loaded, RC);
  ASSERT_FALSE(A.Trapped) << A.TrapMessage;
  ASSERT_FALSE(B.Trapped) << B.TrapMessage;
  EXPECT_EQ(A.Output, B.Output);
  // Intern-table restoration keeps literal identity: ":1" in the output.
  EXPECT_NE(B.Output.find(":1"), std::string::npos) << B.Output;
  EXPECT_EQ(A.TextFaults, B.TextFaults);
  EXPECT_EQ(A.HeapFaults, B.HeapFaults);
  EXPECT_EQ(A.Instructions, B.Instructions);
}

TEST(ImageFile, RepeatedInlineSiteKeepsTheFirstCopy) {
  // The loader derives each CU's inline map from its copy records. In a
  // crafted file where a later copy claims an earlier copy's (parent, call
  // site), the site resolves to the earlier copy and the later copy is
  // never entered.
  std::unique_ptr<Program> P = compileSpec(awfyBenchmark("Richards"));
  ASSERT_TRUE(P);
  BuildConfig Cfg;
  Cfg.Seed = 1;
  NativeImage Img = buildNativeImage(*P, Cfg);
  std::vector<uint8_t> Bytes = serializeImage(*P, Img);
  const std::vector<CompilationUnit> &CUs = Img.code().CUs;
  size_t At = ImageMap(Bytes).CuCount + 4;
  for (size_t C = 0; C < CUs.size(); ++C) {
    const std::vector<InlineCopy> &Copies = CUs[C].Copies;
    size_t Record = At + 12;
    At += 12 + 20 * Copies.size();
    for (size_t K = 2; K < Copies.size(); ++K) {
      if (Copies[K].Method == Copies[1].Method)
        continue;
      const InlineCopy &First = Copies[1];
      writeU32(Bytes, Record + 20 * K + 4, uint32_t(First.ParentCopy));
      writeU32(Bytes, Record + 20 * K + 8, First.SiteId);
      NativeImage Loaded;
      std::string Error;
      ASSERT_TRUE(deserializeImage(*P, Bytes, Loaded, Error)) << Error;
      const CompilationUnit &CU = Loaded.code().CUs[C];
      EXPECT_EQ(CU.inlinedCopyFor(First.ParentCopy, First.SiteId,
                                  First.Method),
                1);
      EXPECT_EQ(CU.inlinedCopyFor(First.ParentCopy, First.SiteId,
                                  Copies[K].Method),
                -1);
      return;
    }
  }
  FAIL() << "no CU inlines two different methods";
}

TEST(ImageFile, SplitGeometryRoundTripsAndRunsIdentically) {
  // ColdPath.classify's negative arm never executes, so the split build
  // has a real cold tail to serialize.
  Fixture F;
  BuildConfig PCfg;
  PCfg.Seed = 21;
  CollectedProfiles Prof = collectProfiles(F.P, PCfg, RunConfig());
  BuildConfig Cfg;
  Cfg.Seed = 21;
  Cfg.Split = SplitMode::HotCold;
  Cfg.BlockProf = &Prof.Blocks;
  NativeImage Img = buildNativeImage(F.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  ASSERT_TRUE(Img.Split.active());
  ASSERT_GT(Img.Split.SplitCus, 0u) << "workload produced no split CU";
  ASSERT_GT(Img.Layout.ColdTailSize, 0u);

  std::vector<uint8_t> Bytes = serializeImage(F.P, Img);
  NativeImage Loaded;
  std::string Error;
  ASSERT_TRUE(deserializeImage(F.P, Bytes, Loaded, Error)) << Error;

  // Split accounting and decisions survive the round-trip bit-for-bit.
  EXPECT_TRUE(Loaded.Split.active());
  EXPECT_EQ(Loaded.Split.DecisionFingerprint, Img.Split.DecisionFingerprint);
  EXPECT_EQ(Loaded.Split.SplitCus, Img.Split.SplitCus);
  EXPECT_EQ(Loaded.Split.DegradedCus, Img.Split.DegradedCus);
  EXPECT_EQ(Loaded.Split.HotBytes, Img.Split.HotBytes);
  EXPECT_EQ(Loaded.Split.ColdBytes, Img.Split.ColdBytes);
  EXPECT_EQ(Loaded.Split.StubBytes, Img.Split.StubBytes);
  ASSERT_EQ(Loaded.Split.PerCu.size(), Img.Split.PerCu.size());
  for (size_t Cu = 0; Cu < Img.Split.PerCu.size(); ++Cu) {
    const CuSplit &A = Img.Split.PerCu[Cu], &B = Loaded.Split.PerCu[Cu];
    EXPECT_EQ(A.Split, B.Split);
    EXPECT_EQ(A.HotSize, B.HotSize);
    EXPECT_EQ(A.ColdSize, B.ColdSize);
    EXPECT_EQ(A.StubBytes, B.StubBytes);
    ASSERT_EQ(A.Copies.size(), B.Copies.size());
    for (size_t C = 0; C < A.Copies.size(); ++C) {
      EXPECT_EQ(A.Copies[C].HotOffset, B.Copies[C].HotOffset);
      EXPECT_EQ(A.Copies[C].ColdOffset, B.Copies[C].ColdOffset);
      ASSERT_EQ(A.Copies[C].Blocks.size(), B.Copies[C].Blocks.size());
      for (size_t Blk = 0; Blk < A.Copies[C].Blocks.size(); ++Blk) {
        EXPECT_EQ(A.Copies[C].Blocks[Blk].Offset,
                  B.Copies[C].Blocks[Blk].Offset);
        EXPECT_EQ(A.Copies[C].Blocks[Blk].Size, B.Copies[C].Blocks[Blk].Size);
        EXPECT_EQ(A.Copies[C].Blocks[Blk].Cold, B.Copies[C].Blocks[Blk].Cold);
      }
    }
  }
  // Cold-tail layout geometry survives too.
  EXPECT_EQ(Loaded.Layout.CuColdOffsets, Img.Layout.CuColdOffsets);
  EXPECT_EQ(Loaded.Layout.ColdTailOffset, Img.Layout.ColdTailOffset);
  EXPECT_EQ(Loaded.Layout.ColdTailSize, Img.Layout.ColdTailSize);

  // The loaded split image pages exactly like the original.
  RunConfig RC;
  RunStats A = runImage(Img, RC);
  RunStats B = runImage(Loaded, RC);
  ASSERT_FALSE(A.Trapped) << A.TrapMessage;
  ASSERT_FALSE(B.Trapped) << B.TrapMessage;
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.TextFaults, B.TextFaults);
  EXPECT_EQ(A.TextColdFaults, B.TextColdFaults);
  EXPECT_EQ(A.HeapFaults, B.HeapFaults);
  EXPECT_EQ(A.Instructions, B.Instructions);
}

TEST(ImageFile, HugePageGeometryRoundTrips) {
  Fixture F;
  BuildConfig Cfg;
  Cfg.Seed = 21;
  Cfg.Image.HugePages = 2;
  NativeImage Img = buildNativeImage(F.P, Cfg);
  ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
  ASSERT_GT(Img.Layout.HugePagesRequested, 0u);

  std::vector<uint8_t> Bytes = serializeImage(F.P, Img);
  NativeImage Loaded;
  std::string Error;
  ASSERT_TRUE(deserializeImage(F.P, Bytes, Loaded, Error)) << Error;
  EXPECT_EQ(Loaded.Layout.HugePagesRequested, Img.Layout.HugePagesRequested);
  EXPECT_EQ(Loaded.Layout.HugePages, Img.Layout.HugePages);
  EXPECT_EQ(Loaded.Layout.HugeRegionSize, Img.Layout.HugeRegionSize);
  EXPECT_EQ(Loaded.Split.DecisionFingerprint, Img.Split.DecisionFingerprint);

  // The loaded image pages (and is charged) exactly like the original,
  // including the per-size fault split.
  RunConfig RC;
  RunStats A = runImage(Img, RC);
  RunStats B = runImage(Loaded, RC);
  ASSERT_FALSE(A.Trapped) << A.TrapMessage;
  ASSERT_FALSE(B.Trapped) << B.TrapMessage;
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.TextFaults, B.TextFaults);
  EXPECT_EQ(A.TextHugeFaults, B.TextHugeFaults);
  EXPECT_EQ(A.TimeNs, B.TimeNs);
}

TEST(ImageFile, LoadsV1ImagesWithoutHugeFields) {
  // Emulate a pre-huge-page "NIM1" file: the V1 payload is exactly the V2
  // bytes minus the appended page-size tail, with the old magic. For an
  // image with no huge region the tail is fixed-size: requested/effective/
  // region (4+4+8) + region count (4) + two table entries (1+8+8+4 each).
  Fixture F;
  std::vector<uint8_t> Bytes = serializeImage(F.P, F.Img);
  ASSERT_EQ(F.Img.Layout.HugeRegionSize, 0u);
  constexpr size_t kV2TailBytes = 4 + 4 + 8 + 4 + 2 * (1 + 8 + 8 + 4);
  ASSERT_GT(Bytes.size(), kV2TailBytes);
  Bytes.resize(Bytes.size() - kV2TailBytes);
  Bytes[0] = 0x4E; // "NIM1", little-endian
  Bytes[1] = 0x49;
  Bytes[2] = 0x4D;
  Bytes[3] = 0x31;

  NativeImage Loaded;
  std::string Error;
  ASSERT_TRUE(deserializeImage(F.P, Bytes, Loaded, Error)) << Error;
  EXPECT_EQ(Loaded.Layout.HugePagesRequested, 0u);
  EXPECT_EQ(Loaded.Layout.HugePages, 0u);
  EXPECT_EQ(Loaded.Layout.HugeRegionSize, 0u);

  RunConfig RC;
  RunStats A = runImage(F.Img, RC);
  RunStats B = runImage(Loaded, RC);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.TextFaults, B.TextFaults);
  EXPECT_EQ(A.TimeNs, B.TimeNs);
}

TEST(ImageFile, RejectsWrongProgram) {
  Fixture F;
  std::vector<uint8_t> Bytes = serializeImage(F.P, F.Img);
  Program Other;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources(
      {"class Main { static int main() { return 2; } }"}, Other, Errors));
  NativeImage Loaded;
  std::string Error;
  EXPECT_FALSE(deserializeImage(Other, Bytes, Loaded, Error));
  EXPECT_NE(Error.find("fingerprint"), std::string::npos);
}

TEST(ImageFile, RejectsGarbageAndTruncation) {
  Fixture F;
  NativeImage Loaded;
  std::string Error;
  std::vector<uint8_t> Garbage = {1, 2, 3, 4};
  EXPECT_FALSE(deserializeImage(F.P, Garbage, Loaded, Error));

  std::vector<uint8_t> Bytes = serializeImage(F.P, F.Img);
  Bytes.resize(Bytes.size() / 2); // truncate
  NativeImage Loaded2;
  EXPECT_FALSE(deserializeImage(F.P, Bytes, Loaded2, Error));
}

TEST(ImageFile, RejectsCorruptCellKind) {
  Fixture F;
  std::vector<uint8_t> Bytes = serializeImage(F.P, F.Img);
  // Walk the header, reachability and compiled-program sections to the
  // first heap cell's kind byte.
  size_t At = 4 + 8 + 1 + 8;
  const ReachabilityResult &R = F.Img.reach();
  for (const std::vector<bool> *V :
       {&R.ReachableMethods, &R.InstantiatedClasses, &R.ReachableClasses,
        &R.SaturatedSelectors})
    At += 4 + V->size();
  const CompiledProgram &Code = F.Img.code();
  At += 1 + 8 + 4 + 4 * Code.CuOfMethod.size() + 4;
  for (const CompilationUnit &CU : Code.CUs)
    At += 12 + 20 * CU.Copies.size();
  At += 4; // cell count
  ASSERT_LT(At, Bytes.size());
  ASSERT_LE(Bytes[At], uint8_t(CellKind::String)) << "not at a cell kind";
  Bytes[At] = 7;
  NativeImage Loaded;
  std::string Error;
  EXPECT_FALSE(deserializeImage(F.P, Bytes, Loaded, Error));
  EXPECT_EQ(Error, "corrupt cell kind");
}

TEST(ImageFile, RejectsIdTablesOfTheWrongLength) {
  // Every identity table has one id per snapshot entry; a shorter one would
  // be indexed past its end by the heap orderer and image_explorer.
  for (bool Structural : {true, false}) {
    Fixture F;
    std::vector<uint64_t> &Table = Structural ? F.Img.Ids.StructuralHashes
                                              : F.Img.Ids.HeapPathHashes;
    ASSERT_GT(Table.size(), 3u);
    Table.resize(Structural ? Table.size() - 1 : 3);
    NativeImage Loaded;
    std::string Error;
    EXPECT_FALSE(deserializeImage(F.P, serializeImage(F.P, F.Img), Loaded,
                                  Error))
        << (Structural ? "structural" : "heap path");
    EXPECT_EQ(Error, "inconsistent image file");
  }
}

TEST(ImageFile, RejectsAbstractCellClass) {
  // An object cell naming an abstract class would reach the heap's
  // "allocating an abstract class" invariant; the loader rejects it first.
  std::unique_ptr<Program> P = compileSpec(microserviceBenchmark("micronaut"));
  ASSERT_TRUE(P);
  BuildConfig Cfg;
  Cfg.Seed = 1;
  NativeImage Img = buildNativeImage(*P, Cfg);
  ClassId Abstract = -1;
  for (size_t C = 0; C < P->numClasses() && Abstract == -1; ++C)
    if (std::as_const(*P).classDef(ClassId(C)).IsAbstract)
      Abstract = ClassId(C);
  ASSERT_NE(Abstract, -1) << "micronaut declares no abstract class";

  std::vector<uint8_t> Bytes = serializeImage(*P, Img);
  ImageMap Map(Bytes);
  ASSERT_EQ(Map.Cells.size(), Img.Built.BuildHeap->numCells());
  size_t Object = 0;
  while (Bytes[Map.Cells[Object]] != uint8_t(CellKind::Object))
    ++Object;
  writeU32(Bytes, Map.Cells[Object] + 1, uint32_t(Abstract));
  NativeImage Loaded;
  std::string Error;
  EXPECT_FALSE(deserializeImage(*P, Bytes, Loaded, Error));
  EXPECT_EQ(Error, "cell class is abstract");
}

TEST(ImageFile, RejectsReferencesOutsideTheHeap) {
  // Every reference the loader hands the runtime must name a cell; the
  // run would otherwise index past the cell table.
  std::unique_ptr<Program> P = compileSpec(microserviceBenchmark("micronaut"));
  ASSERT_TRUE(P);
  BuildConfig Cfg;
  Cfg.Seed = 1;
  NativeImage Img = buildNativeImage(*P, Cfg);
  const std::vector<uint8_t> Good = serializeImage(*P, Img);
  ImageMap Map(Good);
  uint32_t NumCells = readU32(Good, Map.CellCount);
  auto Rejects = [&](const std::vector<uint8_t> &Bytes, const char *What) {
    NativeImage Loaded;
    std::string Error;
    if (deserializeImage(*P, Bytes, Loaded, Error)) {
      ADD_FAILURE() << What << ": loaded";
      // What a deployed process does next with the image it accepted.
      RunConfig RC;
      RC.StopAtFirstResponse = true;
      runImage(Loaded, RC);
      return;
    }
    EXPECT_EQ(Error, "reference to a cell outside the heap") << What;
  };

  // Every Ref slot of every cell at once, then the last one alone, just
  // past the end.
  std::vector<uint8_t> Bytes = Good;
  size_t LastRef = 0, Refs = 0;
  for (size_t C = 0; C < Map.Cells.size(); ++C)
    for (size_t At : Map.slotsOf(Bytes, C))
      if (Bytes[At] == uint8_t(ValueKind::Ref)) {
        writeU32(Bytes, At + 1, 0x7fffffffu);
        LastRef = At;
        ++Refs;
      }
  ASSERT_GT(Refs, 1000u);
  Rejects(Bytes, "all cell slots");
  Bytes = Good;
  writeU32(Bytes, LastRef + 1, NumCells);
  Rejects(Bytes, "one cell slot");

  // A static field.
  Bytes = Good;
  bool Patched = false;
  size_t At = Map.StaticRows + 4;
  for (uint32_t R = 0; R < readU32(Good, Map.StaticRows) && !Patched; ++R) {
    uint32_t N = readU32(Good, At);
    for (uint32_t K = 0; K < N && !Patched; ++K)
      if (Good[At + 4 + 9 * K] == uint8_t(ValueKind::Ref)) {
        writeU32(Bytes, At + 4 + 9 * K + 1, NumCells);
        Patched = true;
      }
    At += 4 + 9 * size_t(N);
  }
  ASSERT_TRUE(Patched);
  Rejects(Bytes, "static field");

  // A class metadata cell, and a resource cell.
  Bytes = Good;
  ASSERT_NE(readU32(Good, Map.MetaCells + 4), 0xffffffffu);
  writeU32(Bytes, Map.MetaCells + 4, NumCells);
  Rejects(Bytes, "class metadata cell");
  ASSERT_GT(readU32(Good, Map.Resources), 0u);
  Bytes = Good;
  writeU32(Bytes, Map.Resources + 8 + readU32(Good, Map.Resources + 4),
           NumCells);
  Rejects(Bytes, "resource cell");

  // The unpatched image loads.
  NativeImage Loaded;
  std::string Error;
  EXPECT_TRUE(deserializeImage(*P, Good, Loaded, Error)) << Error;
}

TEST(ImageFile, RejectsEveryTruncationAndHugeCount) {
  Fixture F;
  const std::vector<uint8_t> Good = serializeImage(F.P, F.Img);
  auto Load = [&](const std::vector<uint8_t> &Bytes, std::string &Error) {
    NativeImage Loaded;
    return deserializeImage(F.P, Bytes, Loaded, Error);
  };
  std::string Error;
  ASSERT_TRUE(Load(Good, Error)) << Error;

  // Every prefix: each byte of the first 4 KiB, then a stride.
  for (size_t Len = 0; Len < Good.size(); Len += Len < 4096 ? 1 : 61) {
    std::vector<uint8_t> Prefix(Good.begin(), Good.begin() + Len);
    Error.clear();
    EXPECT_FALSE(Load(Prefix, Error)) << "prefix of " << Len << " bytes";
    EXPECT_FALSE(Error.empty()) << "prefix of " << Len << " bytes";
  }

  // A count of 2^32-1 records is refused before anything is sized by it.
  ImageMap Map(Good);
  for (auto [What, At] : {std::pair{"cell", Map.CellCount},
                          std::pair{"CU", Map.CuCount},
                          std::pair{"snapshot entry", Map.EntryCount},
                          std::pair{"incremental id", Map.IdTables[0]},
                          std::pair{"structural hash", Map.IdTables[1]},
                          std::pair{"heap path", Map.IdTables[2]}}) {
    std::vector<uint8_t> Bytes = Good;
    writeU32(Bytes, At, 0xffffffffu);
    Error.clear();
    LargestAlloc = 0;
    AllocWatchArmed = true;
    bool Ok = Load(Bytes, Error);
    AllocWatchArmed = false;
    EXPECT_FALSE(Ok) << What;
    EXPECT_EQ(Error, "unexpected end of image file") << What;
    EXPECT_LE(LargestAlloc.load(), 4 * Good.size()) << What;
  }
}

namespace {

/// Snapshot entry records (cell u32, size u32, flags u8, reason kind u8,
/// sized detail, parent i32, slot i32) of the fixture's image, with a
/// load that must fail with \p Expected.
struct EntryRecords {
  Fixture F;
  std::vector<uint8_t> Good = serializeImage(F.P, F.Img);
  ImageMap Map{Good};

  /// The first entry whose root flag is \p Root and, for a root, whose
  /// reason is \p Kind.
  size_t find(bool Root, InclusionReasonKind Kind) const {
    for (size_t At : Map.Entries)
      if ((Good[At + 8] & 1) == Root &&
          (!Root || Good[At + 9] == uint8_t(Kind)))
        return At;
    ADD_FAILURE() << "no such entry";
    return Map.Entries.front();
  }
  void expectRejected(const std::vector<uint8_t> &Bytes,
                      const std::string &Expected, const std::string &What) {
    NativeImage Loaded;
    std::string Error;
    EXPECT_FALSE(deserializeImage(F.P, Bytes, Loaded, Error)) << What;
    EXPECT_EQ(Error, Expected) << What;
  }
};

} // namespace

TEST(ImageFile, RejectsUnknownInclusionReasonKind) {
  EntryRecords R;
  ASSERT_GT(R.Map.Entries.size(), 1u);
  for (uint8_t Kind : {uint8_t(InclusionReasonKind::Resource) + 1, 0xff}) {
    std::vector<uint8_t> Bytes = R.Good;
    Bytes[R.Map.Entries[1] + 9] = Kind;
    R.expectRejected(Bytes, "corrupt inclusion reason kind",
                     "kind " + std::to_string(Kind));
  }
}

TEST(ImageFile, RejectsUnknownEntryFlags) {
  EntryRecords R;
  for (uint8_t Bit = 4; Bit; Bit = uint8_t(Bit << 1)) {
    std::vector<uint8_t> Bytes = R.Good;
    Bytes[R.Map.Entries.back() + 8] |= Bit;
    R.expectRejected(Bytes, "unknown snapshot entry flags",
                     "bit " + std::to_string(Bit));
  }
}

TEST(ImageFile, RejectsReasonDetailsWhereTheReasonHasNone) {
  // A detail belongs to a static-field, method or resource root only.
  EntryRecords R;
  auto WithDetail = [&](size_t At) {
    EXPECT_EQ(readU32(R.Good, At + 10), 0u) << "entry already has a detail";
    std::vector<uint8_t> Bytes = R.Good;
    writeU32(Bytes, At + 10, 1);
    Bytes.insert(Bytes.begin() + ptrdiff_t(At + 14), uint8_t('x'));
    return Bytes;
  };
  const char *Expected = "reason detail on an entry whose reason has none";
  R.expectRejected(WithDetail(R.find(false, {})), Expected, "non-root");
  R.expectRejected(
      WithDetail(R.find(true, InclusionReasonKind::InternedString)), Expected,
      "interned-string root");
  R.expectRejected(WithDetail(R.find(true, InclusionReasonKind::DataSection)),
                   Expected, "class-metadata root");
}

TEST(ImageFile, RejectsParentsOutsideTheSnapshot) {
  EntryRecords R;
  uint32_t NumEntries = uint32_t(R.Map.Entries.size());
  size_t At = R.find(false, {});
  size_t Parent = At + 14 + readU32(R.Good, At + 10);
  for (uint32_t Bad : {NumEntries, 0x7fffffffu, uint32_t(-2)}) {
    std::vector<uint8_t> Bytes = R.Good;
    writeU32(Bytes, Parent, Bad);
    R.expectRejected(Bytes, "snapshot entry parent out of range",
                     "parent " + std::to_string(int32_t(Bad)));
  }
}

namespace {

/// Loads \p Bytes and checks the loaded image re-serializes to exactly
/// \p Bytes, holds the built heap \p Built cell for cell and gives each
/// root of \p Snap its reason.
void expectExactReload(Program &P, const std::vector<uint8_t> &Bytes,
                       const Heap &Built, const HeapSnapshot &Snap,
                       const std::string &What) {
  NativeImage Loaded;
  std::string Error;
  ASSERT_TRUE(deserializeImage(P, Bytes, Loaded, Error)) << What << ": "
                                                          << Error;
  EXPECT_TRUE(serializeImage(P, Loaded) == Bytes) << What;
  const HeapSnapshot &Back = Loaded.Snapshot;
  ASSERT_EQ(Back.Entries.size(), Snap.Entries.size()) << What;
  for (size_t I = 0; I < Snap.Entries.size(); ++I) {
    const SnapshotEntry &A = Snap.Entries[I], &B = Back.Entries[I];
    ASSERT_EQ(A.IsRoot, B.IsRoot) << What << ": entry " << I;
    if (A.IsRoot) {
      ASSERT_EQ(A.Reason.Kind, B.Reason.Kind) << What << ": entry " << I;
      ASSERT_EQ(Snap.detail(A), Back.detail(B)) << What << ": entry " << I;
    }
  }
  const Heap &H = *Loaded.Built.BuildHeap;
  ASSERT_EQ(H.numCells(), Built.numCells()) << What;
  for (CellIdx C = 0; C < CellIdx(H.numCells()); ++C) {
    const HeapCell &A = Built.cell(C), &B = H.cell(C);
    bool Same = A.Kind == B.Kind && A.Class == B.Class &&
                A.ArrayType == B.ArrayType &&
                std::equal(Built.slots(C).begin(), Built.slots(C).end(),
                           H.slots(C).begin(), H.slots(C).end()) &&
                Built.str(C) == H.str(C) &&
                Built.isInterned(C) == H.isInterned(C);
    ASSERT_TRUE(Same) << What << ": cell " << C;
  }
}

class ReloadIsExact : public testing::TestWithParam<std::string> {};

} // namespace

TEST_P(ReloadIsExact, ForEveryVariant) {
  const std::string &Name = GetParam();
  bool Micro = Name == "micronaut" || Name == "quarkus" || Name == "spring";
  BenchmarkSpec Spec =
      Micro ? microserviceBenchmark(Name) : awfyBenchmark(Name);
  std::unique_ptr<Program> P = compileSpec(Spec);
  ASSERT_TRUE(P);
  RunConfig RC;
  RC.StopAtFirstResponse = Spec.Microservice;
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, ProfCfg, RC);
  const PaperVariant &Baseline = PaperVariants[0], &Cu = PaperVariants[1],
                     &CuHeapPath = PaperVariants[7];
  ASSERT_STREQ(CuHeapPath.Name, "cu+heap path");
  struct Case {
    const char *Name;
    const PaperVariant &V;
    SplitMode Split;
    uint32_t HugePages;
  } Cases[] = {{"baseline", Baseline, SplitMode::None, 0},
               {"cu+heap path", CuHeapPath, SplitMode::None, 0},
               {"cu+hotcold", Cu, SplitMode::HotCold, 0},
               {"huge pages 2", Baseline, SplitMode::None, 2}};
  for (const Case &K : Cases) {
    BuildConfig Cfg;
    Cfg.Seed = 1;
    Cfg.Split = K.Split;
    Cfg.Image.HugePages = K.HugePages;
    NativeImage Img = buildNativeImage(*P, variantConfig(K.V, Cfg, Prof));
    ASSERT_FALSE(Img.Built.Failed) << Img.Built.FailureMessage;
    expectExactReload(*P, serializeImage(*P, Img), *Img.Built.BuildHeap,
                      Img.Snapshot, Name + " " + K.Name);
  }
}

static std::vector<std::string> reloadPrograms() {
  std::vector<std::string> Names = awfyBenchmarkNames();
  for (const std::string &M : microserviceNames())
    Names.push_back(M);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Programs, ReloadIsExact,
                         testing::ValuesIn(reloadPrograms()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });
