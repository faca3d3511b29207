//===- ImageFileTest.cpp - Image serialization round-trip tests -------------===//

#include "src/core/Builder.h"
#include "src/image/ImageFile.h"
#include "src/lang/Compile.h"
#include "src/runtime/ExecEngine.h"
#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"

#include <gtest/gtest.h>

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

} // namespace

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
