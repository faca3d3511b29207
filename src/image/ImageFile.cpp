//===- ImageFile.cpp - Binary image serialization ----------------------------===//

#include "src/image/ImageFile.h"

#include "src/heap/BuildHeap.h"
#include "src/obs/Metrics.h"
#include "src/runtime/Paging.h"
#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"

#include <cstring>

using namespace nimg;

// Format versions, newest written. V2 appends the per-region page-size
// table (the --huge-pages overlay) after the V1 payload; V1 files remain
// loadable and read back as all-4 KiB images with a zero huge budget.
static constexpr uint32_t kMagicV1 = 0x314D494Eu; // "NIM1"
static constexpr uint32_t kMagicV2 = 0x324D494Eu; // "NIM2"

/// Stores the low \p Bytes bytes of \p V little-endian at \p Out;
/// returns the byte after them.
static uint8_t *putLE(uint8_t *Out, uint64_t V, int Bytes) {
  for (int I = 0; I < Bytes; ++I)
    *Out++ = uint8_t(V >> (8 * I));
  return Out;
}

/// The fingerprint itself: one pass over the classes, code and string table.
static uint64_t hashProgram(const Program &P) {
  // Hashed as encoded: the digest equals murmurHash3 over the same bytes
  // collected in a ByteBuffer, without materializing ~1 MB per call.
  Murmur3Stream B;
  for (size_t C = 0; C < P.numClasses(); ++C) {
    const ClassDef &Def = P.classDef(ClassId(C));
    B.appendSizedString(Def.Name);
    B.appendU32(uint32_t(Def.Super + 1));
    for (const Field &F : Def.InstanceFields) {
      B.appendSizedString(F.Name);
      B.appendSizedString(P.typeName(F.Type));
    }
    for (const Field &F : Def.StaticFields) {
      B.appendSizedString(F.Name);
      B.appendSizedString(P.typeName(F.Type));
    }
  }
  for (size_t M = 0; M < P.numMethods(); ++M) {
    const Method &Meth = P.method(MethodId(M));
    B.appendSizedString(Meth.Sig);
    B.appendU32(uint32_t(Meth.Blocks.size()));
    for (const BasicBlock &BB : Meth.Blocks) {
      B.appendU32(uint32_t(BB.Instrs.size()));
      for (const Instr &In : BB.Instrs) {
        // One 37-byte record per instruction, fed to the hash in one call.
        uint8_t Enc[37];
        uint8_t *E = Enc;
        uint64_t FBits;
        std::memcpy(&FBits, &In.FImm, sizeof(FBits));
        *E++ = uint8_t(In.Op);
        E = putLE(E, uint32_t(In.Dst) | (uint32_t(In.A) << 16), 4);
        E = putLE(E, uint32_t(In.B) | (uint32_t(In.C) << 16), 4);
        E = putLE(E, uint64_t(In.IImm), 8);
        E = putLE(E, FBits, 8);
        E = putLE(E, uint32_t(In.Aux), 4);
        E = putLE(E, uint32_t(In.Aux2), 4);
        putLE(E, uint32_t(In.Target), 4);
        B.update(Enc, sizeof(Enc));
      }
    }
  }
  for (size_t S = 0; S < P.numStrings(); ++S)
    B.appendSizedString(P.string(StrId(S)));
  return B.digest().Lo;
}

uint64_t nimg::programFingerprint(const Program &P) {
  uint64_t Version = P.version();
  uint64_t Fp;
  if (P.fingerprintMemo().lookup(Version, Fp)) {
    NIMG_COUNTER_ADD("nimg.program.fingerprint.reused", 1);
    return Fp;
  }
  Fp = hashProgram(P);
  P.fingerprintMemo().store(Version, Fp);
  NIMG_COUNTER_ADD("nimg.program.fingerprint.computed", 1);
  return Fp;
}

namespace {

// --- Writer helpers -----------------------------------------------------------

void putBools(ByteBuffer &B, const std::vector<bool> &V) {
  B.appendU32(uint32_t(V.size()));
  for (bool X : V)
    B.appendU8(X ? 1 : 0);
}

void putU64s(ByteBuffer &B, const std::vector<uint64_t> &V) {
  B.appendU32(uint32_t(V.size()));
  for (uint64_t X : V)
    B.appendU64(X);
}

void putI32s(ByteBuffer &B, const std::vector<int32_t> &V) {
  B.appendU32(uint32_t(V.size()));
  for (int32_t X : V)
    B.appendU32(uint32_t(X));
}

void putValue(ByteBuffer &B, const Value &V) {
  B.appendU8(uint8_t(V.Kind));
  B.appendI64(V.Kind == ValueKind::Ref ? int64_t(V.Ref) : V.I);
}

// --- Reader ---------------------------------------------------------------------

class Cursor {
public:
  Cursor(const std::vector<uint8_t> &Bytes, std::string &Error)
      : Bytes(Bytes), Error(Error) {}

  bool ok() const { return !Failed; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Bytes[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(Bytes[Pos++]) << (I * 8);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= uint64_t(Bytes[Pos++]) << (I * 8);
    return V;
  }
  int64_t i64() { return int64_t(u64()); }
  std::string str() {
    uint32_t Len = u32();
    if (!need(Len))
      return {};
    std::string S(reinterpret_cast<const char *>(&Bytes[Pos]), Len);
    Pos += Len;
    return S;
  }
  std::vector<bool> bools() {
    uint32_t N = u32();
    std::vector<bool> V;
    for (uint32_t I = 0; I < N && ok(); ++I)
      V.push_back(u8() != 0);
    return V;
  }
  std::vector<uint64_t> u64s() {
    uint32_t N = u32();
    std::vector<uint64_t> V;
    for (uint32_t I = 0; I < N && ok(); ++I)
      V.push_back(u64());
    return V;
  }
  std::vector<int32_t> i32s() {
    uint32_t N = u32();
    std::vector<int32_t> V;
    for (uint32_t I = 0; I < N && ok(); ++I)
      V.push_back(int32_t(u32()));
    return V;
  }
  Value value() {
    ValueKind K = ValueKind(u8());
    int64_t Raw = i64();
    switch (K) {
    case ValueKind::Null:
      return Value::makeNull();
    case ValueKind::Int:
      return Value::makeInt(Raw);
    case ValueKind::Double: {
      Value V;
      V.Kind = ValueKind::Double;
      V.I = Raw;
      return V;
    }
    case ValueKind::Bool:
      return Value::makeBool(Raw != 0);
    case ValueKind::Ref:
      return Value::makeRef(CellIdx(Raw));
    }
    fail("corrupt value kind");
    return Value::makeNull();
  }

  void fail(const std::string &Msg) {
    if (!Failed)
      Error = Msg;
    Failed = true;
  }

private:
  bool need(size_t N) {
    if (Failed)
      return false;
    if (Pos + N > Bytes.size()) {
      fail("unexpected end of image file");
      return false;
    }
    return true;
  }

  const std::vector<uint8_t> &Bytes;
  std::string &Error;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace

std::vector<uint8_t> nimg::serializeImage(const Program &P,
                                          const NativeImage &Img) {
  assert(Img.P == &P && "image was built from a different program");
  ByteBuffer B;
  B.appendU32(kMagicV2);
  B.appendU64(programFingerprint(P));
  B.appendU8(Img.Instrumented ? 1 : 0);
  B.appendU64(Img.Seed);

  // Reachability.
  const ReachabilityResult &Reach = Img.reach();
  putBools(B, Reach.ReachableMethods);
  putBools(B, Reach.InstantiatedClasses);
  putBools(B, Reach.ReachableClasses);
  putBools(B, Reach.SaturatedSelectors);

  // Compiled program.
  const CompiledProgram &Code = Img.code();
  B.appendU8(Code.Instrumented ? 1 : 0);
  B.appendU64(Code.InlineFingerprint);
  putI32s(B, Code.CuOfMethod);
  B.appendU32(uint32_t(Code.CUs.size()));
  for (const CompilationUnit &CU : Code.CUs) {
    B.appendU32(uint32_t(CU.Root));
    B.appendU32(CU.CodeSize);
    B.appendU32(uint32_t(CU.Copies.size()));
    for (const InlineCopy &C : CU.Copies) {
      B.appendU32(uint32_t(C.Method));
      B.appendU32(uint32_t(C.ParentCopy));
      B.appendU32(C.SiteId);
      B.appendU32(C.CodeOffset);
      B.appendU32(C.CodeSize);
    }
  }

  // Build heap: cells, statics, init order, metadata, resources.
  const Heap &H = *Img.Built.BuildHeap;
  B.appendU32(uint32_t(H.numCells()));
  for (size_t C = 0; C < H.numCells(); ++C) {
    const HeapCell &Cell = H.cell(CellIdx(C));
    B.appendU8(uint8_t(Cell.Kind));
    B.appendU32(uint32_t(Cell.Class));
    B.appendU32(uint32_t(Cell.ArrayType));
    B.appendU32(uint32_t(Cell.Slots.size()));
    for (const Value &V : Cell.Slots)
      putValue(B, V);
    B.appendSizedString(Cell.Str);
    B.appendU8(H.isInterned(CellIdx(C)) ? 1 : 0);
  }
  B.appendU32(uint32_t(Img.Built.Statics.size()));
  for (const auto &Row : Img.Built.Statics) {
    B.appendU32(uint32_t(Row.size()));
    for (const Value &V : Row)
      putValue(B, V);
  }
  putI32s(B, Img.Built.InitOrder);
  putI32s(B, Img.Built.ClassMetaCells);
  B.appendU32(uint32_t(Img.Built.ResourceCells.size()));
  for (const auto &[Name, Cell] : Img.Built.ResourceCells) {
    B.appendSizedString(Name);
    B.appendU32(uint32_t(Cell));
  }

  // Snapshot.
  B.appendU32(uint32_t(Img.Snapshot.Entries.size()));
  for (const SnapshotEntry &E : Img.Snapshot.Entries) {
    B.appendU32(uint32_t(E.Cell));
    B.appendU32(E.SizeBytes);
    B.appendU8(uint8_t((E.IsRoot ? 1 : 0) | (E.Elided ? 2 : 0)));
    B.appendU8(uint8_t(E.Reason.Kind));
    B.appendSizedString(E.Reason.Detail);
    B.appendU32(uint32_t(E.ParentEntry));
    B.appendU32(uint32_t(E.ParentSlot));
  }

  // Identity tables.
  putU64s(B, Img.Ids.IncrementalIds);
  putU64s(B, Img.Ids.StructuralHashes);
  putU64s(B, Img.Ids.HeapPathHashes);

  // Layout.
  B.appendU32(Img.Layout.PageSize);
  putI32s(B, Img.Layout.CuOrder);
  putU64s(B, Img.Layout.CuOffsets);
  B.appendU64(Img.Layout.NativeTailOffset);
  B.appendU64(Img.Layout.NativeTailSize);
  B.appendU64(Img.Layout.TextSize);
  putU64s(B, Img.Layout.StaticsBase);
  B.appendU64(Img.Layout.StaticsSize);
  putI32s(B, Img.Layout.ObjectOrder);
  putU64s(B, Img.Layout.ObjectOffsets);
  B.appendU64(Img.Layout.HeapSize);

  // Hot/cold split geometry. A deserialized split image must still know
  // its fragment placement to run; build-time Issues are diagnostics and
  // stay out of the binary.
  B.appendU8(uint8_t(Img.Split.Mode));
  B.appendU64(Img.Split.DecisionFingerprint);
  B.appendU32(Img.Split.SplitCus);
  B.appendU32(Img.Split.DegradedCus);
  B.appendU64(Img.Split.HotBytes);
  B.appendU64(Img.Split.ColdBytes);
  B.appendU64(Img.Split.StubBytes);
  B.appendU32(uint32_t(Img.Split.PerCu.size()));
  for (const CuSplit &S : Img.Split.PerCu) {
    B.appendU8(S.Split ? 1 : 0);
    B.appendU32(S.HotSize);
    B.appendU32(S.ColdSize);
    B.appendU32(S.StubBytes);
    B.appendU32(uint32_t(S.Copies.size()));
    for (const CopySplit &CS : S.Copies) {
      B.appendU32(CS.HotOffset);
      B.appendU32(CS.HotSize);
      B.appendU32(CS.ColdOffset);
      B.appendU32(CS.ColdSize);
      B.appendU32(uint32_t(CS.Blocks.size()));
      for (const BlockPlace &BP : CS.Blocks) {
        B.appendU32(BP.Offset);
        B.appendU32(BP.Size);
        B.appendU8(BP.Cold ? 1 : 0);
      }
    }
  }
  putU64s(B, Img.Layout.CuColdOffsets);
  B.appendU64(Img.Layout.ColdTailOffset);
  B.appendU64(Img.Layout.ColdTailSize);

  // V2: huge-page budget plus the per-region page-size table. The table is
  // self-describing — each mapped region names its section, byte span, and
  // page size — so future multi-size policies extend it without another
  // format break.
  B.appendU32(Img.Layout.HugePagesRequested);
  B.appendU32(Img.Layout.HugePages);
  B.appendU64(Img.Layout.HugeRegionSize);
  uint32_t NumRegions = Img.Layout.HugeRegionSize > 0 ? 3 : 2;
  B.appendU32(NumRegions);
  if (Img.Layout.HugeRegionSize > 0) {
    B.appendU8(uint8_t(ImageSection::Text));
    B.appendU64(0);
    B.appendU64(Img.Layout.HugeRegionSize);
    B.appendU32(HugePageBytes);
  }
  B.appendU8(uint8_t(ImageSection::Text));
  B.appendU64(Img.Layout.HugeRegionSize);
  B.appendU64(Img.Layout.TextSize - Img.Layout.HugeRegionSize);
  B.appendU32(Img.Layout.PageSize);
  B.appendU8(uint8_t(ImageSection::HeapSec));
  B.appendU64(0);
  B.appendU64(Img.Layout.HeapSize);
  B.appendU32(Img.Layout.PageSize);

  return B.bytes();
}

bool nimg::deserializeImage(Program &P, const std::vector<uint8_t> &Bytes,
                            NativeImage &Out, std::string &Error) {
  // The builtin runtime classes are part of every built image's program;
  // register them before fingerprinting so a freshly compiled classpath
  // matches the one the image was built from.
  ensureClassMetaClass(P);
  Cursor C(Bytes, Error);
  uint32_t Magic = C.u32();
  if (Magic != kMagicV1 && Magic != kMagicV2) {
    Error = "not a nimage file (bad magic)";
    return false;
  }
  uint64_t Fingerprint = C.u64();
  if (Fingerprint != programFingerprint(P)) {
    Error = "image was built from a different program (fingerprint "
            "mismatch)";
    return false;
  }
  Out.P = &P;
  Out.Instrumented = C.u8() != 0;
  Out.Seed = C.u64();

  // A loaded image gets a private base: it never joins the program's build
  // cache, so its runs always interpret.
  auto Base = std::make_shared<ImageBase>();
  Base->Reach.ReachableMethods = C.bools();
  Base->Reach.InstantiatedClasses = C.bools();
  Base->Reach.ReachableClasses = C.bools();
  Base->Reach.SaturatedSelectors = C.bools();

  CompiledProgram &Code = Base->Code;
  Code.Instrumented = C.u8() != 0;
  Code.InlineFingerprint = C.u64();
  Code.CuOfMethod = C.i32s();
  uint32_t NumCus = C.u32();
  for (uint32_t I = 0; I < NumCus && C.ok(); ++I) {
    CompilationUnit CU;
    CU.Root = MethodId(C.u32());
    CU.CodeSize = C.u32();
    uint32_t NumCopies = C.u32();
    for (uint32_t K = 0; K < NumCopies && C.ok(); ++K) {
      InlineCopy Copy;
      Copy.Method = MethodId(C.u32());
      Copy.ParentCopy = int32_t(C.u32());
      Copy.SiteId = C.u32();
      Copy.CodeOffset = C.u32();
      Copy.CodeSize = C.u32();
      if (K > 0)
        CU.InlineMap.emplace(
            CompilationUnit::siteKey(Copy.ParentCopy, Copy.SiteId),
            int32_t(K));
      CU.Copies.push_back(Copy);
    }
    Code.CUs.push_back(std::move(CU));
  }

  BuildHeapResult &Built = Base->Built;
  auto OwnedHeap = std::make_shared<Heap>(P);
  Built.BuildHeap = OwnedHeap;
  Heap &H = *OwnedHeap;
  uint32_t NumCells = C.u32();
  for (uint32_t I = 0; I < NumCells && C.ok(); ++I) {
    CellKind Kind = CellKind(C.u8());
    ClassId Class = ClassId(C.u32());
    TypeId ArrayType = TypeId(C.u32());
    uint32_t NumSlots = C.u32();
    std::vector<Value> Slots;
    for (uint32_t K = 0; K < NumSlots && C.ok(); ++K)
      Slots.push_back(C.value());
    std::string Str = C.str();
    bool Interned = C.u8() != 0;
    // Recreate the cell at the same index: the serialized graph encodes
    // sharing via cell indices, so no dedup may happen here. Interned
    // strings re-register in the intern table afterwards.
    CellIdx Cell = -1;
    switch (Kind) {
    case CellKind::Object:
      if (Class < 0 || size_t(Class) >= P.numClasses()) {
        C.fail("cell class out of range");
        return false;
      }
      Cell = H.allocObject(Class);
      break;
    case CellKind::Array:
      if (ArrayType < 0 || size_t(ArrayType) >= P.numTypes() ||
          P.type(ArrayType).Kind != TypeKind::Array) {
        C.fail("cell array type out of range");
        return false;
      }
      Cell = H.allocArray(ArrayType, int64_t(NumSlots));
      break;
    case CellKind::String:
      Cell = H.allocString(Str);
      if (Interned)
        H.registerInterned(Cell);
      break;
    default:
      C.fail("corrupt cell kind");
      return false;
    }
    if (H.cell(Cell).Slots.size() != Slots.size()) {
      C.fail("cell slot count mismatch");
      return false;
    }
    H.cell(Cell).Slots = std::move(Slots);
  }

  uint32_t NumStaticRows = C.u32();
  for (uint32_t I = 0; I < NumStaticRows && C.ok(); ++I) {
    uint32_t N = C.u32();
    std::vector<Value> Row;
    for (uint32_t K = 0; K < N && C.ok(); ++K)
      Row.push_back(C.value());
    Built.Statics.push_back(std::move(Row));
  }
  Built.InitOrder = C.i32s();
  Built.ClassMetaCells = C.i32s();
  uint32_t NumResources = C.u32();
  for (uint32_t I = 0; I < NumResources && C.ok(); ++I) {
    std::string Name = C.str();
    Built.ResourceCells.emplace(Name, CellIdx(C.u32()));
  }
  Out.Built = Built;
  Out.Base = std::move(Base);

  uint32_t NumEntries = C.u32();
  Out.Snapshot.Entries.clear();
  Out.Snapshot.EntryOfCell.assign(H.numCells(), -1);
  for (uint32_t I = 0; I < NumEntries && C.ok(); ++I) {
    SnapshotEntry E;
    E.Cell = CellIdx(C.u32());
    E.SizeBytes = C.u32();
    uint8_t Flags = C.u8();
    E.IsRoot = Flags & 1;
    E.Elided = Flags & 2;
    E.Reason.Kind = InclusionReasonKind(C.u8());
    E.Reason.Detail = C.str();
    E.ParentEntry = int32_t(C.u32());
    E.ParentSlot = int32_t(C.u32());
    if (E.Cell < 0 || size_t(E.Cell) >= H.numCells()) {
      C.fail("snapshot entry names a cell outside the heap");
      return false;
    }
    int32_t &Slot = Out.Snapshot.EntryOfCell[size_t(E.Cell)];
    if (Slot == -1)
      Slot = int32_t(I);
    Out.Snapshot.Entries.push_back(std::move(E));
  }

  Out.Ids.IncrementalIds = C.u64s();
  Out.Ids.StructuralHashes = C.u64s();
  Out.Ids.HeapPathHashes = C.u64s();

  Out.Layout.PageSize = C.u32();
  Out.Layout.CuOrder = C.i32s();
  Out.Layout.CuOffsets = C.u64s();
  Out.Layout.NativeTailOffset = C.u64();
  Out.Layout.NativeTailSize = C.u64();
  Out.Layout.TextSize = C.u64();
  Out.Layout.StaticsBase = C.u64s();
  Out.Layout.StaticsSize = C.u64();
  Out.Layout.ObjectOrder = C.i32s();
  Out.Layout.ObjectOffsets = C.u64s();
  Out.Layout.HeapSize = C.u64();

  Out.Split.Mode = SplitMode(C.u8());
  Out.Split.DecisionFingerprint = C.u64();
  Out.Split.SplitCus = C.u32();
  Out.Split.DegradedCus = C.u32();
  Out.Split.HotBytes = C.u64();
  Out.Split.ColdBytes = C.u64();
  Out.Split.StubBytes = C.u64();
  uint32_t NumSplitCus = C.u32();
  Out.Split.PerCu.clear();
  for (uint32_t I = 0; I < NumSplitCus && C.ok(); ++I) {
    CuSplit S;
    S.Split = C.u8() != 0;
    S.HotSize = C.u32();
    S.ColdSize = C.u32();
    S.StubBytes = C.u32();
    uint32_t NumCopies = C.u32();
    for (uint32_t K = 0; K < NumCopies && C.ok(); ++K) {
      CopySplit CS;
      CS.HotOffset = C.u32();
      CS.HotSize = C.u32();
      CS.ColdOffset = C.u32();
      CS.ColdSize = C.u32();
      uint32_t NumBlocks = C.u32();
      for (uint32_t J = 0; J < NumBlocks && C.ok(); ++J) {
        BlockPlace BP;
        BP.Offset = C.u32();
        BP.Size = C.u32();
        BP.Cold = C.u8() != 0;
        CS.Blocks.push_back(BP);
      }
      S.Copies.push_back(std::move(CS));
    }
    Out.Split.PerCu.push_back(std::move(S));
  }
  Out.Layout.CuColdOffsets = C.u64s();
  Out.Layout.ColdTailOffset = C.u64();
  Out.Layout.ColdTailSize = C.u64();

  // V2 tail: huge-page budget + per-region page-size table. A V1 file
  // simply has none of it — the zero-initialized Layout fields already
  // mean "all 4 KiB, no huge budget", so old images load unchanged.
  Out.Layout.HugePagesRequested = 0;
  Out.Layout.HugePages = 0;
  Out.Layout.HugeRegionSize = 0;
  if (Magic == kMagicV2) {
    Out.Layout.HugePagesRequested = C.u32();
    Out.Layout.HugePages = C.u32();
    Out.Layout.HugeRegionSize = C.u64();
    uint32_t NumRegions = C.u32();
    uint64_t HugeTableBytes = 0;
    for (uint32_t I = 0; I < NumRegions && C.ok(); ++I) {
      uint8_t Sec = C.u8();
      uint64_t Off = C.u64();
      uint64_t Size = C.u64();
      uint32_t PageSz = C.u32();
      if (Sec > uint8_t(ImageSection::HeapSec) || PageSz == 0 ||
          PageSz % Out.Layout.PageSize != 0) {
        C.fail("corrupt page-size table");
        return false;
      }
      if (ImageSection(Sec) == ImageSection::Text && Off == 0 &&
          PageSz == HugePageBytes)
        HugeTableBytes = Size;
    }
    if (C.ok() && HugeTableBytes != Out.Layout.HugeRegionSize) {
      Error = "page-size table disagrees with the huge-page region";
      return false;
    }
  }

  if (!C.ok())
    return false;
  if (Out.Layout.CuOffsets.size() != Out.code().CUs.size() ||
      Out.Ids.IncrementalIds.size() != Out.Snapshot.Entries.size() ||
      Out.Ids.StructuralHashes.size() != Out.Snapshot.Entries.size() ||
      Out.Ids.HeapPathHashes.size() != Out.Snapshot.Entries.size() ||
      Out.Layout.HugeRegionSize > Out.Layout.TextSize ||
      Out.Layout.HugePages > Out.Layout.HugePagesRequested ||
      (Out.Split.active() &&
       (Out.Split.PerCu.size() != Out.code().CUs.size() ||
        Out.Layout.CuColdOffsets.size() != Out.code().CUs.size()))) {
    Error = "inconsistent image file";
    return false;
  }
  return true;
}
