//===- ImageFile.cpp - Binary image serialization ----------------------------===//

#include "src/image/ImageFile.h"

#include "src/heap/BuildHeap.h"
#include "src/obs/Metrics.h"
#include "src/runtime/Paging.h"
#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"

#include <bit>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>

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

/// Minimum encoded sizes of the records a count announces. A count is
/// checked against the bytes left before anything is reserved for it, so a
/// corrupt count fails as a truncation instead of allocating in proportion
/// to itself.
constexpr size_t kValueBytes = 1 + 8;
constexpr size_t kCuBytes = 4 + 4 + 4;
constexpr size_t kCopyBytes = 5 * 4;
constexpr size_t kCellBytes = 1 + 4 + 4 + 4 + 4 + 1;
constexpr size_t kStaticRowBytes = 4;
constexpr size_t kResourceBytes = 4 + 4;
constexpr size_t kEntryBytes = 4 + 4 + 1 + 1 + 4 + 4 + 4;
constexpr size_t kCuSplitBytes = 1 + 4 + 4 + 4 + 4;
constexpr size_t kCopySplitBytes = 5 * 4;
constexpr size_t kBlockBytes = 4 + 4 + 1;
constexpr size_t kRegionBytes = 1 + 8 + 8 + 4;

/// Loads a little-endian integer from \p P.
template <typename T> T loadLE(const uint8_t *P) {
  T V = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&V, P, sizeof(T));
  } else {
    for (size_t I = 0; I < sizeof(T); ++I)
      V |= T(P[I]) << (8 * I);
  }
  return V;
}

/// A bounds-checked reader over an image file. Every read checks once
/// that its bytes are there; the first failure records its message and
/// exhausts the cursor, so every later read fails without touching memory
/// and returns zeros.
class Cursor {
public:
  Cursor(const std::vector<uint8_t> &Bytes, std::string &Error)
      : At(Bytes.data()), End(Bytes.data() + Bytes.size()), Error(Error) {}

  bool ok() const { return !Failed; }
  size_t left() const { return size_t(End - At); }

  /// Returns the next \p N bytes and steps past them, or null.
  const uint8_t *take(size_t N) {
    if (left() < N) [[unlikely]] {
      fail("unexpected end of image file");
      return nullptr;
    }
    const uint8_t *P = At;
    At += N;
    return P;
  }
  template <typename T> T fixed() {
    const uint8_t *P = take(sizeof(T));
    return P ? loadLE<T>(P) : T(0);
  }
  uint8_t u8() { return fixed<uint8_t>(); }
  uint32_t u32() { return fixed<uint32_t>(); }
  uint64_t u64() { return fixed<uint64_t>(); }
  /// Reads a count of records of at least \p MinBytes each.
  uint32_t count(size_t MinBytes) {
    uint32_t N = u32();
    if (uint64_t(N) * MinBytes > left()) [[unlikely]] {
      fail("unexpected end of image file");
      return 0;
    }
    return N;
  }
  std::string_view str() {
    uint32_t Len = u32();
    const uint8_t *P = take(Len);
    return P ? std::string_view(reinterpret_cast<const char *>(P), Len)
             : std::string_view();
  }
  void bools(std::vector<bool> &Out) {
    uint32_t N = count(1);
    const uint8_t *P = take(N);
    Out.assign(N, false);
    for (uint32_t I = 0; P && I < N; ++I)
      Out[I] = P[I] != 0;
  }
  template <typename T> void ints(std::vector<T> &Out) {
    uint32_t N = count(sizeof(T));
    const uint8_t *P = take(size_t(N) * sizeof(T));
    Out.resize(N);
    for (uint32_t I = 0; P && I < N; ++I)
      Out[I] = T(loadLE<std::make_unsigned_t<T>>(P + I * sizeof(T)));
  }
  /// Decodes \p Out.size() values from \p P (already taken) into \p Out,
  /// failing on a corrupt kind or a reference to no cell below \p NumCells.
  void values(const uint8_t *P, std::span<Value> Out, uint32_t NumCells) {
    for (Value &V : Out) {
      int64_t Raw = int64_t(loadLE<uint64_t>(P + 1));
      switch (ValueKind(*P)) {
      case ValueKind::Null:
        break;
      case ValueKind::Int:
        V = Value::makeInt(Raw);
        break;
      case ValueKind::Double:
        V.Kind = ValueKind::Double;
        V.I = Raw;
        break;
      case ValueKind::Bool:
        V = Value::makeBool(Raw != 0);
        break;
      case ValueKind::Ref:
        if (Raw < 0 || Raw >= int64_t(NumCells)) {
          fail("reference to a cell outside the heap");
          return;
        }
        V = Value::makeRef(CellIdx(Raw));
        break;
      default:
        fail("corrupt value kind");
        return;
      }
      P += kValueBytes;
    }
  }

  [[gnu::cold, gnu::noinline]] void fail(const char *Msg) {
    if (!Failed)
      Error = Msg;
    Failed = true;
    At = End;
  }

private:
  const uint8_t *At;
  const uint8_t *End;
  std::string &Error;
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
    B.appendU32(Cell.NumSlots);
    for (const Value &V : H.slots(CellIdx(C)))
      putValue(B, V);
    B.appendSizedString(H.str(CellIdx(C)));
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
    B.appendSizedString(Img.Snapshot.detail(E));
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
  C.bools(Base->Reach.ReachableMethods);
  C.bools(Base->Reach.InstantiatedClasses);
  C.bools(Base->Reach.ReachableClasses);
  C.bools(Base->Reach.SaturatedSelectors);

  CompiledProgram &Code = Base->Code;
  Code.Instrumented = C.u8() != 0;
  Code.InlineFingerprint = C.u64();
  C.ints(Code.CuOfMethod);
  Code.CUs.resize(C.count(kCuBytes));
  for (CompilationUnit &CU : Code.CUs) {
    CU.Root = MethodId(C.u32());
    CU.CodeSize = C.u32();
    uint32_t NumCopies = C.count(kCopyBytes);
    const uint8_t *Rec = C.take(size_t(NumCopies) * kCopyBytes);
    if (!Rec)
      break;
    CU.Copies.resize(NumCopies);
    for (uint32_t K = 0; K < NumCopies; ++K, Rec += kCopyBytes) {
      InlineCopy &Copy = CU.Copies[K];
      Copy.Method = MethodId(loadLE<uint32_t>(Rec));
      Copy.ParentCopy = int32_t(loadLE<uint32_t>(Rec + 4));
      Copy.SiteId = loadLE<uint32_t>(Rec + 8);
      Copy.CodeOffset = loadLE<uint32_t>(Rec + 12);
      Copy.CodeSize = loadLE<uint32_t>(Rec + 16);
    }
    CU.buildInlineMap();
  }

  // Cells are built in place from the file: the serialized graph encodes
  // sharing via cell indices, so each cell is recreated at its index with
  // no dedup, and interned strings re-register as they arrive. Every
  // reference is checked against the cell count, which precedes them all.
  // Read the program through a const view: its non-const accessors bump
  // the program's version.
  const Program &Prog = P;
  BuildHeapResult &Built = Base->Built;
  auto OwnedHeap = std::make_shared<Heap>(P);
  Built.BuildHeap = OwnedHeap;
  Heap &H = *OwnedHeap;
  uint32_t NumCells = C.count(kCellBytes);
  H.reserveCells(NumCells);
  for (uint32_t I = 0; I < NumCells && C.ok(); ++I) {
    const uint8_t *Head = C.take(1 + 4 + 4);
    uint32_t NumSlots = C.count(kValueBytes);
    const uint8_t *SlotBytes = C.take(size_t(NumSlots) * kValueBytes);
    std::string_view Str = C.str();
    bool Interned = C.u8() != 0;
    if (!C.ok())
      return false;
    CellKind Kind = CellKind(Head[0]);
    ClassId Class = ClassId(loadLE<uint32_t>(Head + 1));
    TypeId ArrayType = TypeId(loadLE<uint32_t>(Head + 5));
    switch (Kind) {
    case CellKind::Object:
      if (Class < 0 || size_t(Class) >= Prog.numClasses()) {
        C.fail("cell class out of range");
        return false;
      }
      if (Prog.classDef(Class).IsAbstract) {
        C.fail("cell class is abstract");
        return false;
      }
      if (NumSlots != Prog.layout(Class).size()) {
        C.fail("cell slot count mismatch");
        return false;
      }
      C.values(SlotBytes, H.appendCell(Kind, Class, -1, NumSlots, {}),
               NumCells);
      break;
    case CellKind::Array:
      if (ArrayType < 0 || size_t(ArrayType) >= Prog.numTypes() ||
          Prog.type(ArrayType).Kind != TypeKind::Array) {
        C.fail("cell array type out of range");
        return false;
      }
      C.values(SlotBytes, H.appendCell(Kind, -1, ArrayType, NumSlots, {}),
               NumCells);
      break;
    case CellKind::String:
      if (NumSlots != 0) {
        C.fail("cell slot count mismatch");
        return false;
      }
      H.appendCell(Kind, -1, -1, 0, Str);
      if (Interned)
        H.registerInterned(CellIdx(I));
      break;
    default:
      C.fail("corrupt cell kind");
      return false;
    }
  }

  Built.Statics.resize(C.count(kStaticRowBytes));
  for (std::vector<Value> &Row : Built.Statics) {
    uint32_t N = C.count(kValueBytes);
    const uint8_t *Rec = C.take(size_t(N) * kValueBytes);
    if (!Rec)
      break;
    Row.resize(N);
    C.values(Rec, Row, NumCells);
  }
  C.ints(Built.InitOrder);
  C.ints(Built.ClassMetaCells);
  for (CellIdx Meta : Built.ClassMetaCells)
    if (Meta != -1 && (Meta < 0 || uint32_t(Meta) >= NumCells))
      C.fail("reference to a cell outside the heap");
  uint32_t NumResources = C.count(kResourceBytes);
  Built.ResourceCells.reserve(NumResources);
  for (uint32_t I = 0; I < NumResources && C.ok(); ++I) {
    std::string_view Name = C.str();
    uint32_t Cell = C.u32();
    if (C.ok() && Cell >= NumCells)
      C.fail("reference to a cell outside the heap");
    Built.ResourceCells.emplace(Name, CellIdx(Cell));
  }
  if (!C.ok())
    return false;
  Out.Built = Built;
  Out.Base = std::move(Base);

  uint32_t NumEntries = C.count(kEntryBytes);
  Out.Snapshot.Entries.clear();
  Out.Snapshot.Entries.resize(NumEntries);
  Out.Snapshot.EntryOfCell.assign(H.numCells(), -1);
  auto Reasons = std::make_shared<ReasonTable>();
  for (uint32_t I = 0; I < NumEntries && C.ok(); ++I) {
    SnapshotEntry &E = Out.Snapshot.Entries[I];
    const uint8_t *Head = C.take(4 + 4 + 1 + 1);
    std::string_view Detail = C.str();
    const uint8_t *Parent = C.take(4 + 4);
    if (!Parent)
      return false;
    E.Cell = CellIdx(loadLE<uint32_t>(Head));
    E.SizeBytes = loadLE<uint32_t>(Head + 4);
    E.IsRoot = Head[8] & 1;
    E.Elided = Head[8] & 2;
    E.ParentEntry = int32_t(loadLE<uint32_t>(Parent));
    E.ParentSlot = int32_t(loadLE<uint32_t>(Parent + 4));
    if (E.Cell < 0 || size_t(E.Cell) >= H.numCells()) {
      C.fail("snapshot entry names a cell outside the heap");
      return false;
    }
    if (Head[8] & ~3) {
      C.fail("unknown snapshot entry flags");
      return false;
    }
    if (Head[9] > uint8_t(InclusionReasonKind::Resource)) {
      C.fail("corrupt inclusion reason kind");
      return false;
    }
    E.Reason.Kind = InclusionReasonKind(Head[9]);
    if (!Detail.empty()) {
      if (!E.IsRoot || !reasonHasDetail(E.Reason.Kind)) {
        C.fail("reason detail on an entry whose reason has none");
        return false;
      }
      if (Reasons->size() == ReasonTable::MaxDetails) {
        C.fail("too many reason details");
        return false;
      }
      E.Reason.Detail = Reasons->add({Detail});
    }
    if (E.ParentEntry < -1 || E.ParentEntry >= int64_t(NumEntries)) {
      C.fail("snapshot entry parent out of range");
      return false;
    }
    int32_t &Slot = Out.Snapshot.EntryOfCell[size_t(E.Cell)];
    if (Slot == -1)
      Slot = int32_t(I);
  }
  Out.Snapshot.Reasons = std::move(Reasons);

  C.ints(Out.Ids.IncrementalIds);
  C.ints(Out.Ids.StructuralHashes);
  C.ints(Out.Ids.HeapPathHashes);

  Out.Layout.PageSize = C.u32();
  C.ints(Out.Layout.CuOrder);
  C.ints(Out.Layout.CuOffsets);
  Out.Layout.NativeTailOffset = C.u64();
  Out.Layout.NativeTailSize = C.u64();
  Out.Layout.TextSize = C.u64();
  C.ints(Out.Layout.StaticsBase);
  Out.Layout.StaticsSize = C.u64();
  C.ints(Out.Layout.ObjectOrder);
  C.ints(Out.Layout.ObjectOffsets);
  Out.Layout.HeapSize = C.u64();

  Out.Split.Mode = SplitMode(C.u8());
  Out.Split.DecisionFingerprint = C.u64();
  Out.Split.SplitCus = C.u32();
  Out.Split.DegradedCus = C.u32();
  Out.Split.HotBytes = C.u64();
  Out.Split.ColdBytes = C.u64();
  Out.Split.StubBytes = C.u64();
  Out.Split.PerCu.clear();
  Out.Split.PerCu.resize(C.count(kCuSplitBytes));
  for (CuSplit &S : Out.Split.PerCu) {
    S.Split = C.u8() != 0;
    S.HotSize = C.u32();
    S.ColdSize = C.u32();
    S.StubBytes = C.u32();
    S.Copies.resize(C.count(kCopySplitBytes));
    for (CopySplit &CS : S.Copies) {
      CS.HotOffset = C.u32();
      CS.HotSize = C.u32();
      CS.ColdOffset = C.u32();
      CS.ColdSize = C.u32();
      uint32_t NumBlocks = C.count(kBlockBytes);
      const uint8_t *Rec = C.take(size_t(NumBlocks) * kBlockBytes);
      if (!Rec)
        return false;
      CS.Blocks.resize(NumBlocks);
      for (BlockPlace &BP : CS.Blocks) {
        BP.Offset = loadLE<uint32_t>(Rec);
        BP.Size = loadLE<uint32_t>(Rec + 4);
        BP.Cold = Rec[8] != 0;
        Rec += kBlockBytes;
      }
    }
  }
  C.ints(Out.Layout.CuColdOffsets);
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
    uint32_t NumRegions = C.count(kRegionBytes);
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
