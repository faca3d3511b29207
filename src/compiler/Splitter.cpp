//===- Splitter.cpp - Profile-guided hot/cold CU splitting ------------------===//

#include "src/compiler/Splitter.h"

#include "src/compiler/CodeSize.h"
#include "src/obs/Metrics.h"
#include "src/support/SplitMix64.h"

#include <cassert>
#include <unordered_map>

using namespace nimg;

namespace {

/// Issue cap mirroring profile ingestion (Analyses.cpp): a pathological
/// profile must not balloon the report.
constexpr size_t MaxRecordedIssues = 16;

void addIssue(SplitResult &R, ProfileError Kind, size_t Row,
              std::string Detail) {
  if (R.Issues.size() < MaxRecordedIssues)
    R.Issues.push_back({Kind, Row, std::move(Detail)});
}

/// Per-block byte sizes of one method body under the CodeSize model. The
/// entry block carries the prologue, so the sum over blocks equals
/// methodCodeSize() — and therefore the copy's CodeSize — exactly.
std::vector<uint32_t> blockSizes(const Program &P, MethodId M,
                                 bool Instrumented) {
  const Method &Meth = P.method(M);
  std::vector<uint32_t> Sizes(Meth.Blocks.size(), 0);
  for (size_t B = 0; B < Meth.Blocks.size(); ++B) {
    uint32_t S = 0;
    for (const Instr &In : Meth.Blocks[B].Instrs) {
      S += instrCodeSize(In);
      if (Instrumented)
        S += instrProbeSize(In);
    }
    Sizes[B] = S;
  }
  if (!Sizes.empty()) {
    Sizes[0] += 16; // prologue
    if (Instrumented)
      Sizes[0] += 16; // CU-entry / method-entry probe
  }
  return Sizes;
}

/// Static successors of block \p B (mirrors PathGraph's CFG walk).
void successorsOf(const Method &Meth, size_t B, BlockId Out[2], size_t &N) {
  N = 0;
  const Instr &Term = Meth.Blocks[B].Instrs.back();
  switch (Term.Op) {
  case Opcode::Br:
    Out[N++] = Term.Target;
    Out[N++] = BlockId(Term.Aux2);
    break;
  case Opcode::Jmp:
    Out[N++] = Term.Target;
    break;
  default:
    break;
  }
}

/// Lazily resolved per-method hot-block sets from the profile rows.
class HotBlocks {
public:
  HotBlocks(const Program &P, const BlockProfile &Prof) {
    for (const BlockProfile::Row &R : Prof.Rows) {
      if (R.Count == 0)
        continue;
      auto It = MethodOf.find(R.Sig);
      MethodId M;
      if (It != MethodOf.end()) {
        M = It->second;
      } else {
        M = P.findMethodBySig(R.Sig);
        MethodOf.emplace(R.Sig, M);
      }
      if (M < 0)
        continue; // Stale row from another program version; ignore.
      std::vector<bool> &Hot = HotOf[M];
      if (Hot.size() < P.method(M).Blocks.size())
        Hot.resize(P.method(M).Blocks.size(), false);
      if (size_t(R.Block) < Hot.size())
        Hot[R.Block] = true;
    }
  }

  /// The hot bitvector of \p M, or null when the method never executed.
  const std::vector<bool> *of(MethodId M) const {
    auto It = HotOf.find(M);
    return It == HotOf.end() ? nullptr : &It->second;
  }

private:
  std::unordered_map<std::string, MethodId> MethodOf;
  std::unordered_map<MethodId, std::vector<bool>> HotOf;
};

void meterSplit(const SplitResult &R) {
  NIMG_COUNTER_ADD("nimg.split.cus_split", R.SplitCus);
  NIMG_COUNTER_ADD("nimg.split.cus_degraded", R.DegradedCus);
  NIMG_COUNTER_ADD("nimg.split.hot_bytes", R.HotBytes);
  NIMG_COUNTER_ADD("nimg.split.cold_bytes", R.ColdBytes);
  NIMG_COUNTER_ADD("nimg.split.stub_bytes", R.StubBytes);
#ifdef NIMG_OBS_DISABLED
  (void)R;
#endif
}

} // namespace

SplitResult nimg::splitCompiledProgram(const Program &P,
                                       const CompiledProgram &CP,
                                       const BlockProfile *Prof,
                                       const SplitOptions &Opts) {
  SplitResult R;
  R.Mode = SplitMode::HotCold;
  R.PerCu.resize(CP.CUs.size());

  // Whole-profile degradation: missing, unusable, or under-covered block
  // counts leave every CU unsplit (a block wrongly believed cold would
  // fault on the cold tail every startup). The build still succeeds.
  bool Degraded = false;
  if (!Prof) {
    addIssue(R, ProfileError::InsufficientBlockProfile, 0,
             "no block profile offered");
    Degraded = true;
  } else if (!Prof->usable()) {
    addIssue(R, ProfileError::InsufficientBlockProfile, 0,
             std::string("block profile rejected: ") +
                 profileErrorSlug(Prof->LoadError));
    Degraded = true;
  } else if (Prof->CoveragePermille < Opts.MinCoveragePermille) {
    addIssue(R, ProfileError::InsufficientBlockProfile, 0,
             "salvage coverage " + std::to_string(Prof->CoveragePermille) +
                 " permille below threshold " +
                 std::to_string(Opts.MinCoveragePermille));
    Degraded = true;
  }

  HotBlocks Hot = Degraded ? HotBlocks(P, BlockProfile{})
                           : HotBlocks(P, *Prof);

  uint64_t Fp = 0x5eed5eedULL;
  uint64_t ExiledCopies = 0;
  for (size_t CuIdx = 0; CuIdx < CP.CUs.size(); ++CuIdx) {
    const CompilationUnit &CU = CP.CUs[CuIdx];
    CuSplit &S = R.PerCu[CuIdx];
    S.HotSize = CU.CodeSize;

    // Gather per-copy sizes and hotness.
    struct CopyPlan {
      std::vector<uint32_t> Sizes;
      std::vector<bool> Hot;
    };
    std::vector<CopyPlan> Plans;
    bool AnyHot = false, AnyCold = false;
    uint64_t ColdRaw = 0;
    if (!Degraded) {
      Plans.resize(CU.Copies.size());
      for (size_t C = 0; C < CU.Copies.size(); ++C) {
        const InlineCopy &Copy = CU.Copies[C];
        CopyPlan &Plan = Plans[C];
        Plan.Sizes = blockSizes(P, Copy.Method, CP.Instrumented);
        Plan.Hot.assign(Plan.Sizes.size(), false);
        const std::vector<bool> *H = Hot.of(Copy.Method);
        for (size_t B = 0; B < Plan.Hot.size(); ++B)
          Plan.Hot[B] = H && B < H->size() && (*H)[B];
      }
      // Call-site reachability: block counts aggregate over every inline
      // copy of a method, so a copy of a hot method inlined at a call site
      // whose block never executed anywhere was provably never entered —
      // exile the whole copy. Copies follow their parent in index order
      // (recursive construction), so one forward pass propagates
      // unreachability down the inline tree. This runs on the raw profile
      // bits, before glue: a glue-hot block is a placement choice, not
      // execution evidence.
      std::vector<bool> Reachable(CU.Copies.size(), true);
      for (size_t C = 1; C < CU.Copies.size(); ++C) {
        const InlineCopy &Copy = CU.Copies[C];
        size_t Parent = size_t(Copy.ParentCopy);
        size_t SiteBlock = size_t(Copy.SiteId >> 16);
        assert(Parent < C && "inline copies must follow their parent");
        if (!Reachable[Parent] || SiteBlock >= Plans[Parent].Hot.size() ||
            !Plans[Parent].Hot[SiteBlock]) {
          Reachable[C] = false;
          Plans[C].Hot.assign(Plans[C].Hot.size(), false);
          ++ExiledCopies;
        }
      }
      for (size_t C = 0; C < CU.Copies.size(); ++C) {
        CopyPlan &Plan = Plans[C];
        // Fall-through glue: a tiny never-executed block wedged between
        // hot index neighbors stays hot — exiling it costs more stub
        // bytes than it saves.
        for (size_t B = 1; B + 1 < Plan.Hot.size(); ++B)
          if (!Plan.Hot[B] && Plan.Hot[B - 1] && Plan.Hot[B + 1] &&
              Plan.Sizes[B] <= Opts.GlueMaxBytes)
            Plan.Hot[B] = true;
        for (size_t B = 0; B < Plan.Hot.size(); ++B) {
          if (Plan.Hot[B]) {
            AnyHot = true;
          } else {
            AnyCold = true;
            ColdRaw += Plan.Sizes[B];
          }
        }
      }
    }

    bool WantSplit = !Degraded && AnyHot && AnyCold &&
                     ColdRaw >= Opts.MinColdBytes;
    if (WantSplit) {
      // Internal consistency: a CU with execution evidence must have a hot
      // root entry block (every entry into the CU runs it). A profile that
      // says otherwise under-reports — degrade this CU individually.
      if (Plans[0].Hot.empty() || !Plans[0].Hot[0]) {
        addIssue(R, ProfileError::InsufficientBlockProfile, 0,
                 "cold root entry block in executed CU " +
                     P.method(CU.Root).Sig);
        ++R.DegradedCus;
        WantSplit = false;
      }
    }

    if (WantSplit) {
      S.Split = true;
      S.Copies.resize(CU.Copies.size());
      uint32_t HotCur = 0, ColdCur = 0, StubTotal = 0;
      for (size_t C = 0; C < CU.Copies.size(); ++C) {
        const CopyPlan &Plan = Plans[C];
        const Method &Meth = P.method(CU.Copies[C].Method);
        CopySplit &CS = S.Copies[C];
        CS.HotOffset = HotCur;
        CS.ColdOffset = ColdCur;
        CS.Blocks.resize(Plan.Sizes.size());

        // Both fragments keep block index order.
        for (size_t B = 0; B < Plan.Sizes.size(); ++B) {
          BlockPlace &Place = CS.Blocks[B];
          Place.Size = Plan.Sizes[B];
          Place.Cold = !Plan.Hot[B];
          uint32_t &Cur = Place.Cold ? ColdCur : HotCur;
          Place.Offset = Cur;
          Cur += Place.Size;
        }
        // One stub branch per static CFG edge crossing the boundary,
        // charged to the source block's fragment.
        uint32_t HotEdges = 0, ColdEdges = 0;
        for (size_t B = 0; B < Plan.Sizes.size(); ++B) {
          BlockId Succ[2];
          size_t N = 0;
          successorsOf(Meth, B, Succ, N);
          for (size_t I = 0; I < N; ++I) {
            size_t T = size_t(Succ[I]);
            if (T < Plan.Hot.size() && Plan.Hot[B] != Plan.Hot[T])
              ++(Plan.Hot[B] ? HotEdges : ColdEdges);
          }
        }
        HotCur += HotEdges * Opts.StubBytes;
        ColdCur += ColdEdges * Opts.StubBytes;
        StubTotal += (HotEdges + ColdEdges) * Opts.StubBytes;
        CS.HotSize = HotCur - CS.HotOffset;
        CS.ColdSize = ColdCur - CS.ColdOffset;
      }
      S.HotSize = HotCur;
      S.ColdSize = ColdCur;
      S.StubBytes = StubTotal;
      assert(uint64_t(S.HotSize) + S.ColdSize ==
                 uint64_t(CU.CodeSize) + S.StubBytes &&
             "fragment sizes must account for every byte plus stubs");
      ++R.SplitCus;
    }

    R.HotBytes += S.HotSize;
    R.ColdBytes += S.ColdSize;
    R.StubBytes += S.StubBytes;

    // Fold this CU's decision into the fingerprint: the split flag plus
    // every block's fragment assignment and intra-fragment offset.
    Fp = mix64(Fp, (uint64_t(CuIdx) << 1) | (S.Split ? 1 : 0));
    if (S.Split) {
      uint64_t H = 0;
      for (size_t C = 0; C < S.Copies.size(); ++C)
        for (size_t B = 0; B < S.Copies[C].Blocks.size(); ++B) {
          const BlockPlace &Place = S.Copies[C].Blocks[B];
          H = mix64(H, (uint64_t(C) << 33) | (uint64_t(B) << 1) |
                           (Place.Cold ? 1 : 0));
          H = mix64(H, Place.Offset);
        }
      Fp = mix64(Fp, H);
    }
  }

  if (Degraded)
    R.DegradedCus = uint32_t(CP.CUs.size());
  R.DecisionFingerprint = Fp;
  NIMG_COUNTER_ADD("nimg.split.copies_exiled", ExiledCopies);
  meterSplit(R);
  return R;
}
