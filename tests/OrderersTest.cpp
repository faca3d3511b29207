//===- OrderersTest.cpp - Code/heap ordering and matching tests -------------===//

#include "src/ir/IrBuilder.h"
#include "src/ordering/Orderers.h"

#include <gtest/gtest.h>

using namespace nimg;

namespace {

/// Builds a program with simple static methods named by \p Names (class T)
/// and a CompiledProgram with one CU each, in alphabetical order.
struct CodeFixture {
  Program P;
  ReachabilityResult Reach;
  CompiledProgram CP;

  explicit CodeFixture(std::vector<std::string> Names) {
    ClassId C = P.addClass("T");
    for (const std::string &N : Names) {
      MethodId M = P.addMethod(C, N, {}, P.intType(), /*IsStatic=*/true);
      IrBuilder B(P, M);
      B.ret(B.constInt(1));
    }
    // Main calls everything so reachability covers it.
    MethodId Main = P.addMethod(C, "mainX", {}, P.intType(), true);
    IrBuilder B(P, Main);
    uint16_t R = B.constInt(0);
    for (const std::string &N : Names) {
      MethodId M = P.findMethodBySig("T." + N + "()");
      uint16_t V = B.callStatic(M, {});
      R = B.binop(Opcode::Add, R, V);
    }
    B.ret(R);
    P.MainMethod = Main;
    Reach = analyzeReachability(P);
    InlinerConfig Cfg;
    Cfg.TrivialSize = 0; // no inlining: one CU per method
    Cfg.SmallSize = 0;
    CP = buildCompilationUnits(P, Reach, Cfg, false);
  }

  std::vector<std::string> orderedRoots(const std::vector<int32_t> &Order) {
    std::vector<std::string> Out;
    for (int32_t Cu : Order)
      Out.push_back(P.method(CP.CUs[size_t(Cu)].Root).Name);
    return Out;
  }
};

} // namespace

TEST(CodeOrdering, ProfiledCusComeFirstInProfileOrder) {
  CodeFixture F({"aa", "bb", "cc", "dd"});
  CodeProfile Profile;
  Profile.Sigs = {"T.cc()", "T.aa()"};
  auto Order = orderCusWithProfile(F.P, F.CP, Profile, CodeStrategy::CuOrder);
  auto Roots = F.orderedRoots(Order);
  ASSERT_GE(Roots.size(), 4u);
  EXPECT_EQ(Roots[0], "cc");
  EXPECT_EQ(Roots[1], "aa");
}

TEST(CodeOrdering, UnprofiledCusKeepAlphabeticalOrder) {
  CodeFixture F({"aa", "bb", "cc", "dd"});
  CodeProfile Profile;
  Profile.Sigs = {"T.dd()"};
  auto Roots = F.orderedRoots(orderCusWithProfile(F.P, F.CP, Profile, CodeStrategy::CuOrder));
  std::vector<std::string> Tail(Roots.begin() + 1, Roots.end());
  // dd first; the rest stays alphabetical (and includes mainX at its
  // alphabetical position among the unprofiled CUs).
  EXPECT_EQ(Roots[0], "dd");
  EXPECT_TRUE(std::is_sorted(Tail.begin(), Tail.end()));
}

TEST(CodeOrdering, EmptyProfileIsIdentity) {
  CodeFixture F({"aa", "bb", "cc"});
  CodeProfile Profile;
  auto Order = orderCusWithProfile(F.P, F.CP, Profile, CodeStrategy::CuOrder);
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I], int32_t(I));
}

TEST(CodeOrdering, MethodBasedUsesInlinedMembers) {
  // With inlining enabled, a CU whose *inlined* method ran gets hoisted
  // under method ordering even when its root is unprofiled.
  Program P;
  ClassId C = P.addClass("T");
  MethodId Callee = P.addMethod(C, "zcallee", {}, P.intType(), true);
  {
    IrBuilder B(P, Callee);
    B.ret(B.constInt(7));
  }
  MethodId Caller = P.addMethod(C, "acaller", {}, P.intType(), true);
  {
    IrBuilder B(P, Caller);
    B.ret(B.callStatic(Callee, {}));
  }
  P.MainMethod = Caller;
  ReachabilityResult Reach = analyzeReachability(P);
  InlinerConfig Cfg; // defaults inline the tiny callee
  CompiledProgram CP = buildCompilationUnits(P, Reach, Cfg, false);
  ASSERT_GT(CP.cuOf(Caller).Copies.size(), 1u) << "callee was not inlined";

  CodeProfile Profile;
  Profile.Sigs = {"T.zcallee()"}; // only the callee observed
  auto CuOrder = orderCusWithProfile(P, CP, Profile, CodeStrategy::CuOrder);
  auto MethodOrder = orderCusWithProfile(P, CP, Profile, CodeStrategy::MethodOrder);
  // cu ordering: no CU root matches -> alphabetical (acaller first anyway).
  // method ordering: both the callee CU and the caller CU (contains an
  // inlined copy) rank at position 0; stable sort keeps default order.
  EXPECT_EQ(P.method(CP.CUs[size_t(MethodOrder[0])].Root).Name, "acaller");
  (void)CuOrder;
}

// --- Heap matching ----------------------------------------------------------

namespace {

/// A synthetic snapshot of N stored "objects" with controllable ids.
struct HeapFixture {
  Program P;
  Heap H;
  HeapSnapshot Snap;
  IdTable Ids;

  explicit HeapFixture(std::vector<uint64_t> PathIds) : H(P) {
    ClassId C = P.addClass("Obj");
    for (size_t I = 0; I < PathIds.size(); ++I) {
      CellIdx Cell = H.allocObject(C);
      SnapshotEntry E;
      E.Cell = Cell;
      E.SizeBytes = 16;
      E.IsRoot = true;
      Snap.EntryOfCell.resize(size_t(Cell) + 1, -1);
      Snap.EntryOfCell[size_t(Cell)] = int32_t(Snap.Entries.size());
      Snap.Entries.push_back(E);
    }
    Ids.IncrementalIds.assign(PathIds.size(), 0);
    Ids.StructuralHashes.assign(PathIds.size(), 0);
    Ids.HeapPathHashes = std::move(PathIds);
  }
};

} // namespace

TEST(HeapOrdering, MatchedObjectsHoistInProfileOrder) {
  HeapFixture F({100, 200, 300, 400, 500});
  HeapProfile Profile;
  Profile.Ids = {400, 200};
  HeapMatchStats Stats;
  auto Order = orderObjectsWithProfile(F.Snap, F.Ids, HeapStrategy::HeapPath,
                                       Profile, &Stats);
  EXPECT_EQ(Stats.Matched, 2u);
  ASSERT_EQ(Order.size(), 5u);
  EXPECT_EQ(Order[0], 3); // id 400
  EXPECT_EQ(Order[1], 1); // id 200
  EXPECT_EQ(Order[2], 0); // the rest in default order
  EXPECT_EQ(Order[3], 2);
  EXPECT_EQ(Order[4], 4);
}

TEST(HeapOrdering, UnknownIdsAreSkipped) {
  HeapFixture F({1, 2});
  HeapProfile Profile;
  Profile.Ids = {999, 2};
  HeapMatchStats Stats;
  auto Order = orderObjectsWithProfile(F.Snap, F.Ids, HeapStrategy::HeapPath,
                                       Profile, &Stats);
  EXPECT_EQ(Stats.Matched, 1u);
  EXPECT_EQ(Order[0], 1);
}

TEST(HeapOrdering, CollidingIdsConsumeInDefaultOrder) {
  // Three objects share one id; the profile mentions it twice: the first
  // two (in default order) are hoisted.
  HeapFixture F({7, 7, 7});
  HeapProfile Profile;
  Profile.Ids = {7, 7};
  HeapMatchStats Stats;
  auto Order = orderObjectsWithProfile(F.Snap, F.Ids, HeapStrategy::HeapPath,
                                       Profile, &Stats);
  EXPECT_EQ(Stats.Matched, 2u);
  EXPECT_EQ(Order[0], 0);
  EXPECT_EQ(Order[1], 1);
  EXPECT_EQ(Order[2], 2);
}

TEST(HeapOrdering, ElidedEntriesNeverPlaced) {
  HeapFixture F({1, 2, 3});
  F.Snap.Entries[1].Elided = true;
  HeapProfile Profile;
  Profile.Ids = {2}; // points at the elided entry's id
  HeapMatchStats Stats;
  auto Order = orderObjectsWithProfile(F.Snap, F.Ids, HeapStrategy::HeapPath,
                                       Profile, &Stats);
  EXPECT_EQ(Stats.Matched, 0u);
  EXPECT_EQ(Order.size(), 2u);
}
