//===- InterpreterTest.cpp - End-to-end MiniJava execution tests -----------===//

#include "src/lang/Compile.h"
#include "src/runtime/Interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>

using namespace nimg;

namespace {

/// Compiles sources and runs Main.main() with build-time clinit semantics;
/// returns the result value.
struct RunResult {
  Value Result;
  std::string Output;
  uint64_t Instructions;
};

RunResult runProgram(const std::vector<std::string> &Sources) {
  auto P = std::make_unique<Program>();
  std::vector<std::string> Errors;
  bool Ok = compileSources(Sources, *P, Errors);
  EXPECT_TRUE(Ok);
  for (auto &E : Errors)
    ADD_FAILURE() << E;
  EXPECT_NE(P->MainMethod, -1) << "program has no Main.main()";
  auto H = std::make_unique<Heap>(*P);
  InterpConfig Cfg;
  Cfg.RunClinits = true;
  Interpreter I(*P, *H, Cfg);
  Value R = I.runToCompletion(P->MainMethod, {});
  return {R, I.output(), I.instructionsExecuted()};
}

int64_t runInt(const std::string &Source) {
  RunResult R = runProgram({Source});
  EXPECT_EQ(R.Result.Kind, ValueKind::Int);
  return R.Result.asInt();
}

double runDouble(const std::string &Source) {
  RunResult R = runProgram({Source});
  EXPECT_EQ(R.Result.Kind, ValueKind::Double);
  return R.Result.asDouble();
}

} // namespace

TEST(Interp, ArithmeticAndPrecedence) {
  EXPECT_EQ(runInt("class Main { static int main() {"
                   " return 2 + 3 * 4 - 10 / 2 % 3; } }"),
            2 + 3 * 4 - 10 / 2 % 3);
}

TEST(Interp, DoubleMath) {
  EXPECT_DOUBLE_EQ(runDouble("class Main { static double main() {"
                             " double x = 1.5; return x * 2.0 + 1; } }"),
                   4.0);
}

TEST(Interp, MixedIntDoublePromotion) {
  EXPECT_DOUBLE_EQ(runDouble("class Main { static double main() {"
                             " int i = 3; return i / 2.0; } }"),
                   1.5);
}

TEST(Interp, CastTruncates) {
  EXPECT_EQ(runInt("class Main { static int main() {"
                   " double d = 3.9; return (int) d; } }"),
            3);
}

TEST(Interp, BitwiseOps) {
  EXPECT_EQ(runInt("class Main { static int main() {"
                   " return ((12 & 10) | ((1 << 4) ^ 3)); } }"),
            (12 & 10) | ((1 << 4) ^ 3));
}

TEST(Interp, ShortCircuitAvoidsEvaluation) {
  // The right operand would trap (division by zero) if evaluated.
  EXPECT_EQ(runInt("class Main {\n"
                   " static boolean boom() { int x = 1 / 0; return true; }\n"
                   " static int main() {\n"
                   "  boolean b = false && boom();\n"
                   "  boolean c = true || boom();\n"
                   "  if (b) { return 1; } if (!c) { return 2; } return 3;\n"
                   " } }"),
            3);
}

TEST(Interp, WhileAndForLoops) {
  EXPECT_EQ(runInt("class Main { static int main() {\n"
                   " int s = 0;\n"
                   " for (int i = 0; i < 10; i = i + 1) { s = s + i; }\n"
                   " int j = 0; while (j < 5) { s = s + 100; j = j + 1; }\n"
                   " return s; } }"),
            45 + 500);
}

TEST(Interp, BreakContinue) {
  EXPECT_EQ(runInt("class Main { static int main() {\n"
                   " int s = 0;\n"
                   " for (int i = 0; i < 100; i = i + 1) {\n"
                   "  if (i == 7) { break; }\n"
                   "  if (i % 2 == 0) { continue; }\n"
                   "  s = s + i;\n"
                   " }\n"
                   " return s; } }"),
            1 + 3 + 5);
}

TEST(Interp, RecursionFibonacci) {
  EXPECT_EQ(runInt("class Main {\n"
                   " static int fib(int n) {\n"
                   "  if (n < 2) { return n; } return fib(n-1) + fib(n-2);\n"
                   " }\n"
                   " static int main() { return fib(15); } }"),
            610);
}

TEST(Interp, ObjectsFieldsAndConstructors) {
  EXPECT_EQ(runInt("class Point { int x; int y;\n"
                   "  Point(int x, int y) { this.x = x; this.y = y; }\n"
                   "  int sum() { return x + y; } }\n"
                   "class Main { static int main() {\n"
                   "  Point p = new Point(3, 4); return p.sum(); } }"),
            7);
}

TEST(Interp, InstanceFieldInitializersRun) {
  EXPECT_EQ(runInt("class A { int x = 41; int bump() { return x + 1; } }\n"
                   "class Main { static int main() {\n"
                   "  return new A().bump(); } }"),
            42);
}

TEST(Interp, InheritanceAndSuperCtor) {
  EXPECT_EQ(runInt("class Base { int b; Base(int b) { this.b = b; } }\n"
                   "class Derived extends Base { int d;\n"
                   "  Derived(int b, int d) { super(b); this.d = d; }\n"
                   "  int total() { return b + d; } }\n"
                   "class Main { static int main() {\n"
                   "  return new Derived(30, 12).total(); } }"),
            42);
}

TEST(Interp, VirtualDispatch) {
  EXPECT_EQ(runInt(
                "abstract class Animal { abstract int legs(); }\n"
                "class Dog extends Animal { int legs() { return 4; } }\n"
                "class Bird extends Animal { int legs() { return 2; } }\n"
                "class Main { static int main() {\n"
                "  Animal a = new Dog(); Animal b = new Bird();\n"
                "  return a.legs() * 10 + b.legs(); } }"),
            42);
}

TEST(Interp, OverrideCallsThroughBaseArray) {
  EXPECT_EQ(runInt("abstract class Op { abstract int apply(int x); }\n"
                   "class Inc extends Op { int apply(int x) { return x + 1; } }\n"
                   "class Dbl extends Op { int apply(int x) { return x * 2; } }\n"
                   "class Main { static int main() {\n"
                   "  Op[] ops = new Op[2];\n"
                   "  ops[0] = new Inc(); ops[1] = new Dbl();\n"
                   "  int v = 10;\n"
                   "  for (int i = 0; i < ops.length; i = i + 1) {"
                   "    v = ops[i].apply(v); }\n"
                   "  return v; } }"),
            22);
}

TEST(Interp, ArraysAndLength) {
  EXPECT_EQ(runInt("class Main { static int main() {\n"
                   "  int[] a = new int[10];\n"
                   "  for (int i = 0; i < a.length; i = i + 1) { a[i] = i * i; }\n"
                   "  return a[9] + a.length; } }"),
            91);
}

TEST(Interp, NestedArrays) {
  EXPECT_EQ(runInt("class Main { static int main() {\n"
                   "  int[][] m = new int[3][];\n"
                   "  for (int i = 0; i < 3; i = i + 1) {\n"
                   "    m[i] = new int[3];\n"
                   "    for (int j = 0; j < 3; j = j + 1) { m[i][j] = i * j; }\n"
                   "  }\n"
                   "  return m[2][2]; } }"),
            4);
}

TEST(Interp, StaticFieldsAndClinit) {
  EXPECT_EQ(runInt("class Counter { static int base = 40;\n"
                   "  static { base = base + 2; } }\n"
                   "class Main { static int main() { return Counter.base; } }"),
            42);
}

TEST(Interp, ClinitRunsOnceLazily) {
  EXPECT_EQ(runInt("class C { static int inits = 0; static int v = 1;\n"
                   "  static { inits = inits + 1; } }\n"
                   "class Main { static int main() {\n"
                   "  int a = C.v; int b = C.v; return C.inits; } }"),
            1);
}

TEST(Interp, ClinitDependencyChain) {
  // B's initializer reads A's static, forcing A's clinit mid-way.
  EXPECT_EQ(runInt("class A { static int x = 10; }\n"
                   "class B { static int y = A.x + 32; }\n"
                   "class Main { static int main() { return B.y; } }"),
            42);
}

TEST(Interp, SuperclassClinitRunsFirst) {
  EXPECT_EQ(runInt(
                "class Base { static int order = 1; }\n"
                "class Sub extends Base { static int v = Base.order * 42; }\n"
                "class Main { static int main() { return Sub.v; } }"),
            42);
}

TEST(Interp, StringsConcatAndBuiltins) {
  RunResult R = runProgram({"class Main { static void main() {\n"
                            "  String s = \"a\" + 1 + \"b\" + 2.5;\n"
                            "  Sys.print(s);\n"
                            "  Sys.printInt(Str.length(s));\n"
                            "} }"});
  EXPECT_EQ(R.Output, "a1b2.5\n6\n");
}

TEST(Interp, StringOps) {
  EXPECT_EQ(runInt("class Main { static int main() {\n"
                   "  String s = \"hello world\";\n"
                   "  String w = Str.substring(s, 6, 11);\n"
                   "  if (Str.equals(w, \"world\")) { return Str.charAt(w, 0); }\n"
                   "  return 0; } }"),
            int64_t('w'));
}

TEST(Interp, SubstringsAndInternsOfAGrowingArena) {
  // Str.substring and Str.intern copy a view of the heap's own characters
  // into a new cell, and the allocation grows the arena under that view;
  // the ASan lane checks nothing reads the old arena.
  EXPECT_EQ(runInt("class Main { static int main() {\n"
                   "  String s = \"\";\n"
                   "  for (int i = 0; i < 300; i = i + 1) {\n"
                   "    s = s + \"x\" + i;\n"
                   "  }\n"
                   "  int same = 0;\n"
                   "  for (int i = 0; i < 200; i = i + 1) {\n"
                   "    String t = Str.substring(s, i, i + 40);\n"
                   "    String u = Str.intern(t);\n"
                   "    if (Str.equals(u, t) &&\n"
                   "        u == Str.intern(Str.substring(s, i, i + 40))) {\n"
                   "      same = same + 1;\n"
                   "    }\n"
                   "  }\n"
                   "  String head = Str.substring(s, 0, 4);\n"
                   "  if (Str.charAt(head, 3) != 49) { return -1; }\n"
                   "  return same; } }"),
            200);
}

TEST(Interp, NullComparison) {
  EXPECT_EQ(runInt("class A { A next; }\n"
                   "class Main { static int main() {\n"
                   "  A a = new A();\n"
                   "  if (a.next == null) { return 1; } return 0; } }"),
            1);
}

TEST(Interp, MathNatives) {
  EXPECT_DOUBLE_EQ(runDouble("class Main { static double main() {\n"
                             "  return Sys.sqrt(16.0) + Sys.floor(1.9); } }"),
                   5.0);
}

TEST(Interp, TrapNullDeref) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({"class A { int x; }\n"
                              "class Main { static int main() {\n"
                              "  A a = null; return a.x; } }"},
                             P, Errors));
  Heap H(P);
  InterpConfig Cfg;
  Cfg.RunClinits = true;
  Interpreter I(P, H, Cfg);
  uint32_t Tid = I.spawnThread(P.MainMethod, {});
  while (!I.threadFinished(Tid))
    I.step(Tid, 1000);
  EXPECT_TRUE(I.threadTrapped(Tid));
  EXPECT_NE(I.trapMessage(Tid).find("null dereference"), std::string::npos);
}

TEST(Interp, TrapArrayBounds) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({"class Main { static int main() {\n"
                              "  int[] a = new int[2]; return a[5]; } }"},
                             P, Errors));
  Heap H(P);
  Interpreter I(P, H);
  I.markAllClinitsDone();
  uint32_t Tid = I.spawnThread(P.MainMethod, {});
  while (!I.threadFinished(Tid))
    I.step(Tid, 1000);
  EXPECT_TRUE(I.threadTrapped(Tid));
  EXPECT_NE(I.trapMessage(Tid).find("out of bounds"), std::string::npos);
}

TEST(Interp, TrapDivZero) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({"class Main { static int main() {\n"
                              "  int z = 0; return 5 / z; } }"},
                             P, Errors));
  Heap H(P);
  Interpreter I(P, H);
  I.markAllClinitsDone();
  uint32_t Tid = I.spawnThread(P.MainMethod, {});
  while (!I.threadFinished(Tid))
    I.step(Tid, 1000);
  EXPECT_TRUE(I.threadTrapped(Tid));
}

TEST(Interp, QuantumSteppingIsIncremental) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({"class Main { static int main() {\n"
                              "  int s = 0;\n"
                              "  for (int i = 0; i < 1000; i = i + 1) {"
                              "    s = s + 1; }\n"
                              "  return s; } }"},
                             P, Errors));
  Heap H(P);
  Interpreter I(P, H);
  I.markAllClinitsDone();
  uint32_t Tid = I.spawnThread(P.MainMethod, {});
  uint64_t Steps = 0;
  while (!I.threadFinished(Tid)) {
    uint64_t N = I.step(Tid, 7);
    EXPECT_LE(N, 7u);
    Steps += N;
  }
  EXPECT_GT(Steps, 1000u);
  EXPECT_EQ(I.threadResult(Tid).asInt(), 1000);
}

TEST(Interp, InternedStringsShareCells) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources(
      {"class Main { static boolean main() {\n"
       "  String a = \"shared\"; String b = \"shared\";\n"
       "  return a == b; } }"}, // identity compare: interned literals
      P, Errors));
  Heap H(P);
  Interpreter I(P, H);
  I.markAllClinitsDone();
  Value R = I.runToCompletion(P.MainMethod, {});
  EXPECT_TRUE(R.asBool());
}

TEST(Interp, CastObjectRoundTrip) {
  EXPECT_EQ(runInt("class Box { int v; Box(int v) { this.v = v; } }\n"
                   "class Main { static int main() {\n"
                   "  Object o = new Box(42);\n"
                   "  Box b = (Box) o;\n"
                   "  return b.v; } }"),
            42);
}

TEST(Interp, ResultOfThreadRootMethod) {
  RunResult R = runProgram({"class Main { static int main() {\n"
                            "  return 123; } }"});
  EXPECT_EQ(R.Result.asInt(), 123);
  EXPECT_GT(R.Instructions, 0u);
}

//===----------------------------------------------------------------------===//
// Exactness of the instruction loop: fuel, quanta, lazy initialization,
// traps, yields and program edits, observed through every hook call.
//===----------------------------------------------------------------------===//

namespace {

/// One hook call and the instruction count the interpreter reported then.
struct HookEvent {
  uint64_t Clock;
  std::string What;
  bool operator==(const HookEvent &O) const {
    return Clock == O.Clock && What == O.What;
  }
};

std::ostream &operator<<(std::ostream &OS, const HookEvent &E) {
  return OS << E.Clock << ' ' << E.What;
}

/// Records every hook call with its arguments.
class EventLog : public RuntimeHooks {
public:
  explicit EventLog(const Interpreter &I) : I(I) {}
  std::vector<HookEvent> Events;

  void onMethodEnter(uint32_t Tid, const ExecContext &Ctx, MethodId M,
                     bool NewCu) override {
    add("enter", {Tid, Ctx.Cu, Ctx.Copy, M, NewCu});
  }
  void onMethodExit(uint32_t Tid, MethodId M, BlockId Block) override {
    add("exit", {Tid, M, Block});
  }
  void onCallSite(uint32_t Tid, MethodId Caller, uint32_t SiteId) override {
    add("call", {Tid, Caller, SiteId});
  }
  void onBlockEdge(uint32_t Tid, const ExecContext &Ctx, MethodId M,
                   BlockId From, BlockId To) override {
    add("edge", {Tid, Ctx.Cu, Ctx.Copy, M, From, To});
  }
  void onAccessSite(uint32_t Tid, MethodId M, uint32_t SiteId,
                    const CellIdx *Cells, uint16_t Count) override {
    std::vector<int64_t> Args = {Tid, M, SiteId, Count};
    for (uint16_t K = 0; K < Count; ++K)
      Args.push_back(Cells[K]);
    add("access", Args);
  }
  void onStaticAccess(uint32_t Tid, ClassId C, int32_t StaticIdx) override {
    add("static", {Tid, C, StaticIdx});
  }
  void onAllocate(uint32_t Tid, CellIdx C) override { add("alloc", {Tid, C}); }
  void onNativeCall(uint32_t Tid, NativeId N) override {
    add("native", {Tid, int64_t(N)});
  }

private:
  void add(const char *Kind, const std::vector<int64_t> &Args) {
    std::string S = Kind;
    for (int64_t A : Args)
      S += ' ' + std::to_string(A);
    Events.push_back({I.instructionsExecuted(), std::move(S)});
  }
  const Interpreter &I;
};

/// Varies contexts and CU changes with the target and call site.
class ToyCodeModel : public CodeModel {
public:
  ExecContext enterContext(const ExecContext &Caller, uint32_t SiteId,
                           MethodId Target) override {
    return {int32_t(Target % 3), int32_t((SiteId + uint32_t(Caller.Copy)) & 3)};
  }
};

/// Calls (static, virtual, constructors), branches, loops, arrays, fields,
/// statics with a lazy initializer, string concatenation, natives and
/// yields.
const char *kExactWorkload = R"(
class Counter { static int base = 40; static { base = base + 2; } }
class Node { int val; Node next; Node(int v) { val = v; } }
abstract class Shape { abstract int area(); }
class Sq extends Shape { int s; Sq(int s) { this.s = s; }
  int area() { return s * s; } }
class Rect extends Shape { int w; int h;
  Rect(int w, int h) { this.w = w; this.h = h; }
  int area() { return w * h; } }
class Main {
  static int sum(int[] xs) {
    int t = 0;
    for (int i = 0; i < xs.length; i = i + 1) { t = t + xs[i]; }
    return t;
  }
  static int main() {
    int[] xs = new int[8];
    for (int i = 0; i < xs.length; i = i + 1) {
      xs[i] = i * i;
      if (i % 3 == 0) { Sys.yield(); }
    }
    Node head = null;
    for (int i = 0; i < 5; i = i + 1) {
      Node n = new Node(i); n.next = head; head = n;
    }
    Shape[] shapes = new Shape[4];
    shapes[0] = new Sq(2); shapes[1] = new Rect(2, 3);
    shapes[2] = new Sq(3); shapes[3] = new Rect(1, 5);
    int a = 0;
    for (int i = 0; i < shapes.length; i = i + 1) {
      a = a + shapes[i].area();
    }
    String s = "n" + a;
    Node n = head;
    while (n != null) { s = s + n.val; n = n.next; }
    Sys.print(s);
    double d = Sys.sqrt(2.0 * a);
    Sys.yield();
    return sum(xs) + a + Counter.base + Str.length(s) + (int) d;
  }
}
)";

std::unique_ptr<Program> compileOrFail(const std::vector<std::string> &Src) {
  auto P = std::make_unique<Program>();
  std::vector<std::string> Errors;
  EXPECT_TRUE(compileSources(Src, *P, Errors));
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  return P;
}

/// What one hooked run of main did.
struct HookedRun {
  std::vector<HookEvent> Events;
  std::vector<uint64_t> Steps; ///< What each step() returned.
  uint64_t Instructions = 0;
  bool Trapped = false;
  std::string TrapMsg;
  Value Result;
};

/// Runs Main.main() with build-time initialization, the event log and the
/// toy code model, stepping by \p Quantum until it finishes, traps or runs
/// out of \p Fuel. \p Eager lists classes to initialize first, each on a
/// bare thread of its own.
HookedRun runHooked(const Program &P, uint64_t Quantum,
                    uint64_t Fuel = InterpConfig().MaxInstructions,
                    const std::vector<ClassId> &Eager = {}) {
  Heap H(P);
  InterpConfig Cfg;
  Cfg.RunClinits = true;
  Cfg.MaxInstructions = Fuel;
  Interpreter I(P, H, Cfg);
  EventLog Log(I);
  ToyCodeModel Code;
  I.setHooks(&Log);
  I.setCodeModel(&Code);
  HookedRun R;
  auto Drive = [&](uint32_t Tid) {
    while (!I.threadFinished(Tid) && !I.fuelExhausted())
      R.Steps.push_back(I.step(Tid, Quantum));
  };
  for (ClassId C : Eager) {
    uint32_t Tid = I.newBareThread();
    I.requestClinit(Tid, C);
    Drive(Tid);
  }
  uint32_t Tid = I.spawnThread(P.MainMethod, {});
  Drive(Tid);
  R.Events = std::move(Log.Events);
  R.Instructions = I.instructionsExecuted();
  R.Trapped = I.threadTrapped(Tid);
  R.TrapMsg = I.trapMessage(Tid);
  R.Result = I.threadResult(Tid);
  return R;
}

MethodId methodNamed(const Program &P, const std::string &Name) {
  for (size_t M = 0; M < P.numMethods(); ++M)
    if (P.method(MethodId(M)).Name == Name)
      return MethodId(M);
  ADD_FAILURE() << "no method " << Name;
  return -1;
}

/// The step sizes a run of \p Total instructions takes at \p Quantum when
/// the instructions at \p YieldAt are Sys.yield() calls.
std::vector<uint64_t> expectedSteps(uint64_t Total,
                                    const std::vector<uint64_t> &YieldAt,
                                    uint64_t Quantum) {
  std::vector<uint64_t> Out;
  uint64_t Pos = 0;
  while (Pos < Total) {
    uint64_t End = std::min(Pos + Quantum, Total);
    for (uint64_t Y : YieldAt)
      if (Y >= Pos && Y < End) {
        End = Y + 1;
        break;
      }
    Out.push_back(End - Pos);
    Pos = End;
  }
  return Out;
}

/// Clocks of the Sys.yield() calls in \p Events.
std::vector<uint64_t> yieldClocks(const std::vector<HookEvent> &Events) {
  std::string Yield = "native 0 " + std::to_string(int(NativeId::Yield));
  std::vector<uint64_t> Out;
  for (const HookEvent &E : Events)
    if (E.What == Yield)
      Out.push_back(E.Clock);
  return Out;
}

} // namespace

TEST(InterpExact, FuelStopsAtExactlyKWithTheSameEventPrefix) {
  std::unique_ptr<Program> P = compileOrFail({kExactWorkload});
  HookedRun Full = runHooked(*P, 4000);
  ASSERT_FALSE(Full.Trapped) << Full.TrapMsg;
  ASSERT_EQ(Full.Result.asInt(), 140 + 24 + 42 + 8 + 6);
  const uint64_t Total = Full.Instructions;
  ASSERT_GT(Total, 300u);
  std::vector<uint64_t> Sweep;
  for (uint64_t K = 1; K <= 64; ++K)
    Sweep.push_back(K);
  for (uint64_t K = 65; K < Total + 8; K += 7)
    Sweep.push_back(K);
  Sweep.push_back(Total - 1);
  Sweep.push_back(Total);
  for (uint64_t K : Sweep) {
    SCOPED_TRACE("fuel " + std::to_string(K));
    HookedRun R = runHooked(*P, 4000, K);
    EXPECT_EQ(R.Instructions, std::min(K, Total));
    std::vector<HookEvent> Prefix;
    for (const HookEvent &E : Full.Events)
      if (E.Clock < K)
        Prefix.push_back(E);
    ASSERT_EQ(R.Events, Prefix);
  }
}

TEST(InterpExact, QuantaGiveTheReferenceStepsAndEvents) {
  std::unique_ptr<Program> P = compileOrFail({kExactWorkload});
  HookedRun Ref = runHooked(*P, 1);
  ASSERT_FALSE(Ref.Trapped) << Ref.TrapMsg;
  std::vector<uint64_t> Yields = yieldClocks(Ref.Events);
  ASSERT_EQ(Yields.size(), 4u);
  EXPECT_EQ(Ref.Steps, std::vector<uint64_t>(Ref.Instructions, 1));
  for (uint64_t Q : {uint64_t(1), uint64_t(3), uint64_t(4000)}) {
    SCOPED_TRACE("quantum " + std::to_string(Q));
    HookedRun R = runHooked(*P, Q);
    EXPECT_EQ(R.Instructions, Ref.Instructions);
    EXPECT_EQ(R.Steps, expectedSteps(Ref.Instructions, Yields, Q));
    EXPECT_EQ(R.Events, Ref.Events);
  }
}

TEST(InterpExact, YieldEndsTheQuantum) {
  std::unique_ptr<Program> P = compileOrFail({kExactWorkload});
  HookedRun R = runHooked(*P, 1'000'000);
  std::vector<uint64_t> Yields = yieldClocks(R.Events);
  ASSERT_EQ(Yields.size(), 4u);
  // One step per yield, each ending just after its Sys.yield(), then the
  // rest.
  ASSERT_EQ(R.Steps.size(), Yields.size() + 1);
  uint64_t Clock = 0;
  for (size_t K = 0; K < Yields.size(); ++K) {
    Clock += R.Steps[K];
    EXPECT_EQ(Clock, Yields[K] + 1) << "yield " << K;
  }
  EXPECT_EQ(Clock + R.Steps.back(), R.Instructions);
}

TEST(InterpExact, LazyClinitCountsTheTriggeringInstructionTwice) {
  // NewObject, GetStatic and CallStatic each trigger one initializer. The
  // trigger counts when it pushes the initializer and again when it runs
  // after it returns: three more instructions than a run whose classes
  // were initialized beforehand.
  std::unique_ptr<Program> P = compileOrFail(
      {"class A { static int n = 5; int v; A() { v = n; } }\n"
       "class B { static int x = 7; }\n"
       "class C { static int k = 3; static int f() { return k * 2; } }\n"
       "class Main { static int main() {\n"
       "  A a = new A(); int y = B.x; int z = C.f();\n"
       "  return a.v + y + z; } }"});
  ClassId A = P->findClass("A"), B = P->findClass("B"), C = P->findClass("C");
  HookedRun Lazy = runHooked(*P, 4000);
  HookedRun Eager = runHooked(*P, 4000, InterpConfig().MaxInstructions,
                              {A, B, C});
  ASSERT_FALSE(Lazy.Trapped) << Lazy.TrapMsg;
  ASSERT_FALSE(Eager.Trapped) << Eager.TrapMsg;
  EXPECT_EQ(Lazy.Result.asInt(), 18);
  EXPECT_EQ(Eager.Result.asInt(), 18);
  EXPECT_EQ(Lazy.Instructions, Eager.Instructions + 3);

  // Each initializer is entered at its trigger's clock; the trigger runs
  // again one instruction after the initializer returns.
  struct Trigger {
    ClassId Class;
    std::string After; ///< Event kind the re-executed trigger emits.
  };
  for (const Trigger &T : {Trigger{A, "alloc"}, Trigger{B, "static"},
                           Trigger{C, "call"}}) {
    MethodId Init = P->classDef(T.Class).Clinit;
    ASSERT_NE(Init, -1);
    std::string Exit = "exit 0 " + std::to_string(Init) + " ";
    size_t K = 0;
    while (K < Lazy.Events.size() &&
           Lazy.Events[K].What.compare(0, Exit.size(), Exit) != 0)
      ++K;
    ASSERT_LT(K + 1, Lazy.Events.size()) << "class " << T.Class;
    const HookEvent &Next = Lazy.Events[K + 1];
    EXPECT_EQ(Next.Clock, Lazy.Events[K].Clock + 1) << "class " << T.Class;
    EXPECT_EQ(Next.What.compare(0, T.After.size(), T.After), 0)
        << "class " << T.Class << ": " << Next.What;
  }
}

TEST(InterpExact, TrapsMidBlockAreNotCountedAndKeepTheirMessages) {
  struct Case {
    std::string Boom, Call, Message;
  };
  const std::vector<Case> Cases = {
      {"static int boom(A a) { int x = 1; int y = x + 2; return a.v + y; }",
       "boom(null)", "null dereference in "},
      {"static int boom(int z) { int x = 3; int y = x * 2; return y / z; }",
       "boom(0)", "integer division by zero in "},
      {"static int boom(int[] xs) { int i = 2; int j = i + 3;"
       " return xs[j]; }",
       "boom(new int[2])", "array index out of bounds in "},
      {"static int boom(int n) { int m = n - 5; int[] xs = new int[m];"
       " return xs.length; }",
       "boom(1)", "negative array size in "},
      {"static int boom(String s) { int i = 4; int j = i * 2;"
       " return Str.charAt(s, j); }",
       "boom(\"abc\")", "string index out of bounds in "},
      {"static int boom(A a) { int x = 1; return a.get() + x; }",
       "boom(null)", "null dereference in "},
  };
  for (const Case &TC : Cases) {
    SCOPED_TRACE(TC.Boom);
    std::unique_ptr<Program> P = compileOrFail(
        {"class A { int v; int get() { return v; } }\n"
         "class Main {\n  " + TC.Boom + "\n"
         "  static int main() { int w = 1; return " + TC.Call + " + w; } }"});
    std::string Expected = TC.Message + P->method(methodNamed(*P, "boom")).Sig;
    HookedRun One = runHooked(*P, 1);
    ASSERT_TRUE(One.Trapped);
    EXPECT_EQ(One.TrapMsg, Expected);
    // Every step but the trapping one ran one instruction.
    ASSERT_FALSE(One.Steps.empty());
    EXPECT_EQ(One.Steps.back(), 0u);
    EXPECT_EQ(One.Instructions, One.Steps.size() - 1);
    HookedRun Big = runHooked(*P, 4000);
    ASSERT_TRUE(Big.Trapped);
    EXPECT_EQ(Big.TrapMsg, Expected);
    EXPECT_EQ(Big.Instructions, One.Instructions);
    EXPECT_EQ(Big.Steps, std::vector<uint64_t>{One.Instructions});
    EXPECT_EQ(Big.Events, One.Events);
  }
}

TEST(InterpExact, AnEditedProgramRunsItsEditedBody) {
  std::unique_ptr<Program> P =
      compileOrFail({"class Main { static int k() { return 7; }\n"
                     "  static int main() { int a = k(); Sys.yield();\n"
                     "    return a * 100 + k(); } }"});
  MethodId K = methodNamed(*P, "k");
  // Points the constant k() returns at \p V (an edit: bumps the version).
  auto SetK = [&](int64_t V) {
    for (BasicBlock &BB : P->method(K).Blocks)
      for (Instr &In : BB.Instrs)
        if (In.Op == Opcode::ConstInt)
          In.IImm = V;
  };
  auto Run = [&] {
    Heap H(*P);
    Interpreter I(*P, H);
    I.markAllClinitsDone();
    return I.runToCompletion(P->MainMethod, {}).asInt();
  };
  EXPECT_EQ(Run(), 707);
  SetK(9);
  EXPECT_EQ(Run(), 909);

  // An edit between two steps of one run: the rest of the run executes
  // the edited body.
  Heap H(*P);
  Interpreter I(*P, H);
  I.markAllClinitsDone();
  uint32_t Tid = I.spawnThread(P->MainMethod, {});
  I.step(Tid, 1'000'000); // Stops after Sys.yield(); a = 9.
  ASSERT_FALSE(I.threadFinished(Tid));
  SetK(11);
  while (!I.threadFinished(Tid))
    I.step(Tid, 1'000'000);
  ASSERT_FALSE(I.threadTrapped(Tid)) << I.trapMessage(Tid);
  EXPECT_EQ(I.threadResult(Tid).asInt(), 911);
}
