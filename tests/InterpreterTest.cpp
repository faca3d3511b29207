//===- InterpreterTest.cpp - End-to-end MiniJava execution tests -----------===//

#include "src/lang/Compile.h"
#include "src/runtime/Interpreter.h"

#include <gtest/gtest.h>

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
