//===- Instr.h - Register-machine IR instructions --------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the MiniJava IR. Methods are CFGs of basic blocks
/// over an infinite virtual register file; instructions are fixed-size
/// records (no SSA). The IR plays the role of the Graal IR in the paper: it
/// is the level at which inlining, instrumentation (Sec. 6.1), and path
/// profiling operate.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_IR_INSTR_H
#define NIMG_IR_INSTR_H

#include <cstdint>

namespace nimg {

/// Opcodes of the MiniJava IR.
enum class Opcode : uint8_t {
  // Constants.
  ConstInt,    ///< Dst <- IImm
  ConstDouble, ///< Dst <- FImm
  ConstBool,   ///< Dst <- (IImm != 0)
  ConstNull,   ///< Dst <- null
  ConstString, ///< Dst <- string-table entry Aux (an interned string)
  Move,        ///< Dst <- A

  // Arithmetic / logic. Operand kinds are fixed by the type checker; the
  // interpreter dispatches on runtime tags.
  Add, ///< Dst <- A + B (int or double)
  Sub,
  Mul,
  Div,
  Mod,
  Neg, ///< Dst <- -A
  Not, ///< Dst <- !A (bool)
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr, ///< arithmetic shift right
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  Concat, ///< Dst <- string concat of A and B (either may be int/double)
  I2D,    ///< Dst <- double(A)
  D2I,    ///< Dst <- int64(A), truncating

  // Objects and arrays.
  NewObject, ///< Dst <- new instance of class Aux (fields zero-initialized)
  NewArray,  ///< Dst <- new array, array type Aux, length in A
  ArrayLen,  ///< Dst <- length of array A
  ALoad,     ///< Dst <- A[B]
  AStore,    ///< A[B] <- C
  GetField,  ///< Dst <- A.field, layout index Aux
  PutField,  ///< A.field <- B, layout index Aux
  GetStatic, ///< Dst <- static field; class Aux, static index Aux2
  PutStatic, ///< static field <- A; class Aux, static index Aux2

  // Calls. Arguments live in Method::CallArgs[ArgsBegin, ArgsBegin+ArgsCount).
  CallStatic,  ///< Dst <- call of method Aux
  CallVirtual, ///< Dst <- virtual call; declared method Aux; args[0] is
               ///< the receiver
  CallNative,  ///< Dst <- native call, NativeId Aux

  // Control flow (block terminators).
  Ret, ///< return; A holds the value when Aux == 1
  Br,  ///< branch on bool A: true -> block Target, false -> block Aux2
  Jmp, ///< jump to block Target
};

/// Returns true for opcodes that terminate a basic block.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Ret || Op == Opcode::Br || Op == Opcode::Jmp;
}

/// Returns true for opcodes that access the heap through an object or array
/// reference. These are the "object access" events the tracing profiler
/// records for heap ordering (Sec. 6.1).
inline bool isHeapAccess(Opcode Op) {
  switch (Op) {
  case Opcode::ALoad:
  case Opcode::AStore:
  case Opcode::ArrayLen:
  case Opcode::GetField:
  case Opcode::PutField:
    return true;
  default:
    return false;
  }
}

/// Built-in native methods exposed to MiniJava programs. They model JDK /
/// substrate-VM functionality that the reproduction needs but that is not
/// worth expressing in MiniJava itself.
enum class NativeId : int32_t {
  Print,         ///< Sys.print(String) -> void
  PrintInt,      ///< Sys.printInt(int) -> void
  Sqrt,          ///< Sys.sqrt(double) -> double
  Sin,           ///< Sys.sin(double) -> double
  Cos,           ///< Sys.cos(double) -> double
  Floor,         ///< Sys.floor(double) -> double
  StrLen,        ///< Str.length(String) -> int
  StrCharAt,     ///< Str.charAt(String, int) -> int (char code)
  StrSub,        ///< Str.substring(String, int, int) -> String
  StrEquals,     ///< Str.equals(String, String) -> bool
  StrFromInt,    ///< Str.fromInt(int) -> String
  StrFromDouble, ///< Str.fromDouble(double) -> String
  StrIntern,     ///< Str.intern(String) -> String (interns into the pool)
  Spawn,         ///< Sys.spawn(...) -> void; starts a simulated thread
                 ///< running the static method whose id is in Aux2
  Respond,       ///< Sys.respond(String) -> void; marks the first response
                 ///< of a microservice workload (Sec. 7.1)
  ReadResource,  ///< Sys.readResource(String) -> String; loads an embedded
                 ///< resource from the image heap
  Yield,         ///< Sys.yield() -> void; cooperative scheduling point
};

/// Returns the number of heap-cell trace slots of an executed instruction:
/// the statically known count of object identifiers the tracing profiler
/// stores for this instruction (Sec. 6.1: "each path ID determines how many
/// object identifiers are stored after the path ID"). Slots whose runtime
/// value is not an image-heap object are recorded as zero.
inline uint16_t traceSlotCount(Opcode Op, int32_t NativeAux) {
  switch (Op) {
  case Opcode::ALoad:
  case Opcode::AStore:
  case Opcode::ArrayLen:
  case Opcode::GetField:
  case Opcode::PutField:
    return 1;
  case Opcode::Concat:
    return 2;
  case Opcode::CallNative:
    switch (NativeId(NativeAux)) {
    case NativeId::Print:
    case NativeId::StrLen:
    case NativeId::StrCharAt:
    case NativeId::StrSub:
    case NativeId::StrIntern:
    case NativeId::Respond:
      return 1;
    case NativeId::StrEquals:
    case NativeId::ReadResource:
      return 2;
    default:
      return 0;
    }
  default:
    return 0;
  }
}

/// A fixed-size IR instruction. Field meaning depends on the opcode; see
/// the per-opcode comments above. Fields are ordered to pack into 48 bytes.
struct Instr {
  Opcode Op;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint16_t ArgsCount = 0;
  int32_t Aux = -1;
  int32_t Aux2 = -1;
  int32_t Target = -1;
  uint32_t ArgsBegin = 0;
  int64_t IImm = 0;
  double FImm = 0;
};
static_assert(sizeof(Instr) == 48, "keep IR instructions packed");

} // namespace nimg

#endif // NIMG_IR_INSTR_H
