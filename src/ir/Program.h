//===- Program.h - MiniJava program model -----------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory model of a MiniJava program: interned types, classes with
/// single inheritance, fields (instance and static), methods as CFGs, and
/// an interned string table. This is the classpath that the build pipeline
/// (reachability, inlining, heap snapshotting) consumes.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_IR_PROGRAM_H
#define NIMG_IR_PROGRAM_H

#include "src/ir/Instr.h"

#include <cassert>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nimg {

using TypeId = int32_t;
using ClassId = int32_t;
using MethodId = int32_t;
using StrId = int32_t;
using BlockId = int32_t;
using SelectorId = int32_t;

/// Encodes a call/access-site id from a block and instruction index;
/// unique within a method. Site ids key inline maps, path-cut actions, and
/// trace decoding.
inline uint32_t makeSiteId(BlockId Block, size_t InstrIdx) {
  assert(Block >= 0 && Block < (1 << 15) && "block id too large for site id");
  assert(InstrIdx < (1u << 16) && "instruction index too large for site id");
  return (uint32_t(Block) << 16) | uint32_t(InstrIdx);
}
inline BlockId siteBlock(uint32_t SiteId) { return BlockId(SiteId >> 16); }
inline uint32_t siteInstr(uint32_t SiteId) { return SiteId & 0xffff; }

enum class TypeKind : uint8_t {
  Void,
  Int,
  Double,
  Bool,
  String,
  Object,
  Array,
  Null, ///< The type of the null literal; assignable to any reference type.
};

/// An interned type. Object types carry the class; array types carry the
/// element type.
struct TypeInfo {
  TypeKind Kind;
  ClassId Class = -1; ///< For TypeKind::Object.
  TypeId Elem = -1;   ///< For TypeKind::Array.
  std::string Name;   ///< Fully qualified name, e.g. "som.Vector" or "int[]".
};

/// A declared field.
struct Field {
  std::string Name;
  TypeId Type = -1;
  ClassId Owner = -1;
  bool IsFinal = false;
};

/// A class definition. Instance fields are the declared ones; the full
/// object layout (including inherited fields) is computed by the Program.
struct ClassDef {
  std::string Name;
  ClassId Id = -1;
  ClassId Super = -1;
  bool IsAbstract = false;
  std::vector<Field> InstanceFields;
  std::vector<Field> StaticFields;
  std::vector<MethodId> Methods;
  MethodId Clinit = -1; ///< Static initializer, or -1 if none.
};

/// A basic block: straight-line instructions ending in a terminator.
struct BasicBlock {
  std::vector<Instr> Instrs;
};

/// A method: a CFG over virtual registers. Parameters occupy registers
/// [0, ParamTypes.size()); for instance methods register 0 is `this`.
struct Method {
  std::string Name;
  MethodId Id = -1;
  ClassId Class = -1;
  bool IsStatic = false;
  bool IsAbstract = false;
  bool IsClinit = false;
  std::vector<TypeId> ParamTypes; ///< Includes `this` for instance methods.
  TypeId RetType = -1;
  uint16_t NumRegs = 0;
  std::vector<BasicBlock> Blocks; ///< Block 0 is the entry block.
  std::vector<uint16_t> CallArgs; ///< Argument-register pool for calls.
  std::string Sig;                ///< "Class.name(desc)" — stable across
                                  ///< builds, used for profile matching.
  SelectorId Selector = -1;       ///< Dispatch selector (instance methods).
};

/// One value derived from a program's content, kept for the content version
/// (Program::version()) it was computed at. The value is computed outside
/// the memo and published with store(), so concurrent readers of one
/// program may each compute it once; every store of a version carries an
/// equal value.
template <typename T> class VersionMemo {
public:
  /// Sets \p Out and returns true when the memo holds version \p V.
  bool lookup(uint64_t V, T &Out) const {
    std::lock_guard<std::mutex> G(Mu);
    if (Version != V)
      return false;
    Out = Value;
    return true;
  }
  void store(uint64_t V, T NewValue) {
    std::lock_guard<std::mutex> G(Mu);
    Version = V;
    Value = std::move(NewValue);
  }
  /// Empties the memo: the next lookup of any version misses.
  void clear() { store(0, T{}); }

private:
  mutable std::mutex Mu;
  uint64_t Version = 0; ///< 0 = empty: program versions start at 1.
  T Value{};
};

/// One 64-bit digest of a program's content.
using ContentDigestMemo = VersionMemo<uint64_t>;

/// A whole MiniJava program (the "classpath" in Native-Image terms).
class Program {
public:
  Program();

  // --- Types -------------------------------------------------------------

  TypeId voidType() const { return VoidTy; }
  TypeId intType() const { return IntTy; }
  TypeId doubleType() const { return DoubleTy; }
  TypeId boolType() const { return BoolTy; }
  TypeId stringType() const { return StringTy; }
  TypeId nullType() const { return NullTy; }

  /// Returns the (interned) object type of class \p C.
  TypeId objectType(ClassId C);
  /// Returns the (interned) array type with element type \p Elem.
  TypeId arrayType(TypeId Elem);

  const TypeInfo &type(TypeId T) const {
    assert(T >= 0 && size_t(T) < Types.size() && "invalid type id");
    return Types[size_t(T)];
  }
  size_t numTypes() const { return Types.size(); }

  /// Returns the fully qualified name of type \p T ("int", "String",
  /// "som.Vector", "double[]").
  const std::string &typeName(TypeId T) const { return type(T).Name; }

  /// Returns true if \p Sub is \p Super or a subclass of it.
  bool isSubclassOf(ClassId Sub, ClassId Super) const;

  // --- Classes -----------------------------------------------------------

  /// Creates a class; \p Super is -1 for root classes.
  ClassId addClass(std::string Name, ClassId Super = -1,
                   bool IsAbstract = false);

  /// The non-const overload returns an edit handle and bumps version()
  /// (see there); read through a const Program & instead.
  ClassDef &classDef(ClassId C) {
    assert(C >= 0 && size_t(C) < Classes.size() && "invalid class id");
    ++Version;
    return Classes[size_t(C)];
  }
  const ClassDef &classDef(ClassId C) const {
    assert(C >= 0 && size_t(C) < Classes.size() && "invalid class id");
    return Classes[size_t(C)];
  }
  size_t numClasses() const { return Classes.size(); }

  /// Looks a class up by name; returns -1 if absent.
  ClassId findClass(std::string_view Name) const;

  /// Returns the full instance-field layout of \p C: inherited fields
  /// first, in declaration order. Layout indices are the `Aux` operand of
  /// GetField/PutField. The layout is computed on first use and cached;
  /// adding fields afterwards is a programming error.
  const std::vector<Field> &layout(ClassId C) const;

  /// Finds the layout index of field \p Name in class \p C (searching
  /// inherited fields too); returns -1 if absent.
  int32_t findFieldIndex(ClassId C, std::string_view Name) const;

  /// Finds the static field index of \p Name declared in \p C or a
  /// superclass; returns {class, index} or {-1, -1}.
  std::pair<ClassId, int32_t> findStaticField(ClassId C,
                                              std::string_view Name) const;

  // --- Methods -----------------------------------------------------------

  /// Creates an empty method and returns its id. The signature string and
  /// dispatch selector are computed from name, class, and parameter types,
  /// so those must be final when this is called.
  MethodId addMethod(ClassId Class, std::string Name,
                     std::vector<TypeId> ParamTypes, TypeId RetType,
                     bool IsStatic, bool IsAbstract = false);

  /// The non-const overload returns an edit handle and bumps version()
  /// (see there); read through a const Program & instead.
  Method &method(MethodId M) {
    assert(M >= 0 && size_t(M) < Methods.size() && "invalid method id");
    ++Version;
    return Methods[size_t(M)];
  }
  const Method &method(MethodId M) const {
    assert(M >= 0 && size_t(M) < Methods.size() && "invalid method id");
    return Methods[size_t(M)];
  }
  size_t numMethods() const { return Methods.size(); }

  /// Finds a method by signature string; returns -1 if absent.
  MethodId findMethodBySig(std::string_view Sig) const;

  /// Finds a method declared in \p C (not superclasses) by name and
  /// parameter types (excluding the receiver); returns -1 if absent.
  MethodId findDeclaredMethod(ClassId C, std::string_view Name,
                              const std::vector<TypeId> &Params) const;

  /// Resolves a virtual call: the method invoked when the declared method
  /// \p Declared is called on a receiver of dynamic class \p Receiver.
  /// Returns -1 when no implementation exists (an abstract miss, which the
  /// verifier rules out for well-formed programs).
  MethodId resolveVirtual(ClassId Receiver, MethodId Declared) const;

  /// Returns all concrete methods that override (or are) \p Declared in
  /// subclasses of its class. Used by the reachability analysis.
  std::vector<MethodId> overridesOf(MethodId Declared) const;

  // --- Strings -----------------------------------------------------------

  /// Interns \p S into the program string table (the build-time intern
  /// pool; these become InternedString heap roots).
  StrId internString(std::string_view S);
  const std::string &string(StrId S) const {
    assert(S >= 0 && size_t(S) < Strings.size() && "invalid string id");
    return Strings[size_t(S)];
  }
  size_t numStrings() const { return Strings.size(); }

  // --- Entry points -------------------------------------------------------

  MethodId MainMethod = -1;

  /// Resources embedded in the image (name -> contents); included in the
  /// heap snapshot with inclusion reason "Resource".
  std::vector<std::pair<std::string, std::string>> Resources;

  // --- Content version ------------------------------------------------------

  /// The content version: it changes whenever the program may have been
  /// edited, and never otherwise. addClass and addMethod bump it, as do
  /// internString and objectType / arrayType when they add an entry, and
  /// every call of the non-const classDef() or method(). Digests of the
  /// program (programFingerprint, the build cache's base key) are memoized
  /// against it. MainMethod and Resources are plain fields it does not
  /// cover; whoever digests them hashes them on every use.
  ///
  /// A reference returned by a non-const accessor is an edit handle: the
  /// bump happens when it is fetched, not when it is written through. So a
  /// handle kept across a build (or a fingerprint) must be fetched again
  /// before the next edit; writing through a stale handle is a programming
  /// error that leaves the memoized digests stale. Pipeline code that only
  /// reads the program holds a const Program &, which never bumps.
  uint64_t version() const { return Version; }

  /// The memo behind programFingerprint (src/image); ir/ never reads it.
  ContentDigestMemo &fingerprintMemo() const { return FingerprintMemo; }
  /// The memo behind the interpreter's pre-decoded code (src/runtime), an
  /// immutable object shared by every run of this version; ir/ never reads
  /// it.
  VersionMemo<std::shared_ptr<const void>> &decodedCodeMemo() const {
    return DecodedCodeMemo;
  }

  /// Opaque slot for state that later pipeline layers derive from this
  /// program (core/ memoizes its strategy-independent build stages here),
  /// so the derived state lives and dies with the program. ir/ never reads
  /// it. Whoever fills it keys its entries on the program's content, so an
  /// edit after a build turns a cached entry into a miss, never a stale
  /// hit.
  std::shared_ptr<void> &derivedCache() const { return DerivedCache; }

private:
  std::string selectorKey(const std::string &Name,
                          const std::vector<TypeId> &ParamTypes,
                          bool IsStatic) const;

  std::vector<TypeInfo> Types;
  std::vector<ClassDef> Classes;
  std::vector<Method> Methods;
  std::vector<std::string> Strings;

  TypeId VoidTy, IntTy, DoubleTy, BoolTy, StringTy, NullTy;

  std::unordered_map<std::string, TypeId> TypeByName;
  std::unordered_map<std::string, ClassId> ClassByName;
  std::unordered_map<std::string, MethodId> MethodBySig;
  std::unordered_map<std::string, StrId> StringPool;
  std::unordered_map<std::string, SelectorId> SelectorByKey;
  // Lazily built per class, safe to fill from concurrent readers (see
  // Program.cpp). Dispatch[C] maps SelectorId -> MethodId for class C.
  mutable std::mutex CacheMu;
  mutable std::vector<std::vector<Field>> LayoutCache;
  mutable std::vector<uint8_t> LayoutBuilt;
  mutable std::vector<std::unordered_map<SelectorId, MethodId>> DispatchCache;
  mutable std::vector<uint8_t> DispatchBuilt;
  mutable std::shared_ptr<void> DerivedCache;
  uint64_t Version = 1;
  mutable ContentDigestMemo FingerprintMemo;
  mutable VersionMemo<std::shared_ptr<const void>> DecodedCodeMemo;

  TypeId internType(TypeInfo Info);
  const std::unordered_map<SelectorId, MethodId> &
  dispatchTable(ClassId C) const;
};

/// Builds the human-readable descriptor of a parameter list, e.g.
/// "(int,som.Vector)".
std::string paramDescriptor(const Program &P,
                            const std::vector<TypeId> &Params,
                            bool SkipReceiver);

} // namespace nimg

#endif // NIMG_IR_PROGRAM_H
