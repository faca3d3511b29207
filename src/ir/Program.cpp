//===- Program.cpp - MiniJava program model --------------------------------===//

#include "src/ir/Program.h"

#include <atomic>

using namespace nimg;

Program::Program() {
  VoidTy = internType({TypeKind::Void, -1, -1, "void"});
  IntTy = internType({TypeKind::Int, -1, -1, "int"});
  DoubleTy = internType({TypeKind::Double, -1, -1, "double"});
  BoolTy = internType({TypeKind::Bool, -1, -1, "boolean"});
  StringTy = internType({TypeKind::String, -1, -1, "String"});
  NullTy = internType({TypeKind::Null, -1, -1, "nulltype"});
}

TypeId Program::internType(TypeInfo Info) {
  auto It = TypeByName.find(Info.Name);
  if (It != TypeByName.end())
    return It->second;
  TypeId Id = TypeId(Types.size());
  ++Version;
  TypeByName.emplace(Info.Name, Id);
  Types.push_back(std::move(Info));
  return Id;
}

TypeId Program::objectType(ClassId C) {
  assert(C >= 0 && size_t(C) < Classes.size() && "invalid class id");
  return internType({TypeKind::Object, C, -1, Classes[size_t(C)].Name});
}

TypeId Program::arrayType(TypeId Elem) {
  return internType({TypeKind::Array, -1, Elem, typeName(Elem) + "[]"});
}

bool Program::isSubclassOf(ClassId Sub, ClassId Super) const {
  for (ClassId C = Sub; C != -1; C = classDef(C).Super)
    if (C == Super)
      return true;
  return false;
}

ClassId Program::addClass(std::string Name, ClassId Super, bool IsAbstract) {
  assert(ClassByName.find(Name) == ClassByName.end() && "duplicate class");
  ClassId Id = ClassId(Classes.size());
  ++Version;
  ClassDef Def;
  Def.Name = std::move(Name);
  Def.Id = Id;
  Def.Super = Super;
  Def.IsAbstract = IsAbstract;
  ClassByName.emplace(Def.Name, Id);
  Classes.push_back(std::move(Def));
  LayoutCache.emplace_back();
  LayoutBuilt.push_back(0);
  DispatchCache.emplace_back();
  DispatchBuilt.push_back(0);
  return Id;
}

ClassId Program::findClass(std::string_view Name) const {
  auto It = ClassByName.find(std::string(Name));
  return It == ClassByName.end() ? -1 : It->second;
}

/// The lazily built per-class caches below may be filled by several
/// readers of one program at once (concurrent builds): a filled entry is
/// flagged with a release store, each reader checks the flag with an
/// acquire load, and an entry is computed outside CacheMu and published
/// under it (the first publisher wins; every one computes the same value).
static bool cacheFilled(uint8_t &Flag) {
  return std::atomic_ref<uint8_t>(Flag).load(std::memory_order_acquire);
}
static void markCacheFilled(uint8_t &Flag) {
  std::atomic_ref<uint8_t>(Flag).store(1, std::memory_order_release);
}

const std::vector<Field> &Program::layout(ClassId C) const {
  assert(C >= 0 && size_t(C) < Classes.size() && "invalid class id");
  if (cacheFilled(LayoutBuilt[size_t(C)]))
    return LayoutCache[size_t(C)];
  const ClassDef &Def = Classes[size_t(C)];
  std::vector<Field> Result;
  if (Def.Super != -1)
    Result = layout(Def.Super);
  for (const Field &F : Def.InstanceFields)
    Result.push_back(F);
  std::lock_guard<std::mutex> G(CacheMu);
  if (!cacheFilled(LayoutBuilt[size_t(C)])) {
    LayoutCache[size_t(C)] = std::move(Result);
    markCacheFilled(LayoutBuilt[size_t(C)]);
  }
  return LayoutCache[size_t(C)];
}

int32_t Program::findFieldIndex(ClassId C, std::string_view Name) const {
  const std::vector<Field> &L = layout(C);
  // Search from the back so shadowing fields in subclasses win.
  for (size_t I = L.size(); I > 0; --I)
    if (L[I - 1].Name == Name)
      return int32_t(I - 1);
  return -1;
}

std::pair<ClassId, int32_t>
Program::findStaticField(ClassId C, std::string_view Name) const {
  for (ClassId Cur = C; Cur != -1; Cur = classDef(Cur).Super) {
    const ClassDef &Def = classDef(Cur);
    for (size_t I = 0; I < Def.StaticFields.size(); ++I)
      if (Def.StaticFields[I].Name == Name)
        return {Cur, int32_t(I)};
  }
  return {-1, -1};
}

std::string Program::selectorKey(const std::string &Name,
                                 const std::vector<TypeId> &ParamTypes,
                                 bool IsStatic) const {
  std::string Key = Name;
  Key += paramDescriptor(*this, ParamTypes, /*SkipReceiver=*/!IsStatic);
  return Key;
}

MethodId Program::addMethod(ClassId Class, std::string Name,
                            std::vector<TypeId> ParamTypes, TypeId RetType,
                            bool IsStatic, bool IsAbstract) {
  MethodId Id = MethodId(Methods.size());
  ++Version;
  Method M;
  M.Name = Name;
  M.Id = Id;
  M.Class = Class;
  M.IsStatic = IsStatic;
  M.IsAbstract = IsAbstract;
  M.ParamTypes = std::move(ParamTypes);
  M.RetType = RetType;
  M.NumRegs = uint16_t(M.ParamTypes.size());
  M.Sig = classDef(Class).Name + "." + Name +
          paramDescriptor(*this, M.ParamTypes, /*SkipReceiver=*/!IsStatic);
  if (!IsStatic) {
    std::string Key = selectorKey(Name, M.ParamTypes, IsStatic);
    auto [It, Inserted] =
        SelectorByKey.emplace(Key, SelectorId(SelectorByKey.size()));
    (void)Inserted;
    M.Selector = It->second;
  }
  assert(MethodBySig.find(M.Sig) == MethodBySig.end() && "duplicate method");
  MethodBySig.emplace(M.Sig, Id);
  classDef(Class).Methods.push_back(Id);
  Methods.push_back(std::move(M));
  // Adding a method invalidates dispatch caches of this class's subtree;
  // the program is fully constructed before dispatch is queried, so a full
  // reset is acceptable and simple.
  std::fill(DispatchBuilt.begin(), DispatchBuilt.end(), 0);
  return Id;
}

MethodId Program::findMethodBySig(std::string_view Sig) const {
  auto It = MethodBySig.find(std::string(Sig));
  return It == MethodBySig.end() ? -1 : It->second;
}

MethodId Program::findDeclaredMethod(ClassId C, std::string_view Name,
                                     const std::vector<TypeId> &Params) const {
  for (MethodId M : classDef(C).Methods) {
    const Method &Def = method(M);
    if (Def.Name != Name)
      continue;
    size_t Skip = Def.IsStatic ? 0 : 1;
    if (Def.ParamTypes.size() - Skip != Params.size())
      continue;
    bool Match = true;
    for (size_t I = 0; I < Params.size(); ++I)
      if (Def.ParamTypes[I + Skip] != Params[I])
        Match = false;
    if (Match)
      return M;
  }
  return -1;
}

const std::unordered_map<SelectorId, MethodId> &
Program::dispatchTable(ClassId C) const {
  if (cacheFilled(DispatchBuilt[size_t(C)]))
    return DispatchCache[size_t(C)];
  const ClassDef &Def = classDef(C);
  std::unordered_map<SelectorId, MethodId> Table;
  if (Def.Super != -1)
    Table = dispatchTable(Def.Super);
  for (MethodId M : Def.Methods) {
    const Method &Meth = method(M);
    if (Meth.IsStatic || Meth.IsAbstract)
      continue;
    Table[Meth.Selector] = M;
  }
  std::lock_guard<std::mutex> G(CacheMu);
  if (!cacheFilled(DispatchBuilt[size_t(C)])) {
    DispatchCache[size_t(C)] = std::move(Table);
    markCacheFilled(DispatchBuilt[size_t(C)]);
  }
  return DispatchCache[size_t(C)];
}

MethodId Program::resolveVirtual(ClassId Receiver, MethodId Declared) const {
  const Method &Decl = method(Declared);
  assert(!Decl.IsStatic && "virtual resolution of a static method");
  const auto &Table = dispatchTable(Receiver);
  auto It = Table.find(Decl.Selector);
  return It == Table.end() ? -1 : It->second;
}

std::vector<MethodId> Program::overridesOf(MethodId Declared) const {
  const Method &Decl = method(Declared);
  std::vector<MethodId> Result;
  for (const ClassDef &Def : Classes) {
    if (Def.IsAbstract || !isSubclassOf(Def.Id, Decl.Class))
      continue;
    MethodId Impl = resolveVirtual(Def.Id, Declared);
    if (Impl == -1)
      continue;
    bool Seen = false;
    for (MethodId M : Result)
      if (M == Impl)
        Seen = true;
    if (!Seen)
      Result.push_back(Impl);
  }
  return Result;
}

StrId Program::internString(std::string_view S) {
  auto It = StringPool.find(std::string(S));
  if (It != StringPool.end())
    return It->second;
  StrId Id = StrId(Strings.size());
  ++Version;
  Strings.emplace_back(S);
  StringPool.emplace(Strings.back(), Id);
  return Id;
}

std::string nimg::paramDescriptor(const Program &P,
                                  const std::vector<TypeId> &Params,
                                  bool SkipReceiver) {
  std::string Out = "(";
  size_t Start = SkipReceiver && !Params.empty() ? 1 : 0;
  for (size_t I = Start; I < Params.size(); ++I) {
    if (I != Start)
      Out += ",";
    Out += P.typeName(Params[I]);
  }
  Out += ")";
  return Out;
}
