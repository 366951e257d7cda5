#include "src/symexec/types.h"

#include <unordered_map>

namespace dtaint {

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kUnknown: return "unknown";
    case ValueType::kInt: return "int";
    case ValueType::kChar: return "char";
    case ValueType::kPtr: return "ptr";
    case ValueType::kCharPtr: return "char*";
  }
  return "?";
}

ValueType JoinTypes(ValueType a, ValueType b) {
  if (a == b) return a;
  if (a == ValueType::kUnknown) return b;
  if (b == ValueType::kUnknown) return a;
  // char* is the most specific pointer; any pointer evidence wins over
  // scalar evidence.
  if (a == ValueType::kCharPtr || b == ValueType::kCharPtr) {
    return ValueType::kCharPtr;
  }
  if (IsPointerType(a) || IsPointerType(b)) return ValueType::kPtr;
  return ValueType::kInt;
}

bool IsPointerType(ValueType type) {
  return type == ValueType::kPtr || type == ValueType::kCharPtr;
}

void TypeMap::Observe(SymRef expr, ValueType type) {
  if (!expr || type == ValueType::kUnknown) return;
  ValueType& slot = types_[expr->hash()];
  slot = JoinTypes(slot, type);
}

ValueType TypeMap::TypeOf(SymRef expr) const {
  if (!expr) return ValueType::kUnknown;
  auto it = types_.find(expr->hash());
  return it == types_.end() ? ValueType::kUnknown : it->second;
}

void TypeMap::MergeFrom(const TypeMap& other) {
  for (const auto& [hash, type] : other.types_) {
    ValueType& slot = types_[hash];
    slot = JoinTypes(slot, type);
  }
}

const LibSignature* FindLibSignature(std::string_view name) {
  using VT = ValueType;
  static const std::vector<LibSignature> kSignatures = {
      // string / memory copies (sinks)
      {"strcpy", {VT::kCharPtr, VT::kCharPtr}, VT::kCharPtr},
      {"strncpy", {VT::kCharPtr, VT::kCharPtr, VT::kInt}, VT::kCharPtr},
      {"strcat", {VT::kCharPtr, VT::kCharPtr}, VT::kCharPtr},
      {"memcpy", {VT::kPtr, VT::kPtr, VT::kInt}, VT::kPtr},
      {"sprintf", {VT::kCharPtr, VT::kCharPtr, VT::kCharPtr}, VT::kInt},
      {"sscanf", {VT::kCharPtr, VT::kCharPtr, VT::kPtr}, VT::kInt},
      // command execution (sinks)
      {"system", {VT::kCharPtr}, VT::kInt},
      {"popen", {VT::kCharPtr, VT::kCharPtr}, VT::kPtr},
      // input (sources)
      {"read", {VT::kInt, VT::kPtr, VT::kInt}, VT::kInt},
      {"recv", {VT::kInt, VT::kPtr, VT::kInt, VT::kInt}, VT::kInt},
      {"recvfrom",
       {VT::kInt, VT::kPtr, VT::kInt, VT::kInt, VT::kPtr, VT::kPtr},
       VT::kInt},
      {"recvmsg", {VT::kInt, VT::kPtr, VT::kInt}, VT::kInt},
      {"getenv", {VT::kCharPtr}, VT::kCharPtr},
      {"fgets", {VT::kCharPtr, VT::kInt, VT::kPtr}, VT::kCharPtr},
      {"websGetVar", {VT::kPtr, VT::kCharPtr, VT::kCharPtr}, VT::kCharPtr},
      {"find_var", {VT::kPtr, VT::kCharPtr}, VT::kCharPtr},
      // misc
      {"malloc", {VT::kInt}, VT::kPtr},
      {"free", {VT::kPtr}, VT::kInt},
      {"strlen", {VT::kCharPtr}, VT::kInt},
      {"strcmp", {VT::kCharPtr, VT::kCharPtr}, VT::kInt},
      {"strchr", {VT::kCharPtr, VT::kInt}, VT::kCharPtr},
      {"strstr", {VT::kCharPtr, VT::kCharPtr}, VT::kCharPtr},
      {"atoi", {VT::kCharPtr}, VT::kInt},
      {"snprintf",
       {VT::kCharPtr, VT::kInt, VT::kCharPtr, VT::kCharPtr},
       VT::kInt},
      {"socket", {VT::kInt, VT::kInt, VT::kInt}, VT::kInt},
      {"close", {VT::kInt}, VT::kInt},
      {"printf", {VT::kCharPtr}, VT::kInt},
      {"fprintf", {VT::kPtr, VT::kCharPtr}, VT::kInt},
      {"exit", {VT::kInt}, VT::kInt},
  };
  static const std::unordered_map<std::string_view, const LibSignature*>
      kByName = [] {
        std::unordered_map<std::string_view, const LibSignature*> by_name;
        for (const LibSignature& sig : kSignatures) {
          by_name.emplace(sig.name, &sig);
        }
        return by_name;
      }();
  auto it = kByName.find(name);
  return it == kByName.end() ? nullptr : it->second;
}

}  // namespace dtaint
