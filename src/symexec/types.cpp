#include "src/symexec/types.h"

namespace dtaint {

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

}  // namespace dtaint
