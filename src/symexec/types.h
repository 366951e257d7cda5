// Data-type inference (paper §III-B "Data Type").
//
// DTaint infers primitive types two ways: (1) from standard library
// signatures (both strcpy arguments are char*; the signatures are part
// of src/symexec/libmodels.h), and (2) from machine instructions (a
// load/store base register holds a pointer; a CMP operand against an
// immediate is an integer). Types feed pointer-alias recognition (is
// `u` a pointer?) and the data-structure layout used for indirect-call
// matching.
#pragma once

#include <cstdint>
#include <map>

#include "src/symexec/symexpr.h"

namespace dtaint {

enum class ValueType : uint8_t {
  kUnknown = 0,
  kInt,
  kChar,
  kPtr,      // pointer to unknown
  kCharPtr,  // pointer to char buffer
};

/// Lattice join: Unknown is bottom; conflicting concrete types keep the
/// pointer interpretation (pointers are what the layout metric needs,
/// and load/store evidence is stronger than compare evidence).
ValueType JoinTypes(ValueType a, ValueType b);

/// True for kPtr / kCharPtr.
bool IsPointerType(ValueType type);

/// Per-function type environment keyed by symbolic-expression hash.
class TypeMap {
 public:
  /// Records evidence that `expr` has `type` (joined with existing).
  void Observe(SymRef expr, ValueType type);

  /// Current best type for `expr` (kUnknown if never observed).
  ValueType TypeOf(SymRef expr) const;

  size_t size() const { return types_.size(); }

  /// Merges all observations from `other` into this map.
  void MergeFrom(const TypeMap& other);

  /// Raw (expression-hash → type) entries, in sorted order. Exposed for
  /// the summary-cache codec, which must persist and restore the map
  /// byte-exactly.
  const std::map<uint64_t, ValueType>& entries() const { return types_; }

  /// Reinserts a raw entry (summary-cache codec decode path). Joined
  /// with any existing evidence, same as Observe.
  void Restore(uint64_t expr_hash, ValueType type) {
    ValueType& slot = types_[expr_hash];
    slot = JoinTypes(slot, type);
  }

 private:
  // Hash collisions are acceptable here: they merge type evidence of
  // two expressions, which only ever widens a type to pointer.
  std::map<uint64_t, ValueType> types_;
};

}  // namespace dtaint
