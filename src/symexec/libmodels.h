// Library function models (paper §III-B "Data Type", §IV, Table I).
//
// One row per modelled library function. A row carries everything the
// analysis knows about the function:
//  * its parameter and return types, which seed type inference ("both
//    strcpy arguments are char*") and fix how many arguments the engine
//    collects at a call;
//  * its data-flow effect, applied by the engine at import calls
//    (taint injection, buffer copies, heap identity, ...);
//  * its sink role: the parameter whose taint is dangerous and the
//    vulnerability class an unsanitized path implies.
//
// A source is a row whose effect introduces taint; there is no separate
// source list. The "loop copy" sink of Table I is a code pattern, not a
// library function: the path finder seeds it directly from stores in
// natural loops, so it has no row here.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/symexec/types.h"

namespace dtaint {

enum class VulnClass : uint8_t {
  kBufferOverflow,
  kCommandInjection,
};

std::string_view VulnClassName(VulnClass cls);

struct LibFunction {
  std::string_view name;

  // Types. `params.size()` is also the number of arguments the engine
  // collects at a call.
  std::vector<ValueType> params;
  ValueType ret = ValueType::kUnknown;

  // Data-flow effect.
  int taints_pointee_of_arg = -1;  // recv/read: arg index whose buffer
                                   // is overwritten with attacker data
  bool returns_tainted_buffer = false;  // getenv-style: *ret is tainted
  int copy_dst_arg = -1;           // strcpy-style copies
  int copy_src_arg = -1;
  std::vector<int> extra_dst_args = {};  // sscanf: out-pointers
  bool allocates = false;          // malloc-style: returns heap pointer
  int returns_arg = -1;            // strcpy returns dst
  int returns_deref_of_arg = -1;   // strlen-style: the return value is
                                   // a function of the buffer contents,
                                   // modeled as deref(arg) so length
                                   // checks tie back to the region

  // Sink role: the parameter whose taint is dangerous, or -1.
  int sink_param = -1;
  VulnClass vuln_class = VulnClass::kBufferOverflow;

  bool IsSource() const {
    return taints_pointee_of_arg >= 0 || returns_tainted_buffer;
  }
  bool IsSink() const { return sink_param >= 0; }
};

/// Every modelled function. Sources come first, then sinks, each in
/// Table I order, then the rest.
std::span<const LibFunction> AllLibFunctions();

/// The row for a library function, or nullptr if unmodelled.
const LibFunction* FindLibFunction(std::string_view name);

/// Digest of every row's names and numbers (never pointers): part of
/// the summary-cache key, so editing a model invalidates old entries.
uint64_t LibFunctionsDigest();

}  // namespace dtaint
