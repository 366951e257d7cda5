#include "src/symexec/libmodels.h"

#include <unordered_map>

#include "src/util/hash.h"

namespace dtaint {

std::string_view VulnClassName(VulnClass cls) {
  switch (cls) {
    case VulnClass::kBufferOverflow:
      return "Buffer Overflow";
    case VulnClass::kCommandInjection:
      return "Command Injection";
  }
  return "?";
}

std::span<const LibFunction> AllLibFunctions() {
  using VT = ValueType;
  constexpr VulnClass kOverflow = VulnClass::kBufferOverflow;
  constexpr VulnClass kInjection = VulnClass::kCommandInjection;
  static const std::vector<LibFunction> kRows = {
      // Sources: network/file reads write attacker bytes into a buffer
      // argument; getenv-style lookups return a pointer to them.
      {.name = "read",
       .params = {VT::kInt, VT::kPtr, VT::kInt},
       .ret = VT::kInt,
       .taints_pointee_of_arg = 1},
      {.name = "recv",
       .params = {VT::kInt, VT::kPtr, VT::kInt, VT::kInt},
       .ret = VT::kInt,
       .taints_pointee_of_arg = 1},
      {.name = "recvfrom",
       .params = {VT::kInt, VT::kPtr, VT::kInt, VT::kInt, VT::kPtr,
                  VT::kPtr},
       .ret = VT::kInt,
       .taints_pointee_of_arg = 1},
      {.name = "recvmsg",
       .params = {VT::kInt, VT::kPtr, VT::kInt},
       .ret = VT::kInt,
       .taints_pointee_of_arg = 1},
      {.name = "getenv",
       .params = {VT::kCharPtr},
       .ret = VT::kCharPtr,
       .returns_tainted_buffer = true},
      {.name = "fgets",
       .params = {VT::kCharPtr, VT::kInt, VT::kPtr},
       .ret = VT::kCharPtr,
       .taints_pointee_of_arg = 0,
       .returns_arg = 0},
      {.name = "websGetVar",
       .params = {VT::kPtr, VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kCharPtr,
       .returns_tainted_buffer = true},
      {.name = "find_var",
       .params = {VT::kPtr, VT::kCharPtr},
       .ret = VT::kCharPtr,
       .returns_tainted_buffer = true},

      // Sinks. Unbounded string copies are dangerous when the *source
      // string* is attacker-controlled (param 1 for str*, param 2 for
      // sprintf's first vararg).
      {.name = "strcpy",
       .params = {VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kCharPtr,
       .copy_dst_arg = 0,
       .copy_src_arg = 1,
       .returns_arg = 0,
       .sink_param = 1,
       .vuln_class = kOverflow},
      {.name = "strcat",
       .params = {VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kCharPtr,
       .copy_dst_arg = 0,
       .copy_src_arg = 1,
       .returns_arg = 0,
       .sink_param = 1,
       .vuln_class = kOverflow},
      {.name = "sprintf",
       .params = {VT::kCharPtr, VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kInt,
       .copy_dst_arg = 0,
       .copy_src_arg = 2,
       .sink_param = 2,
       .vuln_class = kOverflow},
      {.name = "sscanf",
       .params = {VT::kCharPtr, VT::kCharPtr, VT::kPtr},
       .ret = VT::kInt,
       .copy_src_arg = 0,
       .extra_dst_args = {2, 3, 4},
       .sink_param = 0,
       .vuln_class = kOverflow},
      // Length-parameterized copies: dangerous when the *length* is
      // attacker-controlled (Heartbleed shape).
      {.name = "memcpy",
       .params = {VT::kPtr, VT::kPtr, VT::kInt},
       .ret = VT::kPtr,
       .copy_dst_arg = 0,
       .copy_src_arg = 1,
       .returns_arg = 0,
       .sink_param = 2,
       .vuln_class = kOverflow},
      {.name = "strncpy",
       .params = {VT::kCharPtr, VT::kCharPtr, VT::kInt},
       .ret = VT::kCharPtr,
       .copy_dst_arg = 0,
       .copy_src_arg = 1,
       .returns_arg = 0,
       .sink_param = 2,
       .vuln_class = kOverflow},
      // Command execution: dangerous when the command string is
      // attacker-controlled and unfiltered.
      {.name = "system",
       .params = {VT::kCharPtr},
       .ret = VT::kInt,
       .sink_param = 0,
       .vuln_class = kInjection},
      {.name = "popen",
       .params = {VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kPtr,
       .sink_param = 0,
       .vuln_class = kInjection},

      // Neither source nor sink.
      {.name = "snprintf",
       .params = {VT::kCharPtr, VT::kInt, VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kInt,
       .copy_dst_arg = 0,
       .copy_src_arg = 3},
      {.name = "malloc",
       .params = {VT::kInt},
       .ret = VT::kPtr,
       .allocates = true},
      {.name = "free", .params = {VT::kPtr}, .ret = VT::kInt},
      // String interrogation: the result is a pure function of the
      // buffer contents, modeled as deref(arg) so `strlen(s) < 64`
      // constrains the same region the taint lives in.
      {.name = "strlen",
       .params = {VT::kCharPtr},
       .ret = VT::kInt,
       .returns_deref_of_arg = 0},
      {.name = "atoi",
       .params = {VT::kCharPtr},
       .ret = VT::kInt,
       .returns_deref_of_arg = 0},
      {.name = "strcmp",
       .params = {VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kInt},
      {.name = "strchr",
       .params = {VT::kCharPtr, VT::kInt},
       .ret = VT::kCharPtr},
      {.name = "strstr",
       .params = {VT::kCharPtr, VT::kCharPtr},
       .ret = VT::kCharPtr},
      {.name = "socket",
       .params = {VT::kInt, VT::kInt, VT::kInt},
       .ret = VT::kInt},
      {.name = "close", .params = {VT::kInt}, .ret = VT::kInt},
      {.name = "printf", .params = {VT::kCharPtr}, .ret = VT::kInt},
      {.name = "fprintf",
       .params = {VT::kPtr, VT::kCharPtr},
       .ret = VT::kInt},
      {.name = "exit", .params = {VT::kInt}, .ret = VT::kInt},
  };
  return kRows;
}

const LibFunction* FindLibFunction(std::string_view name) {
  static const std::unordered_map<std::string_view, const LibFunction*>
      kByName = [] {
        std::unordered_map<std::string_view, const LibFunction*> by_name;
        for (const LibFunction& row : AllLibFunctions()) {
          by_name.emplace(row.name, &row);
        }
        return by_name;
      }();
  auto it = kByName.find(name);
  return it == kByName.end() ? nullptr : it->second;
}

uint64_t LibFunctionsDigest() {
  static const uint64_t kDigest = [] {
    uint64_t h = kFnvOffset;
    for (const LibFunction& row : AllLibFunctions()) {
      h = HashCombine(h, Fnv1a(row.name));
      h = HashCombine(h, row.params.size());
      for (ValueType type : row.params) {
        h = HashCombine(h, static_cast<uint64_t>(type));
      }
      h = HashCombine(h, static_cast<uint64_t>(row.ret));
      for (int field :
           {row.taints_pointee_of_arg, int{row.returns_tainted_buffer},
            row.copy_dst_arg, row.copy_src_arg, int{row.allocates},
            row.returns_arg, row.returns_deref_of_arg, row.sink_param,
            static_cast<int>(row.vuln_class)}) {
        h = HashCombine(h, static_cast<uint64_t>(field));
      }
      h = HashCombine(h, row.extra_dst_args.size());
      for (int arg : row.extra_dst_args) {
        h = HashCombine(h, static_cast<uint64_t>(arg));
      }
    }
    return h;
  }();
  return kDigest;
}

}  // namespace dtaint
