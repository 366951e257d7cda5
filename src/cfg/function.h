// Function model: the CFG skeleton of one function — block bounds, CFG
// edges, callsites and a digest of its code. Statements are not part of
// it: the lifter produces a function's IR on demand (Lifter::
// LiftFunction), only when the symbolic engine executes the function.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/stmt.h"
#include "src/util/hash.h"

namespace dtaint {

/// A call instruction inside a function.
struct CallSite {
  uint32_t block_addr = 0;   // block that ends with the call
  uint32_t call_addr = 0;    // address of the BL/BLR instruction
  uint32_t return_addr = 0;  // fallthrough address
  bool is_indirect = false;
  // Direct calls: resolved target.
  uint32_t target_addr = 0;        // 0 for indirect
  std::string target_name;         // function or import name; "" if unknown
  bool target_is_import = false;
  // Indirect calls: targets resolved later by structure similarity.
  std::vector<std::string> resolved_targets;
};

/// Skeleton of one basic block: its bounds and how it ends, as the
/// decode sweep finds them (identical to the lifted IRBlock's).
struct BlockInfo {
  uint32_t addr = 0;             // guest address of the first insn
  uint32_t size = 0;             // bytes of guest code covered
  JumpKind jumpkind = JumpKind::kBoring;
  uint32_t return_addr = 0;      // for calls: the fallthrough address
  /// Constant successor: the direct branch or call target, or the
  /// fallthrough. Unset for returns and indirect calls.
  std::optional<uint32_t> next;
  /// Conditional branches: the taken target (`next` is the fallthrough).
  std::optional<uint32_t> taken;

  /// Address one past the last guest instruction.
  uint32_t EndAddr() const { return addr + size; }
};

/// One CFG-structured function.
struct Function {
  std::string name;
  uint32_t addr = 0;
  uint32_t size = 0;

  /// Basic blocks keyed by start address.
  std::map<uint32_t, BlockInfo> blocks;
  /// CFG edges: block start -> successor block starts.
  std::map<uint32_t, std::vector<uint32_t>> succs;
  std::map<uint32_t, std::vector<uint32_t>> preds;
  /// Call sites in address order.
  std::vector<CallSite> callsites;
  /// Fingerprint of the instruction words the sweep decoded: together
  /// with the block bounds it determines the lifted IR, so it stands in
  /// for the IR wherever content identity is needed (the summary cache
  /// key).
  Hash128 code_digest;

  const BlockInfo* BlockAt(uint32_t addr) const {
    auto it = blocks.find(addr);
    return it == blocks.end() ? nullptr : &it->second;
  }
  const CallSite* CallSiteAt(uint32_t call_addr) const {
    for (const CallSite& cs : callsites) {
      if (cs.call_addr == call_addr) return &cs;
    }
    return nullptr;
  }
};

}  // namespace dtaint
