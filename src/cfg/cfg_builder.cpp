#include "src/cfg/cfg_builder.h"

#include <algorithm>
#include <vector>

#include "src/isa/decode.h"
#include "src/obs/metrics.h"

namespace dtaint {

size_t Program::CallEdgeCount() const {
  size_t total = 0;
  for (const auto& [_, fn] : functions) {
    for (const CallSite& cs : fn.callsites) {
      if (cs.is_indirect) {
        total += cs.resolved_targets.size();
      } else {
        total += 1;
      }
    }
  }
  return total;
}

Result<Function> CfgBuilder::BuildFunction(const Symbol& symbol) const {
  static obs::Counter& words_decoded =
      obs::MetricsRegistry::Global().counter("lift.words_decoded");
  Function fn;
  fn.name = symbol.name;
  fn.addr = symbol.addr;
  fn.size = symbol.size;
  const uint32_t end = symbol.addr + symbol.size;
  auto inside = [&](uint32_t addr) {
    return addr >= symbol.addr && addr < end;
  };

  // Pass 1: one linear sweep reads and decodes every word once,
  // fingerprinting the code and collecting block leaders: branch
  // targets, and the instruction after every control transfer. The
  // range is 64-bit, so a symbol ending at 4 GiB cannot wrap.
  Fingerprint128 code;
  std::vector<Insn> insns;
  insns.reserve(symbol.size / kInsnSize + 1);
  std::vector<uint32_t> leaders{symbol.addr};
  WordReader words(binary_);
  Status swept;
  const uint64_t stop = uint64_t{symbol.addr} + symbol.size;
  for (uint64_t at = symbol.addr; at < stop && swept.ok(); at += kInsnSize) {
    const auto pc = static_cast<uint32_t>(at);
    uint32_t word = 0;
    if (at != pc || !words.Read(pc, word)) {
      swept = CorruptData("function runs off section: " + fn.name);
      break;
    }
    auto insn = Decode(word);
    if (!insn.ok()) {
      swept = CorruptData("undecodable instruction in " + fn.name + " at " +
                          std::to_string(pc));
      break;
    }
    code.Mix(word);
    insns.push_back(*insn);
    const uint32_t next_pc = pc + kInsnSize;
    switch (insn->op) {
      case Op::kB:
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBle:
      case Op::kBgt: {
        uint32_t target = next_pc + static_cast<uint32_t>(insn->imm * 4);
        if (!inside(target)) {
          swept = CorruptData("branch escapes function " + fn.name);
          break;
        }
        leaders.push_back(target);
        [[fallthrough]];
      }
      case Op::kBl:
      case Op::kBlr:
      case Op::kRet:
        if (next_pc < end) leaders.push_back(next_pc);
        break;
      default:
        break;
    }
  }
  words_decoded.Add(insns.size());
  if (!swept.ok()) return swept;
  if (symbol.addr % kInsnSize != 0) {
    return InvalidArgument("unaligned block address");
  }
  if (insns.empty()) return CorruptData("empty function " + fn.name);
  fn.code_digest = code.Digest();

  // Pass 2: every control transfer starts a leader, so each block runs
  // from its leader to the next one (or to the function's last word)
  // and ends the way its last instruction does. Wire its edges and
  // record its callsite.
  std::sort(leaders.begin(), leaders.end());
  leaders.erase(std::unique(leaders.begin(), leaders.end()), leaders.end());
  auto add_edge = [&fn](uint32_t from, uint32_t to) {
    fn.succs[from].push_back(to);
    fn.preds[to].push_back(from);
  };
  for (size_t i = 0; i < leaders.size(); ++i) {
    const uint32_t start = leaders[i];
    const size_t last = i + 1 < leaders.size()
                            ? (leaders[i + 1] - symbol.addr) / kInsnSize - 1
                            : insns.size() - 1;
    const Insn& insn = insns[last];
    const uint32_t next_pc =
        symbol.addr + static_cast<uint32_t>(last + 1) * kInsnSize;
    const uint32_t target = next_pc + static_cast<uint32_t>(insn.imm * 4);
    BlockInfo& block =
        fn.blocks.emplace_hint(fn.blocks.end(), start, BlockInfo{})->second;
    block.addr = start;
    block.size = next_pc - start;
    switch (insn.op) {
      case Op::kB:
        block.next = target;
        add_edge(start, target);
        break;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBle:
      case Op::kBgt:
        block.taken = target;
        block.next = next_pc;
        add_edge(start, target);
        if (inside(next_pc)) add_edge(start, next_pc);
        break;
      case Op::kBl:
      case Op::kBlr: {
        CallSite cs;
        cs.block_addr = start;
        cs.call_addr = next_pc - kInsnSize;
        cs.return_addr = block.return_addr = next_pc;
        if (insn.op == Op::kBl) {
          block.jumpkind = JumpKind::kCall;
          block.next = cs.target_addr = target;
          if (const Import* imp = binary_.ImportAt(target)) {
            cs.target_name = imp->name;
            cs.target_is_import = true;
          } else if (const Symbol* callee = binary_.SymbolAt(target)) {
            cs.target_name = callee->name;
          }
        } else {
          block.jumpkind = JumpKind::kIndirectCall;
          cs.is_indirect = true;
        }
        fn.callsites.push_back(std::move(cs));
        if (inside(next_pc)) add_edge(start, next_pc);
        break;
      }
      case Op::kRet:
        block.jumpkind = JumpKind::kRet;
        break;
      default:
        block.next = next_pc;
        if (inside(next_pc)) add_edge(start, next_pc);
        break;
    }
  }

  // Deduplicate edges (a conditional branch to the fallthrough would
  // otherwise double-count).
  for (auto* edges : {&fn.succs, &fn.preds}) {
    for (auto& [_, v] : *edges) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
  }
  return fn;
}

Result<Program> CfgBuilder::BuildProgram() const {
  Program prog;
  prog.binary = &binary_;
  for (const Symbol& sym : binary_.symbols) {
    if (!sym.is_function || sym.size == 0) continue;
    if (FaultPlan::Global().ShouldFail(FaultSite::kLift, sym.name)) {
      prog.lift_failures.emplace_back(
          sym.name, Internal("injected lift fault: " + sym.name));
      continue;
    }
    auto fn = BuildFunction(sym);
    if (!fn.ok()) {
      prog.lift_failures.emplace_back(sym.name, fn.status());
      continue;
    }
    prog.fn_by_addr[sym.addr] = sym.name;
    prog.functions.emplace(sym.name, std::move(*fn));
  }
  return prog;
}

}  // namespace dtaint
