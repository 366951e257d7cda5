#include "src/cfg/cfg_builder.h"

#include <algorithm>
#include <set>

#include "src/isa/decode.h"
#include "src/lifter/lifter.h"

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
  Function fn;
  fn.name = symbol.name;
  fn.addr = symbol.addr;
  fn.size = symbol.size;
  const uint32_t end = symbol.addr + symbol.size;

  // Pass 1: linear sweep for block leaders, fingerprinting the code.
  Fingerprint128 code;
  std::set<uint32_t> leaders{symbol.addr};
  for (uint32_t pc = symbol.addr; pc < end; pc += kInsnSize) {
    auto word = binary_.ReadWordAt(pc);
    if (!word.ok()) return CorruptData("function runs off section: " + fn.name);
    auto insn = Decode(*word);
    if (!insn.ok()) {
      return CorruptData("undecodable instruction in " + fn.name + " at " +
                         std::to_string(pc));
    }
    code.Mix(*word);
    uint32_t next_pc = pc + kInsnSize;
    switch (insn->op) {
      case Op::kB:
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBle:
      case Op::kBgt: {
        uint32_t target = next_pc + static_cast<uint32_t>(insn->imm * 4);
        if (target < symbol.addr || target >= end) {
          return CorruptData("branch escapes function " + fn.name);
        }
        leaders.insert(target);
        if (next_pc < end) leaders.insert(next_pc);
        break;
      }
      case Op::kBl:
      case Op::kBlr:
        if (next_pc < end) leaders.insert(next_pc);
        break;
      case Op::kRet:
        if (next_pc < end) leaders.insert(next_pc);
        break;
      default:
        break;
    }
  }
  fn.code_digest = code.Digest();

  // Pass 2: bound each leader-to-leader run exactly as lifting it would.
  Lifter lifter(binary_);
  std::vector<uint32_t> ordered(leaders.begin(), leaders.end());
  for (size_t i = 0; i < ordered.size(); ++i) {
    uint32_t start = ordered[i];
    uint32_t stop = (i + 1 < ordered.size()) ? ordered[i + 1] : end;
    auto block = lifter.ScanBlock(start, stop);
    if (!block.ok()) return block.status();
    fn.blocks.emplace_hint(fn.blocks.end(), start, *block);
  }

  // Pass 3: wire edges and record callsites.
  auto add_edge = [&fn](uint32_t from, uint32_t to) {
    fn.succs[from].push_back(to);
    fn.preds[to].push_back(from);
  };
  for (const auto& [start, block] : fn.blocks) {
    uint32_t call_addr = block.EndAddr() - kInsnSize;
    if (block.taken) add_edge(start, *block.taken);
    switch (block.jumpkind) {
      case JumpKind::kBoring:
        if (block.next && *block.next >= symbol.addr && *block.next < end) {
          add_edge(start, *block.next);
        }
        break;
      case JumpKind::kCall: {
        CallSite cs;
        cs.block_addr = start;
        cs.call_addr = call_addr;
        cs.return_addr = block.return_addr;
        cs.target_addr = *block.next;
        if (const Import* imp = binary_.ImportAt(cs.target_addr)) {
          cs.target_name = imp->name;
          cs.target_is_import = true;
        } else if (const Symbol* callee = binary_.SymbolAt(cs.target_addr)) {
          cs.target_name = callee->name;
        }
        fn.callsites.push_back(std::move(cs));
        if (block.return_addr >= symbol.addr && block.return_addr < end) {
          add_edge(start, block.return_addr);
        }
        break;
      }
      case JumpKind::kIndirectCall: {
        CallSite cs;
        cs.block_addr = start;
        cs.call_addr = call_addr;
        cs.return_addr = block.return_addr;
        cs.is_indirect = true;
        fn.callsites.push_back(std::move(cs));
        if (block.return_addr >= symbol.addr && block.return_addr < end) {
          add_edge(start, block.return_addr);
        }
        break;
      }
      case JumpKind::kRet:
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
