#include "src/ir/printer.h"

#include "src/isa/decode.h"
#include "src/util/strings.h"

namespace dtaint {

std::string PrintBlockWithDisasm(const Binary& binary,
                                 const IRBlock& block) {
  std::string out;
  auto stmt = block.stmts.begin();
  for (uint32_t pc = block.addr; pc < block.EndAddr(); pc += kInsnSize) {
    auto word = binary.ReadWordAt(pc);
    out += HexStr(pc) + ": ";
    if (word.ok()) {
      auto insn = Decode(*word);
      out += insn.ok() ? insn->ToString(binary.arch) : "<bad insn>";
    } else {
      out += "<unmapped>";
    }
    out += "\n";
    for (; stmt != block.stmts.end() && stmt->addr == pc; ++stmt) {
      out += "    " + stmt->ToString() + "\n";
    }
  }
  out += "    NEXT(" + std::string(JumpKindName(block.jumpkind)) + "): ";
  out += block.next ? block.next->ToString() : std::string("<none>");
  out += "\n";
  return out;
}

}  // namespace dtaint
