#include "src/ir/block.h"

#include "src/util/strings.h"

namespace dtaint {

std::string IRBlock::ToString() const {
  std::string out = "IRBlock @ " + HexStr(addr) + " (" +
                    std::to_string(size) + " bytes)\n";
  for (const Stmt& s : stmts) {
    out += "  " + HexStr(s.addr) + ": " + s.ToString() + "\n";
  }
  out += "  NEXT: ";
  out += next ? next->ToString() : std::string("<none>");
  out += "; ";
  out += JumpKindName(jumpkind);
  out += "\n";
  return out;
}

}  // namespace dtaint
