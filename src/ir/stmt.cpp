#include "src/ir/stmt.h"

#include "src/util/strings.h"

namespace dtaint {

Stmt Stmt::IMark(uint32_t addr) {
  Stmt s;
  s.kind = StmtKind::kIMark;
  s.addr = addr;
  return s;
}
Stmt Stmt::WrTmp(int tmp, ExprRef expr) {
  Stmt s;
  s.kind = StmtKind::kWrTmp;
  s.tmp = tmp;
  s.expr = expr;
  return s;
}
Stmt Stmt::Put(int reg, ExprRef expr) {
  Stmt s;
  s.kind = StmtKind::kPut;
  s.reg = reg;
  s.expr = expr;
  return s;
}
Stmt Stmt::Store(ExprRef addr, ExprRef data, uint8_t size) {
  Stmt s;
  s.kind = StmtKind::kStore;
  s.addr_expr = addr;
  s.data_expr = data;
  s.size = size;
  return s;
}
Stmt Stmt::Exit(ExprRef guard, uint32_t target) {
  Stmt s;
  s.kind = StmtKind::kExit;
  s.expr = guard;
  s.target = target;
  return s;
}

std::string Stmt::ToString() const {
  switch (kind) {
    case StmtKind::kIMark:
      return "------ IMark(" + HexStr(addr) + ") ------";
    case StmtKind::kWrTmp:
      return "t" + std::to_string(tmp) + " = " + expr->ToString();
    case StmtKind::kPut:
      return "PUT(" + std::to_string(reg) + ") = " + expr->ToString();
    case StmtKind::kStore:
      return "STORE" + std::to_string(int{size}) + "(" +
             addr_expr->ToString() + ") = " + data_expr->ToString();
    case StmtKind::kExit:
      return "if (" + expr->ToString() + ") goto " + HexStr(target);
  }
  return "?";
}

std::string_view JumpKindName(JumpKind kind) {
  switch (kind) {
    case JumpKind::kBoring:
      return "Ijk_Boring";
    case JumpKind::kCall:
      return "Ijk_Call";
    case JumpKind::kIndirectCall:
      return "Ijk_IndirectCall";
    case JumpKind::kRet:
      return "Ijk_Ret";
  }
  return "?";
}

}  // namespace dtaint
