#include "src/ir/stmt.h"

#include "src/util/strings.h"

namespace dtaint {

Stmt Stmt::Put(uint32_t addr, int reg, ExprRef expr) {
  Stmt s;
  s.kind = StmtKind::kPut;
  s.addr = addr;
  s.reg = reg;
  s.expr = expr;
  return s;
}
Stmt Stmt::Store(uint32_t addr, ExprRef addr_expr, ExprRef data,
                 uint8_t size) {
  Stmt s;
  s.kind = StmtKind::kStore;
  s.addr = addr;
  s.addr_expr = addr_expr;
  s.data_expr = data;
  s.size = size;
  return s;
}
Stmt Stmt::Exit(uint32_t addr, ExprRef guard, uint32_t target) {
  Stmt s;
  s.kind = StmtKind::kExit;
  s.addr = addr;
  s.expr = guard;
  s.target = target;
  return s;
}

std::string Stmt::ToString() const {
  switch (kind) {
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
