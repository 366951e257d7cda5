#include "src/symexec/defpairs.h"

#include "src/util/strings.h"

namespace dtaint {

std::string DefPair::ToString() const {
  return (d ? d->ToString() : std::string("<none>")) + " = " +
         (u ? u->ToString() : std::string("<none>")) + "  @" + HexStr(site);
}

SymRef RootPointerOf(SymRef expr) {
  if (!expr) return nullptr;
  SymRef cur = expr;
  for (;;) {
    switch (cur->kind()) {
      case SymKind::kDeref:
        cur = cur->lhs();
        break;
      case SymKind::kBin: {
        auto split = SymExpr::SplitBaseOffset(cur);
        if (split.base && split.base != cur) {
          cur = split.base;
          break;
        }
        // Residual Add with a symbolic right side is an array walk
        // (buf + i); the root lives down the left spine.
        if (cur->binop() == BinOp::kAdd) {
          cur = cur->lhs();
          break;
        }
        return cur;
      }
      default:
        return cur;
    }
  }
}

std::string SummaryToString(const FunctionSummary& summary,
                            size_t max_items) {
  std::string out = "summary of " + summary.name + " @" +
                    HexStr(summary.addr) + " (" +
                    std::to_string(summary.paths_explored) + " paths, " +
                    std::to_string(summary.blocks_visited) + " blocks" +
                    (summary.truncated ? ", TRUNCATED" : "") + ")\n";
  out += "  definition pairs (" +
         std::to_string(summary.def_pairs.size()) + "):\n";
  size_t shown = 0;
  for (const DefPair& dp : summary.def_pairs) {
    if (shown++ >= max_items) {
      out += "    ...\n";
      break;
    }
    out += "    " + dp.ToString() + "\n";
  }
  out += "  undefined uses (" +
         std::to_string(summary.undefined_uses.size()) + "):\n";
  shown = 0;
  for (const UseRecord& use : summary.undefined_uses) {
    if (shown++ >= max_items) {
      out += "    ...\n";
      break;
    }
    out += "    " + use.u->ToString() + "  @" + HexStr(use.site) + "\n";
  }
  out += "  calls (" + std::to_string(summary.calls.size()) + "):\n";
  shown = 0;
  for (const CallEvent& call : summary.calls) {
    if (shown++ >= max_items) {
      out += "    ...\n";
      break;
    }
    out += "    " +
           (call.is_indirect
                ? "[indirect " + (call.indirect_target
                                      ? call.indirect_target->ToString()
                                      : std::string("?")) + "]"
                : call.callee) +
           "(";
    for (size_t i = 0; i < call.args.size(); ++i) {
      if (i) out += ", ";
      out += call.args[i] ? call.args[i]->ToString() : "?";
    }
    out += ")  @" + HexStr(call.callsite) + "\n";
  }
  out += "  returns:";
  for (SymRef ret : summary.return_values) {
    out += " " + (ret ? ret->ToString() : std::string("?"));
  }
  out += "\n";
  return out;
}

std::vector<const DefPair*> FunctionSummary::EscapingDefs() const {
  std::vector<const DefPair*> out;
  for (const DefPair& dp : def_pairs) {
    if (!dp.d || dp.d->kind() != SymKind::kDeref) continue;
    SymRef root = RootPointerOf(dp.d);
    if (!root) continue;
    switch (root->kind()) {
      case SymKind::kArg:
      case SymKind::kHeap:
      case SymKind::kRet:
        out.push_back(&dp);
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace dtaint
