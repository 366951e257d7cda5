// A small assembler used by the firmware synthesizer and by tests to
// author DT-RISC functions symbolically: labels for local branches and
// named symbols for calls, resolved at binary link time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/isa/encode.h"
#include "src/isa/insn.h"
#include "src/util/status.h"

namespace dtaint {

/// A pending reference from an instruction to a target that is resolved
/// later (a local label, or an external function by name).
struct Fixup {
  size_t insn_index;   // which instruction's imm field to patch
  std::string target;  // label or symbol name
  bool is_call;        // kBl (call) vs branch
};

/// One assembled function: instructions plus unresolved call fixups.
/// Local label branches are resolved by Finish(); calls to other
/// functions stay symbolic until BinaryWriter lays out the image.
struct AsmFunction {
  std::string name;
  std::vector<Insn> insns;
  std::vector<Fixup> call_fixups;  // still-symbolic kBl targets
};

/// Builder for a single function. Typical use:
///
///   FnBuilder b("parse_header");
///   b.MovI(0, 0);
///   b.Label("loop");
///   ...
///   b.Bne("loop");
///   b.Call("memcpy");
///   b.Ret();
///   AsmFunction fn = std::move(b).Finish().value();
class FnBuilder {
 public:
  explicit FnBuilder(std::string name);

  // -- data movement / ALU ------------------------------------------------
  FnBuilder& MovR(int rd, int rm);
  FnBuilder& MovI(int rd, int32_t imm);
  /// Loads an arbitrary 32-bit constant (MovI + MovHi when needed).
  FnBuilder& MovConst(int rd, uint32_t value);
  FnBuilder& AddR(int rd, int rn, int rm);
  FnBuilder& AddI(int rd, int rn, int32_t imm);
  FnBuilder& SubI(int rd, int rn, int32_t imm);
  FnBuilder& MulR(int rd, int rn, int rm);
  FnBuilder& OrrR(int rd, int rn, int rm);
  FnBuilder& LslI(int rd, int rn, int32_t imm);

  // -- memory ---------------------------------------------------------------
  FnBuilder& LdrW(int rt, int base, int32_t off);
  FnBuilder& StrW(int rt, int base, int32_t off);
  FnBuilder& LdrB(int rt, int base, int32_t off);
  FnBuilder& StrB(int rt, int base, int32_t off);
  FnBuilder& LdrWR(int rt, int base, int idx);
  FnBuilder& LdrBR(int rt, int base, int idx);
  FnBuilder& StrBR(int rt, int base, int idx);

  // -- compare / control flow -----------------------------------------------
  FnBuilder& CmpR(int rn, int rm);
  FnBuilder& CmpI(int rn, int32_t imm);
  FnBuilder& Label(const std::string& name);
  FnBuilder& B(const std::string& label);
  FnBuilder& Beq(const std::string& label);
  FnBuilder& Bne(const std::string& label);
  FnBuilder& Blt(const std::string& label);
  FnBuilder& Bge(const std::string& label);
  /// Call a function by name (resolved by the binary writer).
  FnBuilder& Call(const std::string& symbol);
  /// Indirect call through a register.
  FnBuilder& CallReg(int rm);
  FnBuilder& Ret();
  FnBuilder& Nop();

  /// Raw instruction append (tests).
  FnBuilder& Emit(const Insn& insn);

  size_t size() const { return insns_.size(); }
  const std::string& name() const { return name_; }

  /// Resolves local label branches; returns the function or an error
  /// (undefined label, branch out of range).
  Result<AsmFunction> Finish() &&;

 private:
  FnBuilder& Branch(Op op, const std::string& label);

  std::string name_;
  std::vector<Insn> insns_;
  std::map<std::string, size_t> labels_;  // label -> insn index
  std::vector<Fixup> branch_fixups_;      // local label refs
  std::vector<Fixup> call_fixups_;        // symbolic call refs
};

}  // namespace dtaint
