#include "src/isa/asm_builder.h"

namespace dtaint {

FnBuilder::FnBuilder(std::string name) : name_(std::move(name)) {}

FnBuilder& FnBuilder::Emit(const Insn& insn) {
  insns_.push_back(insn);
  return *this;
}

FnBuilder& FnBuilder::MovR(int rd, int rm) {
  return Emit({Op::kMovR, uint8_t(rd), 0, uint8_t(rm), 0});
}
FnBuilder& FnBuilder::MovI(int rd, int32_t imm) {
  return Emit({Op::kMovI, uint8_t(rd), 0, 0, imm});
}
FnBuilder& FnBuilder::MovConst(int rd, uint32_t value) {
  int32_t lo = static_cast<int32_t>(static_cast<int16_t>(value & 0xFFFF));
  MovI(rd, lo);
  // MovI sign-extends the low half; MovHi then overwrites bits 31..16
  // while preserving bits 15..0, so two instructions cover any value.
  if (static_cast<uint32_t>(lo) != value) {
    Emit({Op::kMovHi, uint8_t(rd), 0, 0,
          static_cast<int32_t>((value >> 16) & 0xFFFF)});
  }
  return *this;
}
FnBuilder& FnBuilder::AddR(int rd, int rn, int rm) {
  return Emit({Op::kAddR, uint8_t(rd), uint8_t(rn), uint8_t(rm), 0});
}
FnBuilder& FnBuilder::AddI(int rd, int rn, int32_t imm) {
  return Emit({Op::kAddI, uint8_t(rd), uint8_t(rn), 0, imm});
}
FnBuilder& FnBuilder::SubI(int rd, int rn, int32_t imm) {
  return Emit({Op::kSubI, uint8_t(rd), uint8_t(rn), 0, imm});
}
FnBuilder& FnBuilder::MulR(int rd, int rn, int rm) {
  return Emit({Op::kMulR, uint8_t(rd), uint8_t(rn), uint8_t(rm), 0});
}
FnBuilder& FnBuilder::OrrR(int rd, int rn, int rm) {
  return Emit({Op::kOrrR, uint8_t(rd), uint8_t(rn), uint8_t(rm), 0});
}
FnBuilder& FnBuilder::LslI(int rd, int rn, int32_t imm) {
  return Emit({Op::kLslI, uint8_t(rd), uint8_t(rn), 0, imm});
}

FnBuilder& FnBuilder::LdrW(int rt, int base, int32_t off) {
  return Emit({Op::kLdrW, uint8_t(rt), uint8_t(base), 0, off});
}
FnBuilder& FnBuilder::StrW(int rt, int base, int32_t off) {
  return Emit({Op::kStrW, uint8_t(rt), uint8_t(base), 0, off});
}
FnBuilder& FnBuilder::LdrB(int rt, int base, int32_t off) {
  return Emit({Op::kLdrB, uint8_t(rt), uint8_t(base), 0, off});
}
FnBuilder& FnBuilder::StrB(int rt, int base, int32_t off) {
  return Emit({Op::kStrB, uint8_t(rt), uint8_t(base), 0, off});
}
FnBuilder& FnBuilder::LdrWR(int rt, int base, int idx) {
  return Emit({Op::kLdrWR, uint8_t(rt), uint8_t(base), uint8_t(idx), 0});
}
FnBuilder& FnBuilder::LdrBR(int rt, int base, int idx) {
  return Emit({Op::kLdrBR, uint8_t(rt), uint8_t(base), uint8_t(idx), 0});
}
FnBuilder& FnBuilder::StrBR(int rt, int base, int idx) {
  return Emit({Op::kStrBR, uint8_t(rt), uint8_t(base), uint8_t(idx), 0});
}

FnBuilder& FnBuilder::CmpR(int rn, int rm) {
  return Emit({Op::kCmpR, 0, uint8_t(rn), uint8_t(rm), 0});
}
FnBuilder& FnBuilder::CmpI(int rn, int32_t imm) {
  return Emit({Op::kCmpI, 0, uint8_t(rn), 0, imm});
}

FnBuilder& FnBuilder::Label(const std::string& name) {
  labels_[name] = insns_.size();
  return *this;
}

FnBuilder& FnBuilder::Branch(Op op, const std::string& label) {
  branch_fixups_.push_back({insns_.size(), label, /*is_call=*/false});
  return Emit({op, 0, 0, 0, 0});
}

FnBuilder& FnBuilder::B(const std::string& l) { return Branch(Op::kB, l); }
FnBuilder& FnBuilder::Beq(const std::string& l) { return Branch(Op::kBeq, l); }
FnBuilder& FnBuilder::Bne(const std::string& l) { return Branch(Op::kBne, l); }
FnBuilder& FnBuilder::Blt(const std::string& l) { return Branch(Op::kBlt, l); }
FnBuilder& FnBuilder::Bge(const std::string& l) { return Branch(Op::kBge, l); }

FnBuilder& FnBuilder::Call(const std::string& symbol) {
  call_fixups_.push_back({insns_.size(), symbol, /*is_call=*/true});
  return Emit({Op::kBl, 0, 0, 0, 0});
}

FnBuilder& FnBuilder::CallReg(int rm) {
  return Emit({Op::kBlr, 0, 0, uint8_t(rm), 0});
}

FnBuilder& FnBuilder::Ret() { return Emit({Op::kRet, 0, 0, 0, 0}); }
FnBuilder& FnBuilder::Nop() { return Emit({Op::kNop, 0, 0, 0, 0}); }

Result<AsmFunction> FnBuilder::Finish() && {
  for (const Fixup& fx : branch_fixups_) {
    auto it = labels_.find(fx.target);
    if (it == labels_.end()) {
      return InvalidArgument("undefined label '" + fx.target +
                             "' in function " + name_);
    }
    // Branch offset is in words relative to pc + 4.
    int64_t delta = static_cast<int64_t>(it->second) -
                    (static_cast<int64_t>(fx.insn_index) + 1);
    if (delta < kImm24Min || delta > kImm24Max) {
      return OutOfRange("branch to '" + fx.target + "' out of range");
    }
    insns_[fx.insn_index].imm = static_cast<int32_t>(delta);
  }
  AsmFunction fn;
  fn.name = std::move(name_);
  fn.insns = std::move(insns_);
  fn.call_fixups = std::move(call_fixups_);
  return fn;
}

}  // namespace dtaint
