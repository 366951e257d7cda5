// Faint-register elimination over one function's flat IR, run by
// SymEngine::Analyze on the IR it lifted, before exploring it.
//
// A function summary keeps only def pairs, undefined uses, call events,
// return values, types and the path constraints over them (paper
// §III-B). A register write whose value reaches none of those is work
// the exploration can skip: the pass drops every Put whose register is
// faint, i.e. not read by anything that is kept, on any path the
// engine follows.
//
//  * Roots, always kept: every Store, every Exit, a Put whose
//    expression contains a Load (loads record undefined uses and
//    pointer types), and Put(kFlagRhs) (a constant compare operand
//    types the register in kFlagLhs).
//  * Read at a block's end: a direct call reads the argument registers
//    and sp (stack arguments), an indirect call those plus the
//    registers its target reads, a return only the return register.
//    A call writes lr; every other register flows through it.
//  * Successors are the edges the engine follows: the exit target, the
//    fallthrough and a call's return address, when a block starts
//    there.
//
// Liveness is strong: a dropped Put adds no uses, so a dead cycle of
// writes across blocks disappears whole. The result is the same
// summary, up to the numbering of the fresh unknowns that widening
// makes (a dropped Put no longer consumes one).
#pragma once

#include <cstdint>
#include <vector>

#include "src/isa/regs.h"
#include "src/lifter/lifter.h"

namespace dtaint {

/// A set of IR registers: bit r stands for register r (< kNumIrRegs).
using RegMask = uint32_t;

/// The registers the engine reads when it ends `block`, before it moves
/// to a successor.
RegMask BlockEndUses(const IRBlock& block, const CallingConvention& cc);

/// Removes every faint Put from the blocks of `ir` and returns, per
/// block index, how many statements it removed.
std::vector<uint32_t> PruneDeadPuts(FunctionIR& ir,
                                    const CallingConvention& cc);

}  // namespace dtaint
