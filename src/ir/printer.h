// Disassembly-style printing of lifted functions (debugging aid and
// example output).
#pragma once

#include <string>

#include "src/binary/binary.h"
#include "src/ir/block.h"

namespace dtaint {

/// Renders an IR block: each guest word's disassembly, then the
/// statements lifted from it.
std::string PrintBlockWithDisasm(const Binary& binary, const IRBlock& block);

}  // namespace dtaint
