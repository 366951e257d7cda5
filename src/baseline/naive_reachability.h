// Second baseline: naive source/sink reachability ("grep with a call
// graph"). A sink callsite is flagged whenever some source callsite
// can reach it through the call graph — no data flow, no aliasing, no
// sanitization constraints. This is the strawman many quick-audit
// scripts implement; comparing its precision against DTaint's
// quantifies what the paper's data-flow machinery buys beyond mere
// co-reachability (used by bench/ablation_features).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cfg/cfg_builder.h"
#include "src/symexec/libmodels.h"

namespace dtaint {

struct NaiveFinding {
  std::string sink_function;
  uint32_t sink_site = 0;
  std::string sink;
  std::string source;           // some reaching source (first found)
  VulnClass vuln_class = VulnClass::kBufferOverflow;
};

/// Flags every sink callsite reachable (in the inter-procedural
/// control-flow sense) from a source callsite: the source's function
/// reaches the sink's function through call edges, or they share a
/// function.
std::vector<NaiveFinding> NaiveReachabilityScan(const Program& program);

}  // namespace dtaint
