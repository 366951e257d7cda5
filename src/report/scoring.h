// Detection scoring against synthesized ground truth.
//
// The paper validates findings by hand against CVEs and real devices;
// our firmware is synthesized, so every planted vulnerability (and
// every deliberately-sanitized twin) is known exactly and findings can
// be scored as TP/FP/FN automatically.
#pragma once

#include <string>
#include <vector>

#include "src/core/dtaint.h"
#include "src/symexec/libmodels.h"

namespace dtaint {

/// One planted taint-style pattern in a synthesized binary.
struct PlantedVuln {
  std::string id;             // unique tag, e.g. "dir645-v1"
  std::string sink_function;  // function containing the sink call
  std::string sink;           // "strcpy", "system", "loop", ...
  std::string source;         // "recv", "getenv", ...
  VulnClass vuln_class = VulnClass::kBufferOverflow;
  bool sanitized = false;     // true: this is a safe twin (must NOT fire)
  bool needs_alias = false;       // reachable only through Algorithm 1
  bool needs_structsim = false;   // reachable only through §III-D
  bool interprocedural = false;   // source and sink in different functions
  std::string cve_label;      // display label for Table IV rows
};

struct DetectionScore {
  size_t true_positives = 0;
  size_t false_positives = 0;   // findings matching no vulnerable plant
  size_t false_negatives = 0;   // vulnerable plants not found
  size_t safe_twin_hits = 0;    // findings on sanitized twins (FP class)
  std::vector<std::string> missed_ids;
  std::vector<std::string> found_ids;

  double Precision() const {
    size_t denom = true_positives + false_positives + safe_twin_hits;
    return denom == 0 ? 1.0 : static_cast<double>(true_positives) / denom;
  }
  double Recall() const {
    size_t denom = true_positives + false_negatives;
    return denom == 0 ? 1.0 : static_cast<double>(true_positives) / denom;
  }
};

/// Matches findings to plants by (sink_function, sink) identity; each
/// plant counts once no matter how many paths hit it.
DetectionScore ScoreFindings(const std::vector<Finding>& findings,
                             const std::vector<PlantedVuln>& ground_truth);

}  // namespace dtaint
