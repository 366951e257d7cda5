// Incident records — the error-isolation currency of the pipeline.
//
// A corpus scan must never die because one binary is malformed or one
// function exhausts its analysis budget. Instead, each isolated
// failure is recorded as an Incident (which binary, which phase, why,
// and how much effort the budget had granted) and the scan continues.
// Incidents surface in the JSON report under the "incidents" array and
// in the fleet summary, so triage can distinguish "no vulnerabilities"
// from "analysis never completed".
#pragma once

#include <string>
#include <vector>

#include "src/resilience/budget.h"
#include "src/util/status.h"

namespace dtaint {

class JsonValue;

struct Incident {
  /// Binary/image the failure belongs to (soname or fleet label).
  std::string binary;
  /// Pipeline phase: "extract", "load", "lift", "summary", "pathfind",
  /// "cache", "analyze".
  std::string phase;
  /// Site context: function name, file path, cache key.
  std::string detail;
  /// Why it failed (never OK).
  Status status;
  /// Effort counters at the failure point; all-zero (cause "none") for
  /// non-budget incidents.
  BudgetCounters budget;

  /// "<binary>/<phase>(<detail>): <status>" — log/table form.
  std::string ToString() const;
};

/// Serializes one incident as a JSON object:
/// {"binary":..., "phase":..., "detail":..., "code":..., "message":...,
///  "budget":{"steps":..,"states":..,"elapsed_ms":..,"exhausted_by":..}}
/// The budget object is emitted only when a budget cause is set.
std::string IncidentToJson(const Incident& incident);

/// Serializes a list as a JSON array.
std::string IncidentsToJson(const std::vector<Incident>& incidents);

/// Inverse of IncidentToJson; an unknown status code or budget cause
/// fails.
Result<Incident> IncidentFromJson(const JsonValue& value);

}  // namespace dtaint
