#include "src/resilience/incident.h"

#include "src/util/json.h"
#include "src/util/strings.h"

namespace dtaint {

namespace {

bool ParseStatusCode(std::string_view name, StatusCode* out) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    if (StatusCodeName(code) == name) {
      *out = code;
      return true;
    }
  }
  return false;
}

bool ParseBudgetExhaustion(std::string_view name, BudgetExhaustion* out) {
  for (int c = 0; c <= static_cast<int>(BudgetExhaustion::kInjected); ++c) {
    BudgetExhaustion cause = static_cast<BudgetExhaustion>(c);
    if (BudgetExhaustionName(cause) == name) {
      *out = cause;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string Incident::ToString() const {
  std::string out = binary;
  out += '/';
  out += phase;
  if (!detail.empty()) {
    out += '(';
    out += detail;
    out += ')';
  }
  out += ": ";
  out += status.ToString();
  return out;
}

std::string IncidentToJson(const Incident& incident) {
  std::string out = "{";
  out += "\"binary\":\"" + JsonEscape(incident.binary) + "\",";
  out += "\"phase\":\"" + JsonEscape(incident.phase) + "\",";
  out += "\"detail\":\"" + JsonEscape(incident.detail) + "\",";
  out += "\"code\":\"" +
         JsonEscape(StatusCodeName(incident.status.code())) + "\",";
  out += "\"message\":\"" + JsonEscape(incident.status.message()) + "\"";
  if (incident.budget.exhausted_by != BudgetExhaustion::kNone) {
    out += ",\"budget\":{";
    out += "\"steps\":" + std::to_string(incident.budget.steps) + ",";
    out += "\"states\":" + std::to_string(incident.budget.states) + ",";
    out += "\"elapsed_ms\":" + FmtDouble(incident.budget.elapsed_ms, 3) + ",";
    out += "\"expr_nodes\":" + std::to_string(incident.budget.expr_nodes) +
           ",";
    out += "\"exhausted_by\":\"" +
           std::string(BudgetExhaustionName(incident.budget.exhausted_by)) +
           "\"";
    out += "}";
  }
  out += "}";
  return out;
}

std::string IncidentsToJson(const std::vector<Incident>& incidents) {
  std::string out = "[";
  for (size_t i = 0; i < incidents.size(); ++i) {
    if (i) out += ",";
    out += IncidentToJson(incidents[i]);
  }
  out += "]";
  return out;
}

Result<Incident> IncidentFromJson(const JsonValue& value) {
  if (!value.is_object()) return CorruptData("incident: not an object");
  Incident incident;
  incident.binary = FieldStr(value, "binary");
  incident.phase = FieldStr(value, "phase");
  incident.detail = FieldStr(value, "detail");
  StatusCode code = StatusCode::kInternal;
  if (!ParseStatusCode(FieldStr(value, "code"), &code)) {
    return CorruptData("incident: bad status code");
  }
  incident.status = Status(code, std::string(FieldStr(value, "message")));
  if (const JsonValue* budget = value.Find("budget");
      budget && budget->is_object()) {
    incident.budget.steps = FieldCount(*budget, "steps");
    incident.budget.states = FieldCount(*budget, "states");
    incident.budget.elapsed_ms = FieldNum(*budget, "elapsed_ms");
    incident.budget.expr_nodes = FieldCount(*budget, "expr_nodes");
    if (!ParseBudgetExhaustion(FieldStr(*budget, "exhausted_by"),
                               &incident.budget.exhausted_by)) {
      return CorruptData("incident: bad exhausted_by");
    }
  }
  return incident;
}

}  // namespace dtaint
