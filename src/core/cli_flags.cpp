#include "src/core/cli_flags.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <utility>

#include "src/obs/events.h"
#include "src/obs/metrics.h"

namespace dtaint {

namespace {

/// Digits only, fitting in `max`.
bool ParseUint(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

void FlagSet::Switch(std::string name, bool* out, bool value) {
  flags_.push_back({std::move(name), false,
                    [out, value](const std::string&) {
                      *out = value;
                      return true;
                    },
                    ""});
}

void FlagSet::Uint(std::string name, uint64_t* out) {
  Custom(
      std::move(name),
      [out](const std::string& text) {
        return ParseUint(text, std::numeric_limits<uint64_t>::max(), out);
      },
      "a non-negative integer");
}

void FlagSet::Int(std::string name, int* out) {
  Custom(
      std::move(name),
      [out](const std::string& text) {
        uint64_t value = 0;
        if (!ParseUint(text, std::numeric_limits<int>::max(), &value)) {
          return false;
        }
        *out = static_cast<int>(value);
        return true;
      },
      "a non-negative integer");
}

void FlagSet::Double(std::string name, double* out) {
  Custom(
      std::move(name),
      [out](const std::string& text) {
        // strtod alone would also take a sign, leading blanks, "inf"
        // and "nan".
        bool numeric_start =
            !text.empty() &&
            (std::isdigit(static_cast<unsigned char>(text[0])) ||
             text[0] == '.');
        if (!numeric_start) return false;
        char* end = nullptr;
        double value = std::strtod(text.c_str(), &end);
        if (*end != '\0' || !std::isfinite(value)) return false;
        *out = value;
        return true;
      },
      "a non-negative number");
}

void FlagSet::String(std::string name, std::string* out) {
  Custom(
      std::move(name),
      [out](const std::string& text) {
        *out = text;
        return true;
      },
      "");
}

void FlagSet::Custom(std::string name,
                     std::function<bool(const std::string&)> parse,
                     std::string want) {
  flags_.push_back({std::move(name), true, std::move(parse), std::move(want)});
}

bool FlagSet::Parse(int argc, char** argv,
                    std::vector<std::string>* positional,
                    std::string* error) const {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional->push_back(std::move(arg));
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == arg) {
        flag = &f;
        break;
      }
    }
    if (!flag) {
      *error = "unknown flag " + arg;
      return false;
    }
    if (!flag->takes_value) {
      flag->set("");
      continue;
    }
    if (i + 1 >= argc) {
      *error = arg + " needs a value";
      return false;
    }
    std::string value = argv[++i];
    if (!flag->set(value)) {
      *error = "bad " + arg + ": '" + value + "' (want " + flag->want + ")";
      return false;
    }
  }
  return true;
}

void AddScanFlags(FlagSet& flags, ScanFlags* out) {
  InterprocConfig& interproc = out->config.interproc;
  flags.Int("--threads", &interproc.num_threads);
  flags.String("--cache-dir", &out->cache_dir);
  flags.Double("--deadline-ms", &interproc.budget.deadline_ms);
  flags.Uint("--max-steps", &interproc.budget.max_steps);
  flags.Uint("--max-states", &interproc.budget.max_states);
  flags.Uint("--max-expr-nodes", &interproc.budget.max_expr_nodes);
}

void AddObsFlags(FlagSet& flags, ObsFlags* out) {
  flags.Custom(
      "--log-level",
      [out](const std::string& text) {
        obs::LogLevel level;
        if (!obs::ParseLogLevel(text, &level)) return false;
        out->log_level = level;
        return true;
      },
      "error|warn|info|debug");
  flags.String("--metrics-out", &out->metrics_out);
  flags.String("--events-out", &out->events_out);
}

bool ObsFlags::Open(std::string_view tool, std::string* error,
                    bool append_events) const {
  if (log_level) obs::SetLogLevel(*log_level);
  if (!events_out.empty() &&
      !obs::EventStream::Global().Open(events_out, tool, append_events)) {
    *error = "cannot open event stream " + events_out;
    return false;
  }
  return true;
}

bool ObsFlags::Finish() const {
  if (metrics_out.empty()) return true;
  std::ofstream out(metrics_out, std::ios::trunc);
  out << obs::MetricsRegistry::Global().ToJson() << '\n';
  if (!out.good()) {
    DTAINT_LOG(obs::LogLevel::kError, "obs", "cannot write metrics to %s",
               metrics_out.c_str());
    return false;
  }
  return true;
}

}  // namespace dtaint
