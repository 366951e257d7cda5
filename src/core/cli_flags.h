// Command-line flag parsing for the scanners (dtaint_cli, corpus_scan).
//
// FlagSet is a small declarative argv parser: each flag is registered
// with the variable it fills, and Parse rejects anything it cannot
// account for — an unknown flag, a missing value, a value that is not
// a well-formed non-negative number for a numeric flag, or one a
// custom parser refuses — with a message that names the flag. The
// scanners exit 2 on such an error instead of running with a silently
// defaulted or garbage setting.
//
// AddScanFlags and AddObsFlags register the flags both scanners share,
// so each CLI declares only its own flags on top.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dtaint.h"
#include "src/obs/log.h"

namespace dtaint {

/// Each registration keeps a pointer to its output variable; Parse
/// writes through it, so the variables must outlive every Parse call.
class FlagSet {
 public:
  /// `name` takes no value; its presence stores `value` into *out.
  void Switch(std::string name, bool* out, bool value = true);
  /// Non-negative decimal integers: digits only, no sign, no exponent,
  /// no trailing characters, within the target type's range.
  void Uint(std::string name, uint64_t* out);
  void Int(std::string name, int* out);
  /// Non-negative finite decimal number.
  void Double(std::string name, double* out);
  /// Any value, taken verbatim.
  void String(std::string name, std::string* out);
  /// A value `parse` must accept; `want` describes the accepted values
  /// in the error message (e.g. "eager|ondemand").
  void Custom(std::string name, std::function<bool(const std::string&)> parse,
              std::string want);

  /// Parses `argc` arguments. Arguments not starting with "--" are
  /// appended to *positional. A value-taking flag consumes the next
  /// argument whatever it looks like. On error returns false and sets
  /// *error to a one-line message naming the offending flag.
  bool Parse(int argc, char** argv, std::vector<std::string>* positional,
             std::string* error) const;

 private:
  struct Flag {
    std::string name;
    bool takes_value = true;
    std::function<bool(const std::string&)> set;
    std::string want;
  };
  std::vector<Flag> flags_;
};

/// Analysis flags shared by `dtaint_cli scan` and `corpus_scan`.
struct ScanFlags {
  /// --threads, --alias-mode, --deadline-ms, --max-steps, --max-states,
  /// --max-expr-nodes.
  DTaintConfig config;
  /// --cache-dir: persistent summary-cache directory ("" = none).
  std::string cache_dir;
};
void AddScanFlags(FlagSet& flags, ScanFlags* out);

/// Observability flags shared by both scanners (every dtaint_cli
/// command accepts them).
struct ObsFlags {
  std::optional<obs::LogLevel> log_level;  // --log-level
  std::string trace_out;                   // --trace-out
  std::string metrics_out;                 // --metrics-out
  std::string events_out;                  // --events-out

  /// Applies the log level and opens the trace and event streams
  /// (`tool` names the event stream's producer). On failure sets
  /// *error and returns false.
  bool Open(std::string_view tool, std::string* error) const;
  /// Finishes the trace stream and writes the metrics snapshot; logs
  /// and returns false if either fails. The event stream is left open
  /// for the caller to close with its own status.
  bool Finish() const;
};
void AddObsFlags(FlagSet& flags, ObsFlags* out);

}  // namespace dtaint
