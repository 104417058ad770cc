// Minimal command-line parsing for the obx tools.
//
// Supports `--key value`, `--key=value`, boolean `--flag`, and positional
// arguments.  Unknown options are errors; values are validated on access.
// Every malformed command line throws UsageError, so a tool can answer it
// with its usage text instead of an internal-check trace.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace obx::cli {

/// A command line the tool cannot accept: an unknown option, a missing or
/// malformed value.  The message names the option and nothing else.
class UsageError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class Args {
 public:
  /// Parses argv[1..); `bool_flags` names the options that take no value.
  /// Throws UsageError on malformed input, or on unknown options when
  /// `known_options` is non-empty.  Values are checked on access
  /// (get_int / get_double throw UsageError too).
  static Args parse(int argc, const char* const* argv,
                    const std::set<std::string>& bool_flags = {},
                    const std::set<std::string>& known_options = {});

  bool has(const std::string& key) const { return options_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key) const { return has(key); }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace obx::cli
