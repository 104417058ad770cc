#include "common/cli.hpp"

#include <charconv>
#include <exception>

namespace obx::cli {

namespace {

void require(bool ok, const std::string& message) {
  if (!ok) throw UsageError(message);
}

}  // namespace

Args Args::parse(int argc, const char* const* argv,
                 const std::set<std::string>& bool_flags,
                 const std::set<std::string>& known_options) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional_.push_back(std::move(token));
      continue;
    }
    std::string key = token.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    require(!key.empty(), "empty option name");
    if (!known_options.empty()) {
      require(known_options.count(key) > 0 || bool_flags.count(key) > 0,
              "unknown option --" + key);
    }
    if (bool_flags.count(key) > 0) {
      require(!has_value, "flag --" + key + " takes no value");
      args.options_[key] = "true";
      continue;
    }
    if (!has_value) {
      require(i + 1 < argc, "option --" + key + " needs a value");
      value = argv[++i];
    }
    args.options_[key] = std::move(value);
  }
  return args;
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::int64_t out = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  require(ec == std::errc() && ptr == s.data() + s.size(),
          "option --" + key + " is not an integer: " + s);
  return out;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& s = it->second;
  std::size_t consumed = 0;
  double v = 0;
  try {
    v = std::stod(s, &consumed);
  } catch (const std::exception&) {
    consumed = 0;  // not a number, or out of double's range
  }
  require(consumed != 0 && consumed == s.size(),
          "option --" + key + " is not a number: " + s);
  return v;
}

}  // namespace obx::cli
