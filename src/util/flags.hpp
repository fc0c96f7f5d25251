// Minimal command-line flag parsing for examples and benches.
//
// Supported forms: `--name value`, `--name=value`, and bare `--name` for
// booleans. Unknown flags are an error so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace drs::util {

class Flags {
 public:
  /// Parses argv. Returns std::nullopt and prints a diagnostic to stderr on
  /// malformed input. `allowed` lists the accepted flag names (without "--")
  /// with one-line help strings; "--help" is always accepted and, when seen,
  /// prints usage and sets `help_requested`.
  static std::optional<Flags> parse(
      int argc, const char* const* argv,
      const std::map<std::string, std::string>& allowed);

  bool help_requested() const { return help_; }
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed getters return `fallback` for an absent flag. A value that is not
  /// wholly a number in range (get_bool: true/1/yes/false/0/no) throws
  /// std::invalid_argument naming the flag, which ends the program unless caught.
  std::string get_string(const std::string& name, std::string fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

 private:
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

}  // namespace drs::util
