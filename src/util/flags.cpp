#include "util/flags.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace drs::util {

namespace {

std::invalid_argument malformed(const std::string& name, const std::string& value) {
  return std::invalid_argument("--" + name + ": malformed value '" + value + "'");
}

/// Reads all of `value` with strtoll or strtod (`read`): a blank, leading space,
/// trailing text or an out-of-range value is malformed. (For doubles, from_chars
/// would add about 60 KB to the peak RSS of every program that reads one.)
template <class Read>
auto read_whole(const std::string& name, const std::string& value, Read read) {
  char* end = nullptr;
  errno = 0;
  const auto out = read(value.c_str(), &end);
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) ||
      end != value.c_str() + value.size() || errno == ERANGE) {
    throw malformed(name, value);
  }
  return out;
}

}  // namespace

std::optional<Flags> Flags::parse(
    int argc, const char* const* argv,
    const std::map<std::string, std::string>& allowed) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      return std::nullopt;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    if (arg == "help") {
      flags.help_ = true;
      std::printf("options:\n");
      for (const auto& [name, help] : allowed) {
        std::printf("  --%-20s %s\n", name.c_str(), help.c_str());
      }
      continue;
    }
    if (allowed.find(arg) == allowed.end()) {
      std::fprintf(stderr, "unknown flag: --%s (try --help)\n", arg.c_str());
      return std::nullopt;
    }
    if (!has_value && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
      has_value = true;
    }
    flags.values_[arg] = has_value ? value : "true";
  }
  return flags;
}

std::string Flags::get_string(const std::string& name, std::string fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return read_whole(name, it->second,
                    [](const char* text, char** end) { return std::strtoll(text, end, 10); });
}

double Flags::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return read_whole(name, it->second,
                    [](const char* text, char** end) { return std::strtod(text, end); });
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw malformed(name, value);
}

}  // namespace drs::util
