#include "exp/spec.hpp"

#include <cassert>
#include <cerrno>
#include <cstddef>
#include <cstdlib>

#include "util/hash.hpp"
#include "util/table.hpp"

namespace drs::exp {

namespace {

/// The most values one parsed axis may hold: the bound a failure script
/// puts on its actions (net::kMaxScriptActions).
constexpr std::size_t kMaxAxisValues = 1'000'000;

/// How all of a token reads as a number.
enum class NumberRead { kOk, kNotANumber, kOutOfRange };

/// Reads all of `token` with strtoll or strtod (`read`). Leading space is
/// skipped, so "n=2, 4" parses; trailing text is not a number, and a value
/// the type cannot hold is out of range, as util::Flags treats both.
template <class T, class Read>
NumberRead read_number(const std::string& token, T& out, Read read) {
  if (token.empty()) return NumberRead::kNotANumber;
  char* end = nullptr;
  errno = 0;
  const T v = read(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return NumberRead::kNotANumber;
  if (errno == ERANGE) return NumberRead::kOutOfRange;
  out = v;
  return NumberRead::kOk;
}

NumberRead parse_int(const std::string& token, std::int64_t& out) {
  return read_number(token, out, [](const char* text, char** end) {
    return std::strtoll(text, end, 10);
  });
}

NumberRead parse_double(const std::string& token, double& out) {
  return read_number(token, out, [](const char* text, char** end) {
    return std::strtod(text, end);
  });
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    parts.push_back(text.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return parts;
}

}  // namespace

std::string canonical_value(const Value& v) {
  switch (v.index()) {
    case 0: return "i:" + std::to_string(std::get<std::int64_t>(v));
    case 1: return "d:" + util::double_bits_hex(std::get<double>(v));
    case 2: return std::get<bool>(v) ? "b:1" : "b:0";
    default: return "s:" + std::get<std::string>(v);
  }
}

std::string display_value(const Value& v) {
  switch (v.index()) {
    case 0: return std::to_string(std::get<std::int64_t>(v));
    case 1: return util::format_double(std::get<double>(v), 6);
    case 2: return std::get<bool>(v) ? "true" : "false";
    default: return std::get<std::string>(v);
  }
}

ParamGrid& ParamGrid::axis(std::string name, std::vector<Value> values) {
  assert(!values.empty() && "an axis needs at least one value");
  assert(!has_axis(name) && "duplicate axis name");
  axes_.push_back(Axis{std::move(name), std::move(values)});
  return *this;
}

ParamGrid& ParamGrid::ints(std::string name, std::vector<std::int64_t> values) {
  std::vector<Value> out(values.begin(), values.end());
  return axis(std::move(name), std::move(out));
}

ParamGrid& ParamGrid::doubles(std::string name, std::vector<double> values) {
  std::vector<Value> out(values.begin(), values.end());
  return axis(std::move(name), std::move(out));
}

ParamGrid& ParamGrid::bools(std::string name, std::vector<bool> values) {
  std::vector<Value> out;
  out.reserve(values.size());
  for (const bool b : values) out.emplace_back(b);
  return axis(std::move(name), std::move(out));
}

ParamGrid& ParamGrid::strings(std::string name, std::vector<std::string> values) {
  std::vector<Value> out;
  out.reserve(values.size());
  for (std::string& s : values) out.emplace_back(std::move(s));
  return axis(std::move(name), std::move(out));
}

bool ParamGrid::has_axis(const std::string& name) const {
  for (const Axis& a : axes_) {
    if (a.name == name) return true;
  }
  return false;
}

std::uint64_t ParamGrid::cell_count() const {
  if (axes_.empty()) return 0;
  std::uint64_t count = 1;
  for (const Axis& a : axes_) count *= a.values.size();
  return count;
}

const Value* Cell::find(const std::string& name) const {
  for (const auto& [key, value] : params_) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::int64_t Cell::get_int(const std::string& name, std::int64_t fallback) const {
  const Value* v = find(name);
  if (v == nullptr) return fallback;
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i;
  return fallback;
}

double Cell::get_double(const std::string& name, double fallback) const {
  const Value* v = find(name);
  if (v == nullptr) return fallback;
  if (const auto* d = std::get_if<double>(v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(v)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

bool Cell::get_bool(const std::string& name, bool fallback) const {
  const Value* v = find(name);
  if (v == nullptr) return fallback;
  if (const auto* b = std::get_if<bool>(v)) return *b;
  return fallback;
}

std::string Cell::get_string(const std::string& name, std::string fallback) const {
  const Value* v = find(name);
  if (v == nullptr) return fallback;
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return fallback;
}

std::string Cell::canonical() const {
  std::string out;
  for (const auto& [name, value] : params_) {
    if (!out.empty()) out += '|';
    out += name;
    out += '=';
    out += canonical_value(value);
  }
  return out;
}

std::vector<Cell> expand(const ParamGrid& grid) {
  std::vector<Cell> cells;
  const std::uint64_t total = grid.cell_count();
  if (total == 0) return cells;
  cells.reserve(total);
  const auto& axes = grid.axes();
  std::vector<std::size_t> odometer(axes.size(), 0);
  for (std::uint64_t n = 0; n < total; ++n) {
    std::vector<std::pair<std::string, Value>> params;
    params.reserve(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      params.emplace_back(axes[a].name, axes[a].values[odometer[a]]);
    }
    cells.emplace_back(std::move(params));
    // Increment with the last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++odometer[a] < axes[a].values.size()) break;
      odometer[a] = 0;
    }
  }
  return cells;
}

std::string config_fingerprint(const core::DrsConfig& config) {
  std::string out = "drs-config-v1";
  const auto ns = [](util::Duration d) { return std::to_string(d.ns()); };
  out += "|probe_interval=" + ns(config.probe_interval);
  out += "|probe_timeout=" + ns(config.probe_timeout);
  out += "|adaptive_timeout=" + std::string(config.adaptive_timeout ? "1" : "0");
  out += "|min_probe_timeout=" + ns(config.min_probe_timeout);
  out += "|failures_to_down=" + std::to_string(config.failures_to_down);
  out += "|successes_to_up=" + std::to_string(config.successes_to_up);
  out += "|spread_probes=" + std::string(config.spread_probes ? "1" : "0");
  out += "|probe_data_bytes=" + std::to_string(config.probe_data_bytes);
  out += "|allow_relay=" + std::string(config.allow_relay ? "1" : "0");
  out += "|discover_timeout=" + ns(config.discover_timeout);
  out += "|warm_standby=" + std::string(config.warm_standby ? "1" : "0");
  out += "|relay_route_lifetime=" + ns(config.relay_route_lifetime);
  out += "|flap_threshold=" + std::to_string(config.flap_threshold);
  out += "|flap_window=" + ns(config.flap_window);
  out += "|flap_hold=" + ns(config.flap_hold);
  out += "|monitored_peers=";
  if (config.monitored_peers.has_value()) {
    for (const net::NodeId peer : *config.monitored_peers) {
      out += std::to_string(peer);
      out += ',';
    }
  } else {
    out += "all";
  }
  return out;
}

std::optional<ParamGrid> parse_grid(const std::string& text, std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<ParamGrid> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  ParamGrid grid;
  for (const std::string& axis_text : split(text, ';')) {
    if (axis_text.empty()) continue;
    const std::size_t eq = axis_text.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail("axis '" + axis_text + "' is not of the form name=values");
    }
    const std::string name = axis_text.substr(0, eq);
    if (grid.has_axis(name)) return fail("duplicate axis '" + name + "'");

    // Expand tokens; ranges force the axis to integers.
    std::vector<std::string> tokens;
    bool has_range = false;
    const auto too_long = [&] {
      return fail("axis '" + name + "' expands past " +
                  std::to_string(kMaxAxisValues) + " values");
    };
    for (const std::string& token : split(axis_text.substr(eq + 1), ',')) {
      const std::size_t dots = token.find("..");
      if (dots == std::string::npos) {
        if (token.empty()) {
          return fail("axis '" + name + "' has an empty value");
        }
        if (tokens.size() == kMaxAxisValues) return too_long();
        tokens.push_back(token);
        continue;
      }
      has_range = true;
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      std::int64_t step = 1;
      std::string hi_text = token.substr(dots + 2);
      if (const std::size_t colon = hi_text.find(':');
          colon != std::string::npos) {
        if (parse_int(hi_text.substr(colon + 1), step) != NumberRead::kOk ||
            step <= 0) {
          return fail("bad range step in '" + token + "'");
        }
        hi_text = hi_text.substr(0, colon);
      }
      if (parse_int(token.substr(0, dots), lo) != NumberRead::kOk ||
          parse_int(hi_text, hi) != NumberRead::kOk || hi < lo) {
        return fail("bad range '" + token + "' (expected lo..hi or lo..hi:step)");
      }
      // Count in unsigned arithmetic: hi - lo need not fit an int64, and
      // stepping a signed value past hi would overflow.
      const auto first = static_cast<std::uint64_t>(lo);
      const auto stride = static_cast<std::uint64_t>(step);
      const std::uint64_t steps = (static_cast<std::uint64_t>(hi) - first) / stride;
      if (steps >= kMaxAxisValues - tokens.size()) return too_long();
      for (std::uint64_t k = 0; k <= steps; ++k) {
        tokens.push_back(std::to_string(static_cast<std::int64_t>(first + k * stride)));
      }
    }
    if (tokens.empty()) return fail("axis '" + name + "' has no values");

    // Type inference over the whole token list.
    std::vector<Value> values;
    bool all_int = true;
    bool all_double = true;
    bool all_bool = true;
    for (const std::string& token : tokens) {
      std::int64_t i = 0;
      double d = 0.0;
      const NumberRead as_int = parse_int(token, i);
      const NumberRead as_double = parse_double(token, d);
      if (as_int == NumberRead::kOutOfRange ||
          as_double == NumberRead::kOutOfRange) {
        return fail("value '" + token + "' of axis '" + name +
                    "' is out of range");
      }
      if (as_int != NumberRead::kOk) all_int = false;
      if (as_double != NumberRead::kOk) all_double = false;
      if (token != "true" && token != "false") all_bool = false;
    }
    for (const std::string& token : tokens) {
      if (all_int) {
        std::int64_t i = 0;
        parse_int(token, i);
        values.emplace_back(i);
      } else if (all_double) {
        double d = 0.0;
        parse_double(token, d);
        values.emplace_back(d);
      } else if (all_bool && !has_range) {
        values.emplace_back(token == "true");
      } else {
        values.emplace_back(token);
      }
    }
    grid.axis(name, std::move(values));
  }
  if (grid.axes().empty()) return fail("empty grid");
  return grid;
}

}  // namespace drs::exp
