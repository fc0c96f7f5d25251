#include "net/script.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <sstream>
#include <string_view>

namespace drs::net {

namespace {

/// Parses a decimal integer in [0, limit) that spans all of `text`.
bool parse_index(std::string_view text, std::int64_t limit, std::int64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && out >= 0 && out < limit;
}

/// Parses "1.5s", "200ms", "40us", "7ns" into a non-negative Duration.
/// Returns false on malformed input or when the nanoseconds overflow int64.
bool parse_duration(std::string_view token, util::Duration& out) {
  std::size_t suffix = 0;
  while (suffix < token.size() &&
         (std::isdigit(static_cast<unsigned char>(token[suffix])) ||
          token[suffix] == '.')) {
    ++suffix;
  }
  const char* end = token.data() + suffix;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), end, value, std::chars_format::fixed);
  if (ec != std::errc() || ptr != end) return false;
  const std::string_view unit = token.substr(suffix);
  double ns_per_unit = 0.0;
  if (unit == "s") {
    ns_per_unit = 1e9;
  } else if (unit == "ms") {
    ns_per_unit = 1e6;
  } else if (unit == "us") {
    ns_per_unit = 1e3;
  } else if (unit == "ns") {
    ns_per_unit = 1.0;
  } else {
    return false;
  }
  const double ns = value * ns_per_unit;
  // 2^63 is exact in a double; at or past it the cast below would overflow.
  if (!(ns < 0x1p63)) return false;
  out = util::Duration::nanos(static_cast<std::int64_t>(ns + 0.5));
  return true;
}

bool parse_component(const std::vector<std::string>& tokens, std::size_t start,
                     std::uint16_t node_count, ComponentRef& out,
                     std::size_t& consumed, std::string& error) {
  if (start >= tokens.size()) {
    error = "expected component (nic <node> <net> | backplane <net>)";
    return false;
  }
  const std::string& kind = tokens[start];
  if (kind == "nic") {
    if (start + 2 >= tokens.size()) {
      error = "nic needs <node> <net>";
      return false;
    }
    std::int64_t node = 0;
    std::int64_t network = 0;
    if (!parse_index(tokens[start + 1], node_count, node)) {
      error = "bad node index: " + tokens[start + 1];
      return false;
    }
    if (!parse_index(tokens[start + 2], kNetworksPerHost, network)) {
      error = "bad network index: " + tokens[start + 2];
      return false;
    }
    out = ComponentRef{ComponentRef::Kind::kNic, static_cast<NodeId>(node),
                       static_cast<NetworkId>(network)};
    consumed = 3;
    return true;
  }
  if (kind == "backplane") {
    if (start + 1 >= tokens.size()) {
      error = "backplane needs <net>";
      return false;
    }
    std::int64_t network = 0;
    if (!parse_index(tokens[start + 1], kNetworksPerHost, network)) {
      error = "bad network index: " + tokens[start + 1];
      return false;
    }
    out = ComponentRef{ComponentRef::Kind::kBackplane, 0,
                       static_cast<NetworkId>(network)};
    consumed = 2;
    return true;
  }
  error = "unknown component kind: " + kind;
  return false;
}

ComponentIndex flat_index(const ComponentRef& ref, std::uint16_t node_count) {
  if (ref.kind == ComponentRef::Kind::kNic) {
    return ClusterNetwork::nic_component(ref.node, ref.network);
  }
  return static_cast<ComponentIndex>(2u * node_count + ref.network);
}

}  // namespace

ScriptParseResult parse_failure_script(const std::string& text,
                                       std::uint16_t node_count) {
  ScriptParseResult result;
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  auto fail_at = [&](const std::string& message) {
    result.error = "line " + std::to_string(line_number) + ": " + message;
    result.actions.clear();
  };

  while (std::getline(lines, line)) {
    ++line_number;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream words(line);
    std::vector<std::string> tokens;
    for (std::string word; words >> word;) tokens.push_back(word);
    if (tokens.empty()) continue;

    if (tokens[0].empty() || tokens[0][0] != '@') {
      fail_at("expected @<offset>, got '" + tokens[0] + "'");
      return result;
    }
    util::Duration offset;
    if (!parse_duration(std::string_view(tokens[0]).substr(1), offset)) {
      fail_at("bad time offset '" + tokens[0] + "'");
      return result;
    }
    if (tokens.size() < 2) {
      fail_at("expected an action after the offset");
      return result;
    }

    const std::string& verb = tokens[1];
    ComponentRef component;
    std::size_t consumed = 0;
    std::string component_error;
    if (verb == "fail" || verb == "restore") {
      if (!parse_component(tokens, 2, node_count, component, consumed,
                           component_error)) {
        fail_at(component_error);
        return result;
      }
      if (2 + consumed != tokens.size()) {
        fail_at("trailing tokens after component");
        return result;
      }
      if (result.actions.size() >= kMaxScriptActions) {
        fail_at("script expands past " + std::to_string(kMaxScriptActions) +
                " actions");
        return result;
      }
      result.actions.push_back(ScriptAction{offset, component, verb == "fail"});
      continue;
    }
    if (verb == "flap") {
      if (!parse_component(tokens, 2, node_count, component, consumed,
                           component_error)) {
        fail_at(component_error);
        return result;
      }
      util::Duration period;
      std::int64_t count = 0;
      for (std::size_t i = 2 + consumed; i < tokens.size(); ++i) {
        const std::string& option = tokens[i];
        if (option.rfind("period=", 0) == 0) {
          if (!parse_duration(std::string_view(option).substr(7), period) ||
              period <= util::Duration::zero()) {
            fail_at("bad flap period '" + option + "'");
            return result;
          }
        } else if (option.rfind("count=", 0) == 0) {
          if (!parse_index(std::string_view(option).substr(6),
                           std::numeric_limits<std::int64_t>::max(), count)) {
            fail_at("bad flap count '" + option + "'");
            return result;
          }
        } else {
          fail_at("unknown flap option '" + option + "'");
          return result;
        }
      }
      if (period <= util::Duration::zero() || count <= 0) {
        fail_at("flap requires period=<duration> and count=<n>");
        return result;
      }
      // The last restore lands at offset + (2 * count - 1) * period.
      const std::int64_t room =
          (std::numeric_limits<std::int64_t>::max() - offset.ns()) / period.ns();
      if (count > room / 2 + room % 2) {
        fail_at("flap runs past the end of simulated time");
        return result;
      }
      if (count > static_cast<std::int64_t>(
                      (kMaxScriptActions - result.actions.size()) / 2)) {
        fail_at("script expands past " + std::to_string(kMaxScriptActions) +
                " actions");
        return result;
      }
      for (std::int64_t i = 0; i < count; ++i) {
        const util::Duration base = offset + period * (2 * i);
        result.actions.push_back(ScriptAction{base, component, true});
        result.actions.push_back(ScriptAction{base + period, component, false});
      }
      continue;
    }
    fail_at("unknown action '" + verb + "'");
    return result;
  }

  std::stable_sort(result.actions.begin(), result.actions.end(),
                   [](const ScriptAction& a, const ScriptAction& b) {
                     return a.at < b.at;
                   });
  return result;
}

void schedule_script(FailureInjector& injector,
                     const std::vector<ScriptAction>& actions, util::SimTime base) {
  // The injector's network defines the node count for flat indices.
  for (const ScriptAction& action : actions) {
    injector.schedule(FailureAction{
        base + action.at,
        flat_index(action.component, injector.network().node_count()),
        action.fail});
  }
}

}  // namespace drs::net
