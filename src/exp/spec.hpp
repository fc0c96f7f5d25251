// Declarative experiment specifications.
//
// An ExperimentSpec names a scenario family (see exp/scenario.hpp), a
// parameter grid, a master seed and an optional base DrsConfig. The engine
// expands the grid into cells — the cartesian product of the axes, in a
// canonical order (axes in declaration order, the last axis varying fastest)
// — and evaluates the family's scenario function once per cell. Everything
// here is deliberately value-typed and order-preserving so that a spec has
// exactly one canonical serialization, which is what the content-addressed
// cache keys hang off.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/config.hpp"

namespace drs::exp {

/// One parameter or output value. Doubles participate in cache keys and
/// cached payloads by bit pattern, never by decimal rendering.
using Value = std::variant<std::int64_t, double, bool, std::string>;

/// Canonical machine rendering with a type tag: "i:42", "d:<16 hex bits>",
/// "b:1", "s:text". Unambiguous and bit-exact — the cache-key alphabet.
std::string canonical_value(const Value& v);

/// Human rendering for tables and summaries: "42", "0.1", "true", "text".
std::string display_value(const Value& v);

struct Axis {
  std::string name;
  std::vector<Value> values;
};

class ParamGrid {
 public:
  /// Appends an axis; order is meaningful (it fixes cell expansion order).
  /// An axis name may be added once; values must be non-empty.
  ParamGrid& axis(std::string name, std::vector<Value> values);

  // Typed conveniences.
  ParamGrid& ints(std::string name, std::vector<std::int64_t> values);
  ParamGrid& doubles(std::string name, std::vector<double> values);
  ParamGrid& bools(std::string name, std::vector<bool> values);
  ParamGrid& strings(std::string name, std::vector<std::string> values);

  const std::vector<Axis>& axes() const { return axes_; }
  bool has_axis(const std::string& name) const;
  std::uint64_t cell_count() const;

 private:
  std::vector<Axis> axes_;
};

/// One expanded grid point: (name, value) pairs in axis order.
class Cell {
 public:
  explicit Cell(std::vector<std::pair<std::string, Value>> params)
      : params_(std::move(params)) {}

  const std::vector<std::pair<std::string, Value>>& params() const {
    return params_;
  }
  const Value* find(const std::string& name) const;

  // Typed accessors with fallbacks. get_double promotes an integer value.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  std::string get_string(const std::string& name, std::string fallback) const;

  /// Canonical rendering "n=i:4|f=i:2" in axis order — the cell's
  /// contribution to its cache key.
  std::string canonical() const;

 private:
  std::vector<std::pair<std::string, Value>> params_;
};

struct ExperimentSpec {
  /// Scenario family name; must exist in the registry (exp/scenario.hpp).
  std::string family;
  ParamGrid grid;
  /// Master seed for randomized families. Folded into cache keys only when
  /// the family declares uses_seed — a purely analytic family's cache
  /// survives a seed change untouched.
  std::uint64_t seed = 0x5EED5EEDULL;
  /// Base daemon configuration for packet-level families; its fingerprint is
  /// folded into cache keys when the family declares uses_config, so editing
  /// any knob invalidates exactly the cells that could observe it.
  std::optional<core::DrsConfig> config;
};

/// Expands the grid into cells: cartesian product, axes in declaration
/// order, the last axis varying fastest. Deterministic by construction.
std::vector<Cell> expand(const ParamGrid& grid);

/// Canonical, exhaustive serialization of every DrsConfig knob — the
/// "config" component of a cache key. Adding a knob to DrsConfig without
/// extending this function would silently keep stale cache entries alive, so
/// the unit tests pin the fingerprint of the default configuration.
std::string config_fingerprint(const core::DrsConfig& config);

/// Parses the bench_sweep grid syntax into a grid:
///   "n=2,4,8;f=2..5;relay=true,false;mode=hub,switch"
/// Axes are ';'-separated, values ','-separated; "lo..hi" and "lo..hi:step"
/// expand integer ranges. A value list that parses entirely as integers
/// becomes an int axis; entirely as numbers, a double axis; "true"/"false",
/// a bool axis; anything else, a string axis. Returns nullopt and fills
/// `error` on malformed input, which includes a number its type cannot hold
/// and an axis of more than one million values.
std::optional<ParamGrid> parse_grid(const std::string& text, std::string* error);

}  // namespace drs::exp
