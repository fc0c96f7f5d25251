// The sharded experiment engine.
//
// run_experiment expands a spec's grid, shards the cells across worker
// threads with util::run_indexed_jobs (results indexed by cell, so output is
// bit-identical for any thread count), and memoizes each cell in an on-disk
// content-addressed cache (util::DiskCache). A cache hit must be
// indistinguishable from a cold run: payloads carry doubles by bit pattern,
// so the aggregated JSON report is byte-identical either way.
//
// Cache key contract (see docs/EXPERIMENTS-ENGINE.md):
//   family | scenario version | engine payload-format version
//     | seed          (only for families with uses_seed)
//     | config fingerprint (only for families with uses_config)
//     | canonical cell
// so editing one grid knob invalidates exactly the affected cells, bumping a
// scenario's version invalidates that family alone, and a seed change leaves
// purely analytic families' entries untouched.
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/spec.hpp"
#include "util/table.hpp"

namespace drs::exp {

struct EngineOptions {
  /// Worker threads for the cell shards; 0 = hardware_concurrency. Never
  /// part of any cache key — results are invariant to it by construction.
  unsigned threads = 0;
  /// Cache directory; empty disables caching entirely.
  std::string cache_dir;
  /// Recompute every cell and overwrite cache entries (ignore hits).
  bool refresh = false;
};

struct CellResult {
  Outputs outputs;
  bool from_cache = false;
};

struct ExperimentResult {
  std::string family;
  std::string version;
  std::uint64_t seed = 0;
  std::vector<Cell> cells;
  std::vector<CellResult> results;  // indexed like `cells`
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Non-empty when the spec was rejected (unknown family, missing required
  /// axis, invalid config), in which case no cells were run, or when a
  /// cell's model threw std::invalid_argument (e.g. N above the 95-node
  /// limit). A rejected cell has no outputs and is not cached; the error
  /// names the lowest rejected cell, so it is the same at any thread count.
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }

  /// First output named `name` in cell `i` (fallback when absent). The typed
  /// accessors let rewired benches pull values without repeating lookups.
  const Value* output(std::size_t i, const std::string& name) const;
  std::int64_t output_int(std::size_t i, const std::string& name,
                          std::int64_t fallback = 0) const;
  double output_double(std::size_t i, const std::string& name,
                       double fallback = 0.0) const;
  bool output_bool(std::size_t i, const std::string& name,
                   bool fallback = false) const;

  /// Canonical machine report: no whitespace, keys in a fixed order, doubles
  /// rendered by util::JsonWriter. Deliberately excludes cache statistics so
  /// warm and cold runs byte-compare equal.
  [[nodiscard]] std::string to_json() const;

  /// Parameter columns then output columns, one row per cell — the same
  /// util::Table the figure benches print. Outputs named "metrics" (or
  /// prefixed "metric.") are observability snapshots: present in to_json()
  /// and cached payloads, omitted from tables.
  [[nodiscard]] util::Table to_table() const;
};

/// Runs one spec to completion. Never throws on a bad spec or on a cell whose
/// inputs its model rejects with std::invalid_argument (a DrsConfig the
/// family itself rejects, an (N, f) outside the model's domain) — the error
/// lands in ExperimentResult::error.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              const EngineOptions& options = {});

// Exposed for tests and diagnostics -----------------------------------------

/// The full cache key of one cell under the contract above.
[[nodiscard]] std::string cell_cache_key(const ExperimentSpec& spec,
                                         const Scenario& scenario,
                                         const Cell& cell);

/// Cached payload format: one "name=<canonical value>" line per output.
/// Doubles travel as bit patterns, so parse_outputs(serialize_outputs(o))
/// reproduces o bit-for-bit.
[[nodiscard]] std::string serialize_outputs(const Outputs& outputs);
[[nodiscard]] bool parse_outputs(const std::string& payload, Outputs& outputs);

}  // namespace drs::exp
