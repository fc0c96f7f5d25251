// Shared bench command-line vocabulary (see README "Bench CLI"):
//
//   --threads N      worker threads for cell sharding (0 = hardware)
//   --seed S         master seed for randomized families
//   --shards N       adds a fixed `shards` axis: fleet families run on the
//                    sharded engine with N worker shards (byte-identical
//                    results, see docs/SHARDING.md); an explicit grid axis
//                    of the same name wins
//   --cache-dir DIR  content-addressed result cache (empty = disabled)
//   --refresh        recompute every cell, overwriting cache entries
//   --json-out FILE  write the canonical JSON report of every experiment
//   --timing         also run the google-benchmark timing kernels
//
// Every bench parses with parse_bench_cli so the vocabulary stays uniform;
// per-bench extras ride along in the returned util::Flags.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "exp/engine.hpp"
#include "util/flags.hpp"

namespace drs::exp {

struct BenchCli {
  util::Flags flags;
  EngineOptions engine;
  /// Explicit --seed, when given; families keep their historical defaults
  /// otherwise (that is what keeps the golden tables byte-stable).
  std::optional<std::uint64_t> seed;
  /// Explicit --shards, when given; folded into the grid as a fixed axis so
  /// fleet families run on the sharded engine (0 keeps the legacy path).
  std::optional<std::int64_t> shards;
  std::string json_out;
  bool timing = false;

  /// Folds --seed and --shards (when present) into the spec and returns it.
  /// An axis the spec's grid already names wins over the flag.
  ExperimentSpec& apply(ExperimentSpec& spec) const {
    if (seed.has_value()) spec.seed = *seed;
    if (shards.has_value() && !spec.grid.has_axis("shards")) {
      spec.grid.ints("shards", {*shards});
    }
    return spec;
  }
};

/// Parses argv against the shared vocabulary plus `extra` bench-specific
/// flags. nullopt = malformed input (diagnostic already on stderr, exit
/// non-zero); on --help the caller sees flags.help_requested() and should
/// exit cleanly.
std::optional<BenchCli> parse_bench_cli(
    int argc, const char* const* argv,
    std::map<std::string, std::string> extra = {});

/// Accumulates per-experiment canonical JSON into one array document —
/// byte-comparable across runs, threads, and cache temperature.
class JsonReport {
 public:
  void add(const ExperimentResult& result);
  /// "[r1,r2,...]" in add order.
  std::string str() const;
  /// Writes str() + '\n' to `path`; no-op success when `path` is empty.
  bool write_to(const std::string& path) const;

 private:
  std::string body_;
};

/// One grep-friendly line per experiment:
///   "family=fig2_psuccess cells=115 cache_hits=115 cache_misses=0 hit_rate=1"
/// CI asserts hit_rate on the second of two identical runs.
std::string summary_line(const ExperimentResult& result);

}  // namespace drs::exp
