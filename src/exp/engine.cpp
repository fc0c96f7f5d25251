#include "exp/engine.hpp"

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/cache.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace drs::exp {

namespace {

/// Bumped whenever the cached payload format or key assembly changes;
/// invalidates every entry at once.
constexpr const char* kEngineFormat = "exp-v1";

void write_value(util::JsonWriter& json, const Value& v) {
  switch (v.index()) {
    case 0: json.value(std::get<std::int64_t>(v)); break;
    case 1: json.value(std::get<double>(v)); break;
    case 2: json.value(std::get<bool>(v)); break;
    default: json.value(std::get<std::string>(v)); break;
  }
}

bool parse_value(const std::string& text, Value& out) {
  if (text.size() < 2 || text[1] != ':') return false;
  const std::string body = text.substr(2);
  switch (text[0]) {
    case 'i': {
      char* end = nullptr;
      const long long v = std::strtoll(body.c_str(), &end, 10);
      if (body.empty() || end != body.c_str() + body.size()) return false;
      out = static_cast<std::int64_t>(v);
      return true;
    }
    case 'd': {
      double d = 0.0;
      if (!util::double_from_bits_hex(body, d)) return false;
      out = d;
      return true;
    }
    case 'b':
      if (body != "0" && body != "1") return false;
      out = (body == "1");
      return true;
    case 's':
      out = body;
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string cell_cache_key(const ExperimentSpec& spec, const Scenario& scenario,
                           const Cell& cell) {
  std::string key = scenario.family;
  key += '|';
  key += scenario.version;
  key += '|';
  key += kEngineFormat;
  if (scenario.uses_seed) {
    key += "|seed=";
    key += util::to_hex64(spec.seed);
  }
  if (scenario.uses_config) {
    key += '|';
    key += config_fingerprint(spec.config.value_or(core::DrsConfig{}));
  }
  key += '|';
  key += cell.canonical();
  return key;
}

std::string serialize_outputs(const Outputs& outputs) {
  std::string payload;
  for (const auto& [name, value] : outputs) {
    payload += name;
    payload += '=';
    payload += canonical_value(value);
    payload += '\n';
  }
  return payload;
}

bool parse_outputs(const std::string& payload, Outputs& outputs) {
  outputs.clear();
  std::size_t start = 0;
  while (start < payload.size()) {
    std::size_t end = payload.find('\n', start);
    if (end == std::string::npos) return false;  // every line is terminated
    const std::string line = payload.substr(start, end - start);
    start = end + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    Value value;
    if (!parse_value(line.substr(eq + 1), value)) return false;
    outputs.emplace_back(line.substr(0, eq), std::move(value));
  }
  return true;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const EngineOptions& options) {
  ExperimentResult result;
  result.family = spec.family;
  result.seed = spec.seed;

  const Scenario* scenario = find_scenario(spec.family);
  if (scenario == nullptr) {
    result.error = "unknown scenario family '" + spec.family + "'";
    return result;
  }
  result.version = scenario->version;
  for (const std::string& axis : scenario->required) {
    if (!spec.grid.has_axis(axis)) {
      result.error = "family '" + spec.family + "' requires grid axis '" +
                     axis + "'";
      return result;
    }
  }
  if (scenario->uses_config && spec.config.has_value()) {
    if (const auto error = spec.config->validate()) {
      result.error = "spec DrsConfig: " + *error;
      return result;
    }
  }

  result.cells = expand(spec.grid);
  const core::DrsConfig base_config = spec.config.value_or(core::DrsConfig{});

  util::DiskCache cache(scenario->cacheable ? options.cache_dir
                                            : std::string{});
  // A cell whose model rejects its inputs is recorded by index and cached
  // nowhere; an exception must not escape a worker thread.
  std::vector<std::optional<std::string>> rejected(result.cells.size());
  result.results = util::run_indexed_jobs(
      result.cells.size(), options.threads, [&](std::uint64_t i) {
        const Cell& cell = result.cells[i];
        CellResult out;
        const std::string key =
            cache.enabled() ? cell_cache_key(spec, *scenario, cell)
                            : std::string{};
        if (cache.enabled() && !options.refresh) {
          if (const auto payload = cache.get(key)) {
            if (parse_outputs(*payload, out.outputs)) {
              out.from_cache = true;
              return out;
            }
          }
        }
        try {
          out.outputs = scenario->run(
              ScenarioContext{.cell = cell, .seed = spec.seed,
                              .config = base_config});
        } catch (const std::invalid_argument& error) {
          rejected[i] = error.what();
          return out;
        }
        if (cache.enabled()) cache.put(key, serialize_outputs(out.outputs));
        return out;
      });
  // The lowest rejected index names the error, whatever the thread count.
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    if (rejected[i]) {
      result.error = "cell " + result.cells[i].canonical() + ": " + *rejected[i];
      break;
    }
  }

  // Aggregate sequentially; the counters come from the results, not the
  // cache's internal stats, so a corrupt-entry retry cannot skew them.
  for (const CellResult& cell : result.results) {
    if (cell.from_cache) {
      ++result.cache_hits;
    } else {
      ++result.cache_misses;
    }
  }
  return result;
}

const Value* ExperimentResult::output(std::size_t i,
                                      const std::string& name) const {
  if (i >= results.size()) return nullptr;
  for (const auto& [key, value] : results[i].outputs) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::int64_t ExperimentResult::output_int(std::size_t i,
                                          const std::string& name,
                                          std::int64_t fallback) const {
  const Value* v = output(i, name);
  if (v == nullptr) return fallback;
  if (const auto* value = std::get_if<std::int64_t>(v)) return *value;
  return fallback;
}

double ExperimentResult::output_double(std::size_t i, const std::string& name,
                                       double fallback) const {
  const Value* v = output(i, name);
  if (v == nullptr) return fallback;
  if (const auto* value = std::get_if<double>(v)) return *value;
  if (const auto* value = std::get_if<std::int64_t>(v)) {
    return static_cast<double>(*value);
  }
  return fallback;
}

bool ExperimentResult::output_bool(std::size_t i, const std::string& name,
                                   bool fallback) const {
  const Value* v = output(i, name);
  if (v == nullptr) return fallback;
  if (const auto* value = std::get_if<bool>(v)) return *value;
  return fallback;
}

std::string ExperimentResult::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.field("family", family);
  json.field("version", version);
  json.field("seed", seed);
  if (!error.empty()) json.field("error", error);
  json.key("cells").begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json.begin_object();
    json.key("params").begin_object();
    for (const auto& [name, value] : cells[i].params()) {
      json.key(name);
      write_value(json, value);
    }
    json.end_object();
    json.key("outputs").begin_object();
    for (const auto& [name, value] : results[i].outputs) {
      json.key(name);
      write_value(json, value);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

namespace {

// Observability snapshots ride along in outputs (and in to_json / cached
// payloads) but are JSON blobs, not tabular values — rendering them would
// wreck every printed table and the golden figure tables with it.
bool metrics_column(const std::string& name) {
  return name == "metrics" || name.rfind("metric.", 0) == 0;
}

}  // namespace

util::Table ExperimentResult::to_table() const {
  std::vector<std::string> headers;
  if (!cells.empty()) {
    for (const auto& [name, value] : cells.front().params()) {
      headers.push_back(name);
    }
  }
  if (!results.empty()) {
    for (const auto& [name, value] : results.front().outputs) {
      if (metrics_column(name)) continue;
      headers.push_back(name);
    }
  }
  if (headers.empty()) headers.push_back("(empty)");
  util::Table table(headers);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<std::string> row;
    for (const auto& [name, value] : cells[i].params()) {
      row.push_back(display_value(value));
    }
    for (const auto& [name, value] : results[i].outputs) {
      if (metrics_column(name)) continue;
      row.push_back(display_value(value));
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace drs::exp
