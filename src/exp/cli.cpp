#include "exp/cli.hpp"

#include <cstdio>

#include "util/table.hpp"

namespace drs::exp {

std::optional<BenchCli> parse_bench_cli(
    int argc, const char* const* argv,
    std::map<std::string, std::string> extra) {
  std::map<std::string, std::string> allowed = std::move(extra);
  allowed.emplace("threads", "worker threads for cell sharding, 0 = hardware");
  allowed.emplace("seed", "master seed for randomized families");
  allowed.emplace("shards",
                  "fixed `shards` axis: fleet families run on the sharded "
                  "engine with this many worker shards (0 = legacy path)");
  allowed.emplace("cache-dir", "content-addressed result cache directory");
  allowed.emplace("refresh", "recompute every cell, overwrite cache entries");
  allowed.emplace("json-out", "write the canonical JSON report here");
  allowed.emplace("timing", "also run google-benchmark timing kernels");

  auto flags = util::Flags::parse(argc, argv, allowed);
  if (!flags) return std::nullopt;

  BenchCli cli;
  cli.flags = *flags;
  cli.engine.threads = static_cast<unsigned>(flags->get_int("threads", 0));
  cli.engine.cache_dir = flags->get_string("cache-dir", "");
  cli.engine.refresh = flags->get_bool("refresh");
  if (flags->has("seed")) {
    cli.seed = static_cast<std::uint64_t>(flags->get_int("seed", 0));
  }
  if (flags->has("shards")) cli.shards = flags->get_int("shards", 0);
  cli.json_out = flags->get_string("json-out", "");
  cli.timing = flags->get_bool("timing");
  return cli;
}

void JsonReport::add(const ExperimentResult& result) {
  if (!body_.empty()) body_ += ',';
  body_ += result.to_json();
}

std::string JsonReport::str() const { return "[" + body_ + "]"; }

bool JsonReport::write_to(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string doc = str() + "\n";
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

std::string summary_line(const ExperimentResult& result) {
  std::string line = "family=" + result.family;
  line += " cells=" + std::to_string(result.cells.size());
  line += " cache_hits=" + std::to_string(result.cache_hits);
  line += " cache_misses=" + std::to_string(result.cache_misses);
  line += " hit_rate=" + util::format_double(result.hit_rate(), 4);
  return line;
}

}  // namespace drs::exp
