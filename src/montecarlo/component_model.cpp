#include "montecarlo/component_model.hpp"

#include <cassert>

#include "analytic/survivability.hpp"

namespace drs::mc {

void sample_failures(std::int64_t nodes, std::int64_t failures, util::Rng& rng,
                     analytic::ComponentSet& out) {
  assert(failures >= 0 && failures <= analytic::component_count(nodes));
  out.clear();
  // Floyd's algorithm; the bitset is its membership test.
  const std::int64_t components = analytic::component_count(nodes);
  for (std::int64_t j = components - failures; j < components; ++j) {
    const auto t =
        static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(j + 1)));
    out.set(out.test(t) ? j : t);
  }
}

bool trial_pair_connected(std::int64_t nodes, std::int64_t failures, util::Rng& rng) {
  analytic::ComponentSet failed;
  sample_failures(nodes, failures, rng, failed);
  return analytic::pair_connected(nodes, failed, 0, 1);
}

bool trial_all_pairs_connected(std::int64_t nodes, std::int64_t failures,
                               util::Rng& rng) {
  analytic::ComponentSet failed;
  sample_failures(nodes, failures, rng, failed);
  return analytic::all_live_pairs_connected(nodes, failed);
}

}  // namespace drs::mc
