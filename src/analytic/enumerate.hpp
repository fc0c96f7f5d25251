// Ground-truth connectivity semantics and exhaustive enumeration.
//
// `pair_connected` is the single authoritative definition of "the DRS keeps
// this pair of servers talking" at the component level. The Monte-Carlo
// estimator samples it; `enumerate_success_count` sums it over every failure
// subset (feasible for small N) and must equal the closed-form F(N,f) — the
// strongest check we have that the reconstructed Equation 1 is the paper's.
//
// Component numbering matches drs::net::ClusterNetwork: component 2i+k is
// NIC(node i, network k); components 2N and 2N+1 are the backplanes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "analytic/combinatorics.hpp"

namespace drs::analytic {

/// Fixed bitset over at most 192 components (N <= 95 nodes).
class ComponentSet {
 public:
  static constexpr std::int64_t kMaxComponents = 192;
  static constexpr std::int64_t kMaxNodes = (kMaxComponents - 2) / 2;

  void set(std::int64_t index) { words_[word(index)] |= bit(index); }
  void reset(std::int64_t index) { words_[word(index)] &= ~bit(index); }
  void clear() { words_ = {}; }
  bool test(std::int64_t index) const { return (words_[word(index)] & bit(index)) != 0; }
  std::int64_t count() const;

 private:
  static std::size_t word(std::int64_t index) {
    return static_cast<std::size_t>(index >> 6);
  }
  static std::uint64_t bit(std::int64_t index) {
    return std::uint64_t{1} << (index & 63);
  }
  std::array<std::uint64_t, 3> words_{};
};

/// Why a ComponentSet cannot hold f failures among an N-node cluster's 2N+2
/// components, or nullopt when it can: N must lie in [2, 95] (the 95-node
/// limit keeps 2N+2 within 192 bits) and f in [0, 2N+2]. Every entry point
/// that fills a ComponentSet from (N, f) calls this once, before any work,
/// and throws std::invalid_argument with the message.
[[nodiscard]] std::optional<std::string> validate_failure_domain(
    std::int64_t nodes, std::int64_t failures);

/// True iff nodes `a` and `b` can communicate under DRS with the components
/// in `failed` down: a direct link on either backplane, or a one-hop relay
/// through any third node alive on both networks (requires both backplanes).
bool pair_connected(std::int64_t nodes, const ComponentSet& failed, std::int64_t a,
                    std::int64_t b);

/// True iff every pair of *network-alive* nodes can communicate. Nodes with
/// both NICs failed are excluded: no routing protocol can reach a host with
/// no working interface, so they count as host failures, not routing ones.
bool all_live_pairs_connected(std::int64_t nodes, const ComponentSet& failed);

struct EnumerationResult {
  u128 successes = 0;
  u128 total = 0;
  double probability() const {
    return total == 0 ? 0.0 : to_double(successes) / to_double(total);
  }
};

/// Exhaustively enumerates all C(2N+2, f) failure subsets and counts those
/// where pair (0, 1) stays connected. O(C(2N+2, f)); intended for N <= 10.
/// Throws std::invalid_argument when validate_failure_domain rejects (N, f).
EnumerationResult enumerate_success_count(std::int64_t nodes, std::int64_t failures);

/// Visits every size-f subset of {0..m-1}; the visitor receives the subset
/// as a ComponentSet. Returns the number of subsets visited.
template <typename Visitor>
u128 for_each_subset(std::int64_t m, std::int64_t f, Visitor&& visit) {
  if (f < 0 || f > m) return 0;
  std::array<std::int64_t, ComponentSet::kMaxComponents> pick{};
  for (std::int64_t i = 0; i < f; ++i) pick[static_cast<std::size_t>(i)] = i;
  u128 visited = 0;
  ComponentSet set;
  while (true) {
    set.clear();
    for (std::int64_t i = 0; i < f; ++i) set.set(pick[static_cast<std::size_t>(i)]);
    visit(static_cast<const ComponentSet&>(set));
    ++visited;
    // Advance to the next combination in lexicographic order.
    std::int64_t i = f - 1;
    while (i >= 0 && pick[static_cast<std::size_t>(i)] == m - f + i) --i;
    if (i < 0) break;
    ++pick[static_cast<std::size_t>(i)];
    for (std::int64_t j = i + 1; j < f; ++j) {
      pick[static_cast<std::size_t>(j)] = pick[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
  return visited;
}

}  // namespace drs::analytic
