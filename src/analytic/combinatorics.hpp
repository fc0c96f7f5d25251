// Exact combinatorics for the survivability model.
//
// Counts are exact in unsigned __int128. For the paper's parameter ranges
// (N <= 64 nodes => 2N+2 = 130 components, f <= 10 failures) every quantity
// fits comfortably; `binomial` asserts if an intermediate would overflow so a
// silent precision loss is impossible. The lgamma-based `log_binomial` serves
// the unconditional model's pmf, whose terms leave the exact range.
#pragma once

#include <cstdint>
#include <string>

namespace drs::analytic {

__extension__ typedef unsigned __int128 u128;  // silence -Wpedantic: GCC extension

/// C(n, k). Returns 0 for k < 0 or k > n (the convention the survivability
/// formula relies on so out-of-domain terms vanish). Exact; aborts on
/// overflow (n up to 130 with k <= 40 is safe).
u128 binomial(std::int64_t n, std::int64_t k);

/// ln C(n, k); -inf for out-of-domain.
double log_binomial(std::int64_t n, std::int64_t k);

/// Number of ways to choose r NICs out of m dual-NIC nodes such that every
/// node loses at least one NIC: T(m, r) = C(m, r-m) * 2^(2m-r) for
/// m <= r <= 2m, else 0. (Choose which r-m nodes lose both; each remaining
/// node picks which single NIC it loses.) T(0, 0) = 1 by the empty product.
u128 coverage_count(std::int64_t m, std::int64_t r);

double to_double(u128 v);
std::string to_string(u128 v);

}  // namespace drs::analytic
