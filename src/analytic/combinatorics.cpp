#include "analytic/combinatorics.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace drs::analytic {

namespace {

/// Exponent of prime p in n! (Legendre's formula).
std::int64_t factorial_prime_exponent(std::int64_t n, std::int64_t p) {
  std::int64_t exponent = 0;
  for (std::int64_t q = p; q <= n; q *= p) {
    exponent += n / q;
    if (q > n / p) break;  // avoid q *= p overflow on huge n
  }
  return exponent;
}

/// C(n, k) by prime factorization of n! / (k! (n-k)!): every intermediate
/// product is a divisor of the final value, so this cannot overflow as long
/// as the result itself fits in 128 bits (true for all n <= 130).
u128 binomial_by_primes(std::int64_t n, std::int64_t k) {
  std::vector<bool> composite(static_cast<std::size_t>(n + 1), false);
  u128 result = 1;
  for (std::int64_t p = 2; p <= n; ++p) {
    if (composite[static_cast<std::size_t>(p)]) continue;
    for (std::int64_t q = p * p; q <= n; q += p) {
      composite[static_cast<std::size_t>(q)] = true;
    }
    std::int64_t e = factorial_prime_exponent(n, p) -
                     factorial_prime_exponent(k, p) -
                     factorial_prime_exponent(n - k, p);
    for (; e > 0; --e) {
      assert(result <= ~u128{0} / static_cast<u128>(p) && "binomial overflow");
      result *= static_cast<u128>(p);
    }
  }
  return result;
}

}  // namespace

u128 binomial(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n || n < 0) return 0;
  if (k > n - k) k = n - k;
  if (k == 0) return 1;
  // The multiplicative recurrence is fast but its intermediate result*factor
  // can exceed 128 bits once k grows; fall back to the prime-factorization
  // path (overflow-free up to the representable result) beyond k = 30.
  if (k > 30) return binomial_by_primes(n, k);
  u128 result = 1;
  for (std::int64_t i = 1; i <= k; ++i) {
    const auto factor = static_cast<u128>(n - k + i);
    // The running product result * factor is always divisible by i, so the
    // division is exact. numeric_limits is not specialized for __int128
    // under -std=c++20, hence the spelled-out max.
    assert(result <= ~u128{0} / factor && "binomial overflow");
    result = result * factor / static_cast<u128>(i);
  }
  return result;
}

double log_binomial(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n || n < 0) return -std::numeric_limits<double>::infinity();
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

u128 coverage_count(std::int64_t m, std::int64_t r) {
  if (m < 0 || r < m || r > 2 * m) return 0;
  const std::int64_t both = r - m;        // nodes losing both NICs
  const std::int64_t single = 2 * m - r;  // nodes losing exactly one
  return binomial(m, both) << single;     // * 2^single
}

double to_double(u128 v) {
  const auto hi = static_cast<std::uint64_t>(v >> 64);
  const auto lo = static_cast<std::uint64_t>(v);
  return static_cast<double>(hi) * 0x1.0p64 + static_cast<double>(lo);
}

std::string to_string(u128 v) {
  if (v == 0) return "0";
  std::string digits;
  while (v > 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  return {digits.rbegin(), digits.rend()};
}

}  // namespace drs::analytic
