// util::FlatMap / FlatSet against std::map / std::set: seeded random
// operation streams over small key universes, so tables run near their 7/8
// load factor and probe chains wrap past the last slot, plus the targeted
// cases a random stream reaches only by luck (erase across the wraparound,
// clear on an empty table, reserve on a populated one).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace drs::util {
namespace {

using Map = FlatMap<std::uint16_t, std::uint32_t>;

/// The map's (key, value) pairs in key order.
std::vector<std::pair<std::uint16_t, std::uint32_t>> contents(Map& map) {
  std::map<std::uint16_t, std::uint32_t> sorted;
  map.for_each([&](std::uint16_t key, std::uint32_t value) {
    EXPECT_TRUE(sorted.emplace(key, value).second) << "key " << key << " twice";
  });
  return {sorted.begin(), sorted.end()};
}

void expect_equal(Map& map, const std::map<std::uint16_t, std::uint32_t>& ref,
                  std::uint16_t universe) {
  ASSERT_EQ(map.size(), ref.size());
  EXPECT_EQ(map.empty(), ref.empty());
  for (std::uint16_t key = 0; key < universe; ++key) {
    const auto it = ref.find(key);
    const std::uint32_t* found = map.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(found, nullptr) << "key " << key;
    } else {
      ASSERT_NE(found, nullptr) << "key " << key;
      EXPECT_EQ(*found, it->second) << "key " << key;
    }
  }
  EXPECT_EQ(contents(map),
            (std::vector<std::pair<std::uint16_t, std::uint32_t>>(ref.begin(),
                                                                  ref.end())));
}

/// The map's slot index for `key` at its 16-slot minimum capacity: the
/// Fibonacci mix FlatMap::home applies.
std::size_t home16(std::uint16_t key) {
  return static_cast<std::size_t>(
             (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 32) &
         15u;
}

TEST(FlatMapDifferential, RandomOperationsMatchStdMap) {
  // Universes of 12 to 300 keys keep the table between 16 and 512 slots,
  // growing and shrinking in load as keys come and go.
  for (const std::uint16_t universe : {std::uint16_t{12}, std::uint16_t{40},
                                       std::uint16_t{300}}) {
    Rng rng(0xF1A7, universe);
    Map map;
    std::map<std::uint16_t, std::uint32_t> ref;
    for (int step = 0; step < 20000; ++step) {
      const auto key = static_cast<std::uint16_t>(rng.next_below(universe));
      const auto value = static_cast<std::uint32_t>(rng.next_u64());
      const std::uint64_t op = rng.next_below(100);
      if (op < 35) {
        EXPECT_EQ(map.insert(key, value), ref.emplace(key, value).second);
      } else if (op < 45) {
        map[key] = value;
        ref[key] = value;
      } else if (op < 80) {
        EXPECT_EQ(map.erase(key), ref.erase(key) == 1) << "key " << key;
      } else if (op < 99) {
        const std::uint32_t* found = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "key " << key;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        EXPECT_EQ(map.contains(key), it != ref.end());
      } else if (rng.next_bernoulli(0.5)) {
        map.clear();
        ref.clear();
      } else {
        map.reserve(ref.size() + rng.next_below(2u * universe));
      }
      if (step % 97 == 0) expect_equal(map, ref, universe);
    }
    expect_equal(map, ref, universe);
  }
}

TEST(FlatMapDifferential, EraseShiftsBackAcrossTheWraparound) {
  // Three keys homed at the last slot of a 16-slot table fill slots 15, 0
  // and 1; a fourth homed at slot 0 lands behind them in slot 2.
  std::vector<std::uint16_t> last;
  std::uint16_t first_slot_key = 0;
  for (std::uint16_t key = 1; last.size() < 3 || first_slot_key == 0; ++key) {
    if (home16(key) == 15 && last.size() < 3) last.push_back(key);
    if (home16(key) == 0 && first_slot_key == 0) first_slot_key = key;
  }
  Map map;
  std::map<std::uint16_t, std::uint32_t> ref;
  for (std::uint16_t key : {last[0], last[1], last[2], first_slot_key}) {
    ASSERT_TRUE(map.insert(key, key * 10u));
    ref.emplace(key, key * 10u);
  }
  // Slot order proves the chain wrapped: slots 0, 1, 2 before slot 15.
  std::vector<std::uint16_t> slot_order;
  map.for_each([&](std::uint16_t key, std::uint32_t) { slot_order.push_back(key); });
  ASSERT_EQ(slot_order, (std::vector<std::uint16_t>{last[1], last[2],
                                                    first_slot_key, last[0]}));
  // Erasing the chain's head pulls both wrapped keys back over the
  // boundary; the slot-0 key stays findable from its own home.
  ASSERT_TRUE(map.erase(last[0]));
  ref.erase(last[0]);
  expect_equal(map, ref, 0xFFFF);
  ASSERT_TRUE(map.erase(last[2]));
  ref.erase(last[2]);
  expect_equal(map, ref, 0xFFFF);
  EXPECT_FALSE(map.erase(last[0]));
}

TEST(FlatMapDifferential, ClearEmptiesAndLeavesTheMapUsable) {
  Map map;
  map.clear();  // never allocated
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(3), nullptr);
  map.reserve(400);
  map.clear();  // allocated, empty
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.erase(3));

  std::map<std::uint16_t, std::uint32_t> ref;
  for (std::uint16_t key = 0; key < 200; key += 3) {
    map.insert(key, key + 1u);
    ref.emplace(key, key + 1u);
  }
  expect_equal(map, ref, 256);
  map.clear();  // populated
  ref.clear();
  expect_equal(map, ref, 256);
  map.clear();  // empty again
  for (std::uint16_t key = 1; key < 200; key += 7) {
    map.insert(key, key * 2u);
    ref.emplace(key, key * 2u);
  }
  expect_equal(map, ref, 256);
}

TEST(FlatMapDifferential, ReserveKeepsEveryEntryOfAPopulatedMap) {
  Map map;
  std::map<std::uint16_t, std::uint32_t> ref;
  for (std::uint16_t key = 0; key < 13; ++key) {  // 13 of 16 slots
    map.insert(static_cast<std::uint16_t>(key * 1031u), key);
    ref.emplace(static_cast<std::uint16_t>(key * 1031u), key);
  }
  map.reserve(5);  // smaller than held: no-op
  expect_equal(map, ref, 0xFFFF);
  map.reserve(1000);  // rehash into 2048 slots
  expect_equal(map, ref, 0xFFFF);
  for (std::uint16_t key = 0; key < 900; ++key) {
    map.insert(static_cast<std::uint16_t>(key * 7u + 1u), key);
    ref.emplace(static_cast<std::uint16_t>(key * 7u + 1u), key);
  }
  expect_equal(map, ref, 0xFFFF);
}

TEST(FlatSetDifferential, RandomOperationsMatchStdSet) {
  Rng rng(0xF1A75E7);
  FlatSet<std::uint32_t> set;
  std::set<std::uint32_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(64));
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      EXPECT_EQ(set.insert(key), ref.insert(key).second);
    } else if (op < 90) {
      EXPECT_EQ(set.erase(key), ref.erase(key) == 1);
    } else if (op < 99) {
      EXPECT_EQ(set.contains(key), ref.count(key) == 1);
    } else {
      set.clear();
      ref.clear();
    }
    ASSERT_EQ(set.size(), ref.size());
  }
  std::set<std::uint32_t> seen;
  set.for_each([&](std::uint32_t key) { EXPECT_TRUE(seen.insert(key).second); });
  EXPECT_EQ(seen, ref);
}

}  // namespace
}  // namespace drs::util
