// Open-addressing hash containers for small integer keys.
//
// Replaces unordered_map/unordered_set on the probe hot path: linear probing
// over one flat power-of-two array, no per-node heap allocation after
// reserve(), and deterministic iteration — the slot order is a pure function
// of the inserted key sequence, so nothing nondeterministic can leak into
// simulation output (which is why these need no drs-lint annotation).
// Deletion uses backward-shift, so there are no tombstones and lookups stay
// O(1) under churn.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace drs::util {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K>, "FlatMap keys are small integers");

 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` entries without exceeding the load factor.
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 7 < n * 8) want *= 2;  // keep load factor under 7/8
    if (want > capacity()) rehash(want);
  }

  void clear() {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < full_.size(); ++i) {
      if (full_[i]) slots_[i] = Slot{};
      full_[i] = 0;
    }
    size_ = 0;
  }

  V* find(K key) {
    if (size_ == 0) return nullptr;
    std::size_t i = home(key);
    while (full_[i]) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask();
    }
    return nullptr;
  }
  const V* find(K key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  bool contains(K key) const { return find(key) != nullptr; }

  /// Inserts `key` default-constructed if absent; returns the value slot and
  /// whether an insert happened.
  std::pair<V*, bool> try_emplace(K key) {
    if ((size_ + 1) * 8 > capacity() * 7) rehash(capacity() * 2);
    std::size_t i = home(key);
    while (full_[i]) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask();
    }
    full_[i] = 1;
    slots_[i].key = key;
    ++size_;
    return {&slots_[i].value, true};
  }

  V& operator[](K key) { return *try_emplace(key).first; }

  bool insert(K key, V value) {
    auto [slot, inserted] = try_emplace(key);
    if (inserted) *slot = std::move(value);
    return inserted;
  }

  bool erase(K key) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    while (full_[i]) {
      if (slots_[i].key == key) {
        shift_back(i);
        --size_;
        return true;
      }
      i = (i + 1) & mask();
    }
    return false;
  }

  /// Visits every (key, value) in slot order. The order is deterministic but
  /// unspecified; callers needing a semantic order must sort keys themselves.
  template <typename F>
  void for_each(F&& fn) {
    for (std::size_t i = 0; i < full_.size(); ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    K key{};
    V value{};
  };

  std::size_t capacity() const { return slots_.size(); }
  std::size_t mask() const { return capacity() - 1; }

  std::size_t home(K key) const {
    // Fibonacci mix: strided key sequences (per-peer probe seqs) spread out.
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) & mask();
  }

  void rehash(std::size_t new_capacity) {
    if (new_capacity < kMinCapacity) new_capacity = kMinCapacity;
    std::vector<Slot> old_slots;
    std::vector<std::uint8_t> old_full;
    old_slots.swap(slots_);
    old_full.swap(full_);
    // drs-lint: hotpath-purity-ok(amortized: geometric rehash, callers reserve() their steady-state size up front)
    slots_.resize(new_capacity);
    full_.assign(new_capacity, 0);
    size_ = 0;
    for (std::size_t i = 0; i < old_full.size(); ++i) {
      if (!old_full[i]) continue;
      auto [slot, inserted] = try_emplace(old_slots[i].key);
      assert(inserted);
      *slot = std::move(old_slots[i].value);
    }
  }

  void shift_back(std::size_t hole) {
    // Backward-shift deletion: pull every displaced follower one step left.
    std::size_t i = (hole + 1) & mask();
    while (full_[i]) {
      const std::size_t ideal = home(slots_[i].key);
      // Move i into the hole unless i sits in its own probe position range
      // (cyclically: ideal in (hole, i] means the entry is not displaced
      // past the hole).
      const std::size_t dist_hole = (i - hole) & mask();
      const std::size_t dist_ideal = (i - ideal) & mask();
      if (dist_ideal >= dist_hole) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
      i = (i + 1) & mask();
    }
    slots_[hole] = Slot{};
    full_[hole] = 0;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> full_;
  std::size_t size_ = 0;
};

/// FlatMap-backed integer set.
template <typename K>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void reserve(std::size_t n) { map_.reserve(n); }
  void clear() { map_.clear(); }
  bool contains(K key) const { return map_.contains(key); }
  bool insert(K key) { return map_.try_emplace(key).second; }
  bool erase(K key) { return map_.erase(key); }

  template <typename F>
  void for_each(F&& fn) {
    map_.for_each([&fn](K key, const Unit&) { fn(key); });
  }

 private:
  struct Unit {};
  FlatMap<K, Unit> map_;
};

}  // namespace drs::util
