// Sorted insert into a consumption ring: a vector whose prefix [0, head) is
// consumed (its owner drops it in bulk) and whose live part [head, end) stays
// sorted. The probe scheduler's two rings and the backplane's delivery ring
// share it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace drs::util {

/// Adds `item` to `ring`'s live part [head, end), kept sorted by `before`:
/// an append in the common case, else an insert at its upper bound, so an
/// item that ties earlier ones goes after them. Returns the item's index
/// (`head` when it is the new earliest).
template <class T, class Item, class Before>
std::size_t insert_sorted(std::vector<T>& ring, std::size_t head, Item&& item,
                          Before before) {
  if (head == ring.size() || !before(item, ring.back())) {
    // drs-lint: hotpath-purity-ok(amortized: a ring grows to its steady size once, then reuses it)
    ring.push_back(std::forward<Item>(item));
    return ring.size() - 1;
  }
  const auto at =
      std::upper_bound(ring.begin() + static_cast<std::ptrdiff_t>(head),
                       ring.end(), item, before);
  // drs-lint: hotpath-purity-ok(amortized: a ring grows to its steady size once, then reuses it)
  const auto placed = ring.insert(at, std::forward<Item>(item));  // may reallocate
  return static_cast<std::size_t>(placed - ring.begin());
}

}  // namespace drs::util
