// Sorted flat tables: a std::vector of (key, value) pairs kept in key
// order. They replace std::map on the streaming per-event path (the
// StreamingHistogram buckets and the OnlineCharacterizer user and group
// tables): a lookup is a binary search over contiguous pairs, and an
// insert shifts the tail, which is cheap at those tables' capped sizes.
// Iteration order is std::map's, and a table already has the snapshot
// layout, sorted (key, value) pairs, so a snapshot is a copy.
#pragma once

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace lumos::util {

template <class Key, class Value>
using SortedTable = std::vector<std::pair<Key, Value>>;

/// The entry for `key`; a value-initialised one is inserted in key order
/// when the key is absent.
template <class Key, class Value>
typename SortedTable<Key, Value>::iterator find_or_insert(
    SortedTable<Key, Value>& table, const std::type_identity_t<Key>& key) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const auto& entry, const Key& k) { return entry.first < k; });
  if (it != table.end() && it->first == key) return it;
  return table.emplace(it, key, Value{});
}

/// Two-way merge of `from` into `into`. A key on one side only keeps its
/// value; a key on both sides becomes combine(into_value, from_value),
/// which updates its first argument in place.
template <class Key, class Value, class Combine>
void merge_into(SortedTable<Key, Value>& into,
                const SortedTable<Key, Value>& from, Combine combine) {
  SortedTable<Key, Value> merged;
  merged.reserve(into.size() + from.size());
  auto a = into.begin();
  auto b = from.begin();
  while (a != into.end() && b != from.end()) {
    if (a->first < b->first) {
      merged.push_back(std::move(*a++));
    } else if (b->first < a->first) {
      merged.push_back(*b++);
    } else {
      combine(a->second, b->second);
      merged.push_back(std::move(*a++));
      ++b;
    }
  }
  merged.insert(merged.end(), std::make_move_iterator(a),
                std::make_move_iterator(into.end()));
  merged.insert(merged.end(), b, from.end());
  into = std::move(merged);
}

/// Sorts entries given in any order by key. Returns false when a key
/// repeats, so a restore can reject the table.
template <class Key, class Value>
[[nodiscard]] bool sort_unique_keys(SortedTable<Key, Value>& table) {
  std::sort(table.begin(), table.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return std::adjacent_find(table.begin(), table.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }) == table.end();
}

}  // namespace lumos::util
