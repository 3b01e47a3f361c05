// LruCache: a bounded least-recently-used map with lifetime counters.
//
// Generalizes the BatchEngine canonical-form cache (engine/batch.hpp) so a
// long-lived process (the serving layer, long corpus sweeps) cannot grow
// without bound: the cache holds at most `capacity` entries and evicts the
// least recently *found or inserted* entry first. find() refreshes recency,
// so steady-state repeated traffic keeps its working set resident.
//
// All operations are O(1) expected (hash map + intrusive recency list).
// Not thread-safe: one cache per shard/thread, or external locking.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace msrs {

// Lifetime counters of one LruCache (monotone except `entries`).
struct LruStats {
  std::size_t hits = 0;        // find() calls that returned an entry
  std::size_t misses = 0;      // find() calls that returned nullptr
  std::size_t insertions = 0;  // insert() calls that added a new entry
  std::size_t evictions = 0;   // entries dropped to respect the capacity
  std::size_t entries = 0;     // resident entries right now
  std::size_t capacity = 0;    // configured bound (0 = unbounded)
};

// Bounded LRU map. `Hash`/`Eq` follow the std::unordered_map contract (the
// engine's keys are canonical shapes, hashed by their precomputed key —
// see engine/batch.hpp).
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class LruCache {
 public:
  using Entry = std::pair<Key, Value>;

  // A cache bounded to `capacity` entries; 0 means unbounded (the caller
  // explicitly opts back into the historical grow-forever behavior).
  explicit LruCache(std::size_t capacity = 0) { stats_.capacity = capacity; }

  // Looks `key` up; a hit refreshes its recency and returns the resident
  // entry (key + value). nullptr on miss. The returned pointer is valid
  // until the entry is evicted or overwritten.
  const Entry* find(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    order_.splice(order_.begin(), order_, it->second);
    return &*it->second;
  }

  // Inserts `key -> value` (overwriting any equivalent resident entry) as
  // the most recent entry, then evicts from the cold end until the
  // capacity bound holds again.
  void insert(Key key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(std::cref(order_.front().first), order_.begin());
    ++stats_.insertions;
    ++stats_.entries;
    while (stats_.capacity != 0 && order_.size() > stats_.capacity) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++stats_.evictions;
      --stats_.entries;
    }
  }

  // Drops every entry; counters other than `entries` are preserved.
  void clear() {
    index_.clear();
    order_.clear();
    stats_.entries = 0;
  }

  std::size_t size() const { return order_.size(); }          // resident
  std::size_t capacity() const { return stats_.capacity; }    // bound
  const LruStats& stats() const { return stats_; }            // counters

 private:
  // The index references the keys stored in `order_` (std::list iterators
  // and element addresses are stable under splice/erase of other nodes).
  using KeyRef = std::reference_wrapper<const Key>;
  struct RefHash {
    Hash hash;
    std::size_t operator()(const KeyRef& k) const { return hash(k.get()); }
  };
  struct RefEq {
    Eq eq;
    bool operator()(const KeyRef& a, const KeyRef& b) const {
      return eq(a.get(), b.get());
    }
  };

  std::list<Entry> order_;  // front = most recent
  std::unordered_map<KeyRef, typename std::list<Entry>::iterator, RefHash,
                     RefEq>
      index_;
  LruStats stats_;
};

}  // namespace msrs
