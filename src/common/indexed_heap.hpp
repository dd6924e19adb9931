// Indexed binary max-heap: a priority queue over item ids 0..n-1 with
// O(log n) insert / remove / adjust and O(1) top.
//
// FM's gain queue. Classic FM uses gain buckets, but the repartitioning
// model scales net costs by alpha (up to 1000), so gains can span millions
// and bucket arrays would dwarf the hypergraph; the heap's cost does not
// depend on the gain range.
#pragma once

#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace hgr {

class IndexedMaxHeap {
 public:
  explicit IndexedMaxHeap(Index num_items)
      : pos_(static_cast<std::size_t>(num_items), kInvalidIndex),
        key_(static_cast<std::size_t>(num_items), 0) {}

  bool empty() const { return heap_.empty(); }
  Index size() const { return static_cast<Index>(heap_.size()); }
  bool contains(Index item) const {
    return pos_[static_cast<std::size_t>(item)] != kInvalidIndex;
  }
  Weight key(Index item) const {
    HGR_DASSERT(contains(item));
    return key_[static_cast<std::size_t>(item)];
  }

  void insert(Index item, Weight key) {
    HGR_DASSERT(!contains(item));
    key_[static_cast<std::size_t>(item)] = key;
    pos_[static_cast<std::size_t>(item)] = static_cast<Index>(heap_.size());
    heap_.push_back(item);
    sift_up(static_cast<Index>(heap_.size()) - 1);
  }

  void remove(Index item) {
    HGR_DASSERT(contains(item));
    const Index hole = pos_[static_cast<std::size_t>(item)];
    const Index last = static_cast<Index>(heap_.size()) - 1;
    if (hole != last) {
      move_to(heap_[static_cast<std::size_t>(last)], hole);
      heap_.pop_back();
      if (!sift_up(hole)) sift_down(hole);
    } else {
      heap_.pop_back();
    }
    pos_[static_cast<std::size_t>(item)] = kInvalidIndex;
  }

  void adjust(Index item, Weight new_key) {
    HGR_DASSERT(contains(item));
    const Weight old_key = key_[static_cast<std::size_t>(item)];
    if (old_key == new_key) return;
    key_[static_cast<std::size_t>(item)] = new_key;
    const Index at = pos_[static_cast<std::size_t>(item)];
    if (new_key > old_key) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }

  void insert_or_adjust(Index item, Weight key) {
    if (contains(item)) {
      adjust(item, key);
    } else {
      insert(item, key);
    }
  }

  Index top() const {
    HGR_DASSERT(!empty());
    return heap_.front();
  }

  Weight top_key() const {
    HGR_DASSERT(!empty());
    return key_[static_cast<std::size_t>(heap_.front())];
  }

  Index pop() {
    const Index item = top();
    remove(item);
    return item;
  }

  void clear() {
    for (const Index item : heap_)
      pos_[static_cast<std::size_t>(item)] = kInvalidIndex;
    heap_.clear();
  }

 private:
  void move_to(Index item, Index slot) {
    heap_[static_cast<std::size_t>(slot)] = item;
    pos_[static_cast<std::size_t>(item)] = slot;
  }

  Weight key_at(Index slot) const {
    return key_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(slot)])];
  }

  /// Returns true if the element moved.
  bool sift_up(Index at) {
    if (at >= static_cast<Index>(heap_.size())) return false;
    const Index item = heap_[static_cast<std::size_t>(at)];
    const Weight k = key_[static_cast<std::size_t>(item)];
    bool moved = false;
    while (at > 0) {
      const Index parent = (at - 1) / 2;
      if (key_at(parent) >= k) break;
      move_to(heap_[static_cast<std::size_t>(parent)], at);
      at = parent;
      moved = true;
    }
    if (moved) move_to(item, at);
    return moved;
  }

  void sift_down(Index at) {
    if (at >= static_cast<Index>(heap_.size())) return;
    const Index n = static_cast<Index>(heap_.size());
    const Index item = heap_[static_cast<std::size_t>(at)];
    const Weight k = key_[static_cast<std::size_t>(item)];
    bool moved = false;
    while (true) {
      Index child = 2 * at + 1;
      if (child >= n) break;
      if (child + 1 < n && key_at(child + 1) > key_at(child)) ++child;
      if (key_at(child) <= k) break;
      move_to(heap_[static_cast<std::size_t>(child)], at);
      at = child;
      moved = true;
    }
    if (moved) move_to(item, at);
  }

  std::vector<Index> heap_;  // slot -> item
  std::vector<Index> pos_;   // item -> slot or kInvalidIndex
  std::vector<Weight> key_;  // item -> key
};

}  // namespace hgr
