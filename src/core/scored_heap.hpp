// ScoredHeap: the per-memory-node priority queue of MultiPrio.
//
// Entries carry the two scores of the paper: the gain (affinity) score is
// the primary key, the criticality (NOD) score breaks ties, and insertion
// order breaks remaining ties (FIFO among equal tasks), so the order is a
// strict total order. Supports removal of arbitrary tasks (the eviction
// mechanism) via a position table, and non-destructive traversal of the
// best entries (the locality window of Section V-C).
//
// Layout: the best kFront entries sit sorted in a front array, the rest in
// a binary max-heap. Every front entry precedes every heap entry, and the
// front is full whenever the heap is non-empty; so top() is the first front
// entry and a window of up to kFront entries is one linear walk. Both parts
// follow the same total order, so every traversal visits exactly the
// sequence a single binary heap would.
//
// The position table is sized once, for ids below the capacity the heap is
// built with (MultiPrio passes the graph's task count). A heap is guarded
// by its owner's lock (MultiPrio: the node's shard lock), which therefore
// also guards the scan buffer for_top() reuses.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.hpp"

namespace mp {

struct HeapEntry {
  TaskId task;
  double gain = 0.0;  // primary key  (score_gain, Section V-A)
  double prio = 0.0;  // tiebreaker   (score_criticality, Section V-B)
  std::uint64_t seq = 0;

  /// Max-heap "greater priority" ordering.
  [[nodiscard]] bool before(const HeapEntry& o) const {
    if (gain != o.gain) return gain > o.gain;
    if (prio != o.prio) return prio > o.prio;
    return seq < o.seq;
  }
};

class ScoredHeap {
 public:
  /// Length of the sorted front: at least the paper's locality window
  /// (n = 10), so a window of that size never reaches the binary heap.
  static constexpr std::size_t kFront = 16;

  /// A heap for task ids below `id_capacity`.
  explicit ScoredHeap(std::size_t id_capacity = 0);

  /// Inserts a task; a task may appear at most once per heap.
  void insert(TaskId t, double gain, double prio);

  [[nodiscard]] bool contains(TaskId t) const {
    return t.index() < pos_.size() && pos_[t.index()] != kAbsent;
  }
  [[nodiscard]] std::size_t size() const { return front_size_ + heap_.size(); }
  [[nodiscard]] bool empty() const { return front_size_ == 0; }

  /// Highest-priority entry, if any.
  [[nodiscard]] std::optional<HeapEntry> top() const {
    if (front_size_ == 0) return std::nullopt;
    return front_[0];
  }

  /// Removes the top entry. Requires non-empty.
  void pop_top();

  /// Removes an arbitrary task (the eviction mechanism). Requires presence.
  void remove(TaskId t);

  /// Drops every entry (used when a memory node leaves the platform). The
  /// insertion counter survives so FIFO tiebreaks stay globally consistent.
  void clear() {
    for (std::size_t i = 0; i < front_size_; ++i) pos_[front_[i].task.index()] = kAbsent;
    for (const HeapEntry& e : heap_) pos_[e.task.index()] = kAbsent;
    front_size_ = 0;
    heap_.clear();
  }

  /// Visits entries in exact non-increasing priority order, without mutating
  /// the heap, until `fn` returns false, `limit` entries were visited or the
  /// heap is exhausted. fn: bool(const HeapEntry&); it must not traverse this
  /// heap itself (the traversal state is one buffer per heap, reused across
  /// calls).
  template <typename F>
  void for_top(F&& fn, std::size_t limit = SIZE_MAX) const {
    const std::size_t n = std::min(limit, front_size_);
    for (std::size_t i = 0; i < n; ++i)
      if (!fn(front_[i])) return;
    if (n == limit || heap_.empty()) return;
    limit -= n;
    // Past the front: an aux max-heap of indices into heap_, seeded with the
    // root; popping index i exposes children 2i+1 / 2i+2 — exact sorted order.
    std::vector<std::size_t>& aux = scan_;
    aux.clear();
    aux.push_back(0);
    auto less = [this](std::size_t a, std::size_t b) {
      return heap_[b].before(heap_[a]);  // max-heap via std::push_heap
    };
    while (!aux.empty()) {
      std::pop_heap(aux.begin(), aux.end(), less);
      const std::size_t i = aux.back();
      aux.pop_back();
      if (!fn(heap_[i]) || --limit == 0) return;
      for (std::size_t c : {2 * i + 1, 2 * i + 2}) {
        if (c < heap_.size()) {
          aux.push_back(c);
          std::push_heap(aux.begin(), aux.end(), less);
        }
      }
    }
  }

  /// Verifies the front's order, the heap property, the front/heap boundary
  /// and position-table consistency (tests and check_invariants only).
  [[nodiscard]] bool validate() const;

 private:
  void heap_push(const HeapEntry& e);
  void heap_erase(std::size_t i);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place_front(std::size_t i, const HeapEntry& e);
  void place_heap(std::size_t i, const HeapEntry& e);

  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  std::array<HeapEntry, kFront> front_{};  ///< sorted, best first
  std::size_t front_size_ = 0;
  std::vector<HeapEntry> heap_;  ///< binary max-heap of the rest
  /// Per TaskId: a front slot (< kFront), kFront + an index into heap_, or
  /// kAbsent.
  std::vector<std::uint32_t> pos_;
  mutable std::vector<std::size_t> scan_;  ///< for_top()'s aux heap
  std::uint64_t next_seq_ = 0;
};

}  // namespace mp
