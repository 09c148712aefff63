// ScoredHeap: the per-memory-node priority queue of MultiPrio.
//
// Entries carry the two scores of the paper: the gain (affinity) score is
// the primary key, the criticality (NOD) score breaks ties, and insertion
// order breaks remaining ties (FIFO among equal tasks), so the order is a
// strict total order. Supports removal of arbitrary tasks (the eviction
// mechanism) via a position table, and non-destructive traversal of the
// best entries (the locality window of Section V-C).
//
// Layout: the best entries sit sorted in a front array, the rest in a
// binary max-heap. The front is sized once, at construction, to cover the
// longest window its owner reads (at least kMinFront entries). Every front
// entry precedes every heap entry, and the front is full whenever the heap is
// non-empty; so top() is the first front entry and a window is a prefix of
// front(). Both parts follow the same total order, so the front holds exactly
// the entries a single binary heap would yield first.
//
// The position table is sized once, for ids below the capacity the heap is
// built with (MultiPrio passes the graph's task count). A heap is guarded
// by its owner's lock (MultiPrio: the node's shard lock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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
  /// Shortest sorted front: at least the paper's locality window (n = 10).
  /// A shorter front lets small heaps spill into the binary heap and back.
  static constexpr std::size_t kMinFront = 16;

  /// A heap for task ids below `id_capacity` whose front holds the best
  /// max(kMinFront, window) entries.
  explicit ScoredHeap(std::size_t id_capacity = 0, std::size_t window = kMinFront);

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

  /// The sorted front, best first: the first min(size(), front capacity)
  /// entries in priority order. Invalidated by any mutation.
  [[nodiscard]] std::span<const HeapEntry> front() const {
    return {front_.data(), front_size_};
  }

  /// Visits every entry once, in no particular order (audits).
  /// fn: void(const HeapEntry&).
  template <typename F>
  void for_each(F&& fn) const {
    for (const HeapEntry& e : front()) fn(e);
    for (const HeapEntry& e : heap_) fn(e);
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

  std::vector<HeapEntry> front_;  ///< sorted, best first; sized once
  std::size_t front_size_ = 0;
  std::vector<HeapEntry> heap_;  ///< binary max-heap of the rest
  /// Per TaskId: a front slot (< front_.size()), front_.size() + an index
  /// into heap_, or kAbsent.
  std::vector<std::uint32_t> pos_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mp
