// ScoredHeap: the per-memory-node priority queue of MultiPrio.
//
// A binary max-heap whose entries carry the two scores of the paper: the
// gain (affinity) score is the primary key, the criticality (NOD) score
// breaks ties, and insertion order breaks remaining ties (FIFO among equal
// tasks). Supports removal of arbitrary tasks (the eviction mechanism) via
// a position table, and non-destructive traversal of the best entries (the
// locality window of Section V-C).
//
// Per-task positions live in a dense table indexed by TaskId, grown on
// insert; a heap is guarded by its owner's lock (MultiPrio: the node's
// shard lock), which therefore also guards the table's growth and the scan
// buffer for_top() reuses.
#pragma once

#include <algorithm>
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
  /// Inserts a task; a task may appear at most once per heap.
  void insert(TaskId t, double gain, double prio);

  [[nodiscard]] bool contains(TaskId t) const {
    return t.index() < pos_.size() && pos_[t.index()] != kAbsent;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Highest-priority entry, if any.
  [[nodiscard]] std::optional<HeapEntry> top() const;

  /// Removes the top entry. Requires non-empty.
  void pop_top();

  /// Removes an arbitrary task (the eviction mechanism). Requires presence.
  void remove(TaskId t);

  /// Drops every entry (used when a memory node leaves the platform). The
  /// insertion counter survives so FIFO tiebreaks stay globally consistent.
  void clear() {
    for (const HeapEntry& e : entries_) pos_[e.task.index()] = kAbsent;
    entries_.clear();
  }

  /// Visits entries in exact non-increasing priority order, without mutating
  /// the heap, until `fn` returns false, `limit` entries were visited or the
  /// heap is exhausted. fn: bool(const HeapEntry&); it must not traverse this
  /// heap itself (the traversal state is one buffer per heap, reused across
  /// calls).
  template <typename F>
  void for_top(F&& fn, std::size_t limit = SIZE_MAX) const {
    if (entries_.empty() || limit == 0) return;
    // Aux max-heap of indices into entries_, seeded with the root; popping
    // index i exposes children 2i+1 / 2i+2 — yields exact sorted order.
    std::vector<std::size_t>& aux = scan_;
    aux.clear();
    aux.push_back(0);
    auto less = [this](std::size_t a, std::size_t b) {
      return entries_[b].before(entries_[a]);  // max-heap via std::push_heap
    };
    while (!aux.empty()) {
      std::pop_heap(aux.begin(), aux.end(), less);
      const std::size_t i = aux.back();
      aux.pop_back();
      if (!fn(entries_[i]) || --limit == 0) return;
      for (std::size_t c : {2 * i + 1, 2 * i + 2}) {
        if (c < entries_.size()) {
          aux.push_back(c);
          std::push_heap(aux.begin(), aux.end(), less);
        }
      }
    }
  }

  /// Verifies the heap property and position-table consistency (tests only).
  [[nodiscard]] bool validate() const;

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(std::size_t i, const HeapEntry& e);

  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  std::vector<HeapEntry> entries_;
  std::vector<std::uint32_t> pos_;  ///< per TaskId: index into entries_, or kAbsent
  mutable std::vector<std::size_t> scan_;  ///< for_top()'s aux heap
  std::uint64_t next_seq_ = 0;
};

}  // namespace mp
