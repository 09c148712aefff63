#include "core/scored_heap.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "verify/sync.hpp"

namespace mp {

void ScoredHeap::insert(TaskId t, double gain, double prio) {
  verify_point("scored_heap.insert", this);
  MP_CHECK_MSG(!contains(t), "task already in this heap");
  MP_CHECK_MSG(t.valid() && entries_.size() < kAbsent, "task id or heap size out of range");
  if (t.index() >= pos_.size())
    pos_.resize(std::max(t.index() + 1, 2 * pos_.size()), kAbsent);
  entries_.push_back(HeapEntry{t, gain, prio, next_seq_++});
  pos_[t.index()] = static_cast<std::uint32_t>(entries_.size() - 1);
  sift_up(entries_.size() - 1);
}

std::optional<HeapEntry> ScoredHeap::top() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.front();
}

void ScoredHeap::pop_top() {
  MP_CHECK(!entries_.empty());
  remove(entries_.front().task);
}

void ScoredHeap::remove(TaskId t) {
  verify_point("scored_heap.remove", this);
  MP_CHECK_MSG(contains(t), "removing a task not in the heap");
  const std::size_t i = pos_[t.index()];
  pos_[t.index()] = kAbsent;
  const std::size_t last = entries_.size() - 1;
  if (i != last) {
    const HeapEntry moved = entries_[last];
    const TaskId moved_task = moved.task;
    entries_.pop_back();
    place(i, moved);
    // The moved entry may need to go either direction; sift_up leaves every
    // displaced ancestor dominating its new subtree, so following with a
    // sift_down at the entry's final position is always safe.
    sift_up(i);
    sift_down(pos_[moved_task.index()]);
  } else {
    entries_.pop_back();
  }
}

void ScoredHeap::place(std::size_t i, const HeapEntry& e) {
  pos_[e.task.index()] = static_cast<std::uint32_t>(i);
  entries_[i] = e;
}

// Both sifts move a hole instead of swapping: the same final arrangement as
// pairwise swaps, with one entry copy and one position write per level.
void ScoredHeap::sift_up(std::size_t i) {
  const HeapEntry e = entries_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!e.before(entries_[parent])) break;
    place(i, entries_[parent]);
    i = parent;
  }
  place(i, e);
}

void ScoredHeap::sift_down(std::size_t i) {
  const std::size_t n = entries_.size();
  const HeapEntry e = entries_[i];
  while (true) {
    std::size_t best = i;
    const HeapEntry* best_entry = &e;
    for (std::size_t c : {2 * i + 1, 2 * i + 2}) {
      if (c < n && entries_[c].before(*best_entry)) {
        best = c;
        best_entry = &entries_[c];
      }
    }
    if (best == i) break;
    place(i, entries_[best]);
    i = best;
  }
  place(i, e);
}

bool ScoredHeap::validate() const {
  const auto present = static_cast<std::size_t>(
      std::count_if(pos_.begin(), pos_.end(), [](std::uint32_t p) { return p != kAbsent; }));
  if (present != entries_.size()) return false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const TaskId t = entries_[i].task;
    if (!contains(t) || pos_[t.index()] != i) return false;
    for (std::size_t c : {2 * i + 1, 2 * i + 2})
      if (c < entries_.size() && entries_[c].before(entries_[i])) return false;
  }
  return true;
}

}  // namespace mp
