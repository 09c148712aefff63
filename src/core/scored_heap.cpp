#include "core/scored_heap.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "verify/sync.hpp"

namespace mp {

ScoredHeap::ScoredHeap(std::size_t id_capacity, std::size_t window) {
  // Every position, front slot or front length + heap index, must stay below
  // kAbsent; checked before anything is allocated.
  const std::size_t front_len = std::max(kMinFront, window);
  MP_CHECK_MSG(id_capacity < kAbsent && front_len <= kAbsent - id_capacity,
               "heap id capacity or window out of range");
  front_.resize(front_len);
  pos_.assign(id_capacity, kAbsent);
}

void ScoredHeap::insert(TaskId t, double gain, double prio) {
  verify_point("scored_heap.insert", this);
  MP_CHECK_MSG(t.index() < pos_.size(), "task id at or past the heap's id capacity");
  MP_CHECK_MSG(pos_[t.index()] == kAbsent, "task already in this heap");
  const HeapEntry e{t, gain, prio, next_seq_++};
  if (front_size_ == front_.size()) {
    if (!e.before(front_.back())) {
      heap_push(e);
      return;
    }
    // e displaces the front's last entry, which now leads the heap.
    heap_push(front_[--front_size_]);
  }
  std::size_t i = front_size_++;
  for (; i > 0 && e.before(front_[i - 1]); --i) place_front(i, front_[i - 1]);
  place_front(i, e);
}

void ScoredHeap::pop_top() {
  MP_CHECK(front_size_ > 0);
  remove(front_[0].task);
}

void ScoredHeap::remove(TaskId t) {
  verify_point("scored_heap.remove", this);
  MP_CHECK_MSG(contains(t), "removing a task not in the heap");
  const std::size_t p = pos_[t.index()];
  pos_[t.index()] = kAbsent;
  if (p >= front_.size()) {
    heap_erase(p - front_.size());
    return;
  }
  // Close the gap in the front, then refill its last slot from the heap root.
  for (std::size_t i = p + 1; i < front_size_; ++i) place_front(i - 1, front_[i]);
  --front_size_;
  if (!heap_.empty()) {
    place_front(front_size_++, heap_[0]);
    heap_erase(0);
  }
}

void ScoredHeap::place_front(std::size_t i, const HeapEntry& e) {
  pos_[e.task.index()] = static_cast<std::uint32_t>(i);
  front_[i] = e;
}

void ScoredHeap::place_heap(std::size_t i, const HeapEntry& e) {
  pos_[e.task.index()] = static_cast<std::uint32_t>(front_.size() + i);
  heap_[i] = e;
}

void ScoredHeap::heap_push(const HeapEntry& e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

// Drops heap_[i] without touching its position entry (the caller has
// retagged or cleared it) and fills the hole with the last entry.
void ScoredHeap::heap_erase(std::size_t i) {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place_heap(i, moved);
  // The moved entry goes up or down, never both: if it rises past its new
  // parent, every entry below its final slot already follows it.
  if (i > 0 && moved.before(heap_[(i - 1) / 2]))
    sift_up(i);
  else
    sift_down(i);
}

// Both sifts move a hole instead of swapping: the same final arrangement as
// pairwise swaps, with one entry copy and one position write per level.
void ScoredHeap::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!e.before(heap_[parent])) break;
    place_heap(i, heap_[parent]);
    i = parent;
  }
  place_heap(i, e);
}

// Bottom-up: sink the hole along the better child all the way to a leaf (one
// compare per level), then lift the entry back up, never above its start
// slot. The entry came from the back of the heap and belongs near the
// bottom, so the lift is short and the sink saves a compare per level.
// (heap_erase sifts down only an entry that does not precede the start
// slot's parent, so the bound never cuts a lift short.) The order is strict
// and total: the result is a valid heap like the top-down one's, and which
// valid heap it is cannot be observed.
void ScoredHeap::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const std::size_t start = i;
  const HeapEntry e = heap_[i];
  for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && heap_[c + 1].before(heap_[c])) ++c;
    place_heap(i, heap_[c]);
    i = c;
  }
  while (i > start) {
    const std::size_t parent = (i - 1) / 2;
    if (!e.before(heap_[parent])) break;
    place_heap(i, heap_[parent]);
    i = parent;
  }
  place_heap(i, e);
}

bool ScoredHeap::validate() const {
  const auto present = static_cast<std::size_t>(
      std::count_if(pos_.begin(), pos_.end(), [](std::uint32_t p) { return p != kAbsent; }));
  if (present != size() || front_size_ > front_.size()) return false;
  // The front is sorted, full while the heap holds anything, and its last
  // entry precedes the heap root.
  if (!heap_.empty() &&
      (front_size_ != front_.size() || !front_.back().before(heap_[0])))
    return false;
  for (std::size_t i = 0; i < front_size_; ++i) {
    if (!contains(front_[i].task) || pos_[front_[i].task.index()] != i) return false;
    if (i > 0 && !front_[i - 1].before(front_[i])) return false;
  }
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const TaskId t = heap_[i].task;
    if (!contains(t) || pos_[t.index()] != front_.size() + i) return false;
    for (std::size_t c : {2 * i + 1, 2 * i + 2})
      if (c < heap_.size() && heap_[c].before(heap_[i])) return false;
  }
  return true;
}

}  // namespace mp
