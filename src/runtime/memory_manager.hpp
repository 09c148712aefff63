// MemoryManager: MSI data coherence over memory nodes, with device-memory
// capacity tracking and LRU eviction — the data-management half of StarPU
// that schedulers interact with (data locality queries, prefetch,
// transfer-volume accounting).
//
// State-change semantics are commit-at-start: when the engine decides a task
// (or a prefetch) will fetch data to a node, the coherence state is updated
// immediately and the returned TransferOps carry the byte counts the engine
// must charge to the link timeline. STF dependencies guarantee no
// conflicting accesses overlap, so no in-flight states are needed.
//
// The manager is built from a finished graph: its per-handle tables are
// sized once in the constructor and never reallocate, so the lock-free
// scheduler queries index them directly. A handle registered after
// construction trips an always-on check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "runtime/platform.hpp"
#include "runtime/task_graph.hpp"
#include "verify/sync.hpp"

namespace mp {

/// One data movement the engine must account for on the link timeline.
struct TransferOp {
  DataId data;
  MemNodeId from;
  MemNodeId to;
  std::size_t bytes = 0;
  /// True when this is a capacity-eviction writeback rather than a fetch.
  bool writeback = false;
};

class MemoryManager {
 public:
  MemoryManager(const TaskGraph& graph, const Platform& platform);

  /// Makes every access of `t` valid on `node` (fetching missing copies,
  /// invalidating remote copies for writes), evicting LRU data if the node
  /// is capacity-limited. Appends the required movements to `ops`.
  void acquire_for_task(TaskId t, MemNodeId node, std::vector<TransferOp>& ops);

  /// Fetches a read-only copy of `d` onto `node` ahead of time (Dmdas-style
  /// prefetch). No-op if already valid there or if eviction cannot make room.
  void prefetch(DataId d, MemNodeId node, std::vector<TransferOp>& ops);

  /// Pin/unpin the accesses of a running task so eviction skips them.
  void pin_task_data(TaskId t, MemNodeId node);
  void unpin_task_data(TaskId t, MemNodeId node);

  /// Graceful device retirement (fail-stop loss of a node's last worker):
  /// writes every sole authoritative copy held on `node` back to RAM and
  /// drops all of the node's copies, appending the writeback movements to
  /// `ops`. The caller must have unpinned everything on the node first.
  void evacuate_node(MemNodeId node, std::vector<TransferOp>& ops);

  // --- queries used by schedulers ----------------------------------------

  /// Lock-free: schedulers call it from their POP path.
  [[nodiscard]] bool is_valid_on(DataId d, MemNodeId node) const {
    return (state(d).valid.load() & (std::uint64_t{1} << node.index())) != 0;
  }

  /// Bytes of `t`'s accesses *not* yet valid on `node` — the demand-fetch
  /// volume a scheduler should expect (Dmda's transfer-cost term).
  [[nodiscard]] std::size_t bytes_missing(TaskId t, MemNodeId node) const;

  /// Estimated wire time to satisfy `t` on `node` given current placement.
  [[nodiscard]] double estimated_transfer_time(TaskId t, MemNodeId node) const;

  // --- statistics ----------------------------------------------------------

  [[nodiscard]] std::size_t total_bytes_to(MemNodeId node) const;
  [[nodiscard]] std::size_t total_bytes_from(MemNodeId node) const;
  [[nodiscard]] std::size_t used_bytes(MemNodeId node) const;
  /// Number of times an allocation had to exceed the node capacity because
  /// everything resident was pinned (should stay 0 in healthy runs).
  [[nodiscard]] std::size_t capacity_overflows() const { return capacity_overflows_; }
  [[nodiscard]] std::size_t eviction_count() const { return eviction_count_; }

 private:
  struct DataState {
    /// Validity bitmask, bit = node index (the platform is capped at 64
    /// memory nodes). Relaxed-atomic because internally-locked schedulers
    /// read locality (is_valid_on via LS_SDH²) from their POP path while the
    /// engine commits placement changes under its own lock; a locality score
    /// judged one transfer stale is an acceptable heuristic error.
    RelaxedAtomic<std::uint64_t> valid;
    bool dirty = false;       // some node holds a newer copy than home
    MemNodeId owner;          // node holding the authoritative copy if dirty
  };

  /// Intrusive doubly linked list of the handles resident on one node,
  /// front = least recently used; the links are dense arrays indexed by
  /// DataId, so a touch is O(1) with no allocation or hashing.
  class LruList {
   public:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /// Holds handle ids below `handles`.
    explicit LruList(std::size_t handles) : link_(handles) {}
    [[nodiscard]] bool contains(DataId d) const { return link_[d.index()].listed; }
    [[nodiscard]] std::uint32_t front() const { return head_; }
    [[nodiscard]] std::uint32_t next(std::uint32_t d) const { return link_[d].next; }
    /// Appends `d` as the most recently used (it must not be listed).
    void push_back(DataId d);
    /// Unlinks `d` (it must be listed).
    void erase(DataId d);

   private:
    struct Link {
      std::uint32_t prev = kNil;
      std::uint32_t next = kNil;
      bool listed = false;
    };
    std::vector<Link> link_;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
  };

  struct NodeState {
    NodeState(std::size_t handles, std::size_t capacity_bytes)
        : capacity(capacity_bytes), lru(handles), pins(handles, 0) {}
    std::size_t capacity = 0;  // 0 = unlimited
    std::size_t used = 0;
    LruList lru;
    std::vector<std::uint32_t> pins;  // per handle: running tasks pinning it here
    std::size_t bytes_in = 0;
    std::size_t bytes_out = 0;
  };

  /// Trips the always-on check for a handle the graph registered after
  /// this manager was built.
  void check_handle(DataId d) const {
    MP_CHECK_MSG(d.index() < states_.size(),
                 "data handle registered after the MemoryManager was built");
  }
  [[nodiscard]] const DataState& state(DataId d) const {
    check_handle(d);
    return states_[d.index()];
  }
  [[nodiscard]] DataState& state(DataId d) {
    check_handle(d);
    return states_[d.index()];
  }

  void make_resident(DataId d, MemNodeId node, std::vector<TransferOp>& ops);
  void touch(DataId d, MemNodeId node);
  void drop_copy(DataId d, MemNodeId node);
  /// Frees at least `need` bytes on `node` by LRU eviction; returns false if
  /// pinned data prevented it.
  bool evict_until_fits(std::size_t need, MemNodeId node, std::vector<TransferOp>& ops);
  /// Preferred source node among the copies of a validity mask.
  [[nodiscard]] MemNodeId any_valid_node(std::uint64_t valid_mask) const;

  const TaskGraph& graph_;
  const Platform& platform_;
  std::vector<DataState> states_;  // per handle; sized once, never reallocated
  std::vector<NodeState> nodes_;   // LRU links and pins: mutators only
  std::size_t capacity_overflows_ = 0;
  std::size_t eviction_count_ = 0;
};

}  // namespace mp
