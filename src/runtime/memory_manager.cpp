#include "runtime/memory_manager.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mp {

namespace {
[[nodiscard]] std::uint64_t nbit(MemNodeId m) { return std::uint64_t{1} << m.index(); }
[[nodiscard]] std::uint64_t nbit(std::size_t i) { return std::uint64_t{1} << i; }
}  // namespace

MemoryManager::MemoryManager(const TaskGraph& graph, const Platform& platform)
    : graph_(graph), platform_(platform), states_(graph.handles().count()) {
  const std::size_t n_nodes = platform.num_nodes();
  MP_CHECK_MSG(n_nodes <= 64, "DataState::valid is a uint64 bitmask (max 64 memory nodes)");
  nodes_.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i)
    nodes_.emplace_back(states_.size(), platform.node(MemNodeId{i}).capacity_bytes);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const DataId id{i};
    const DataHandle& h = graph_.handles().get(id);
    states_[i].valid.store(nbit(h.home));
    states_[i].owner = h.home;
    // Home copies consume space on their node (matters only for GPU-homed
    // data, which is unusual; RAM is unlimited).
    NodeState& ns = nodes_[h.home.index()];
    ns.lru.push_back(id);
    ns.used += h.bytes;
  }
}

std::size_t MemoryManager::bytes_missing(TaskId t, MemNodeId node) const {
  std::size_t missing = 0;
  for (const Access& a : graph_.task(t).accesses) {
    if (!is_valid_on(a.data, node)) missing += graph_.handles().get(a.data).bytes;
  }
  return missing;
}

double MemoryManager::estimated_transfer_time(TaskId t, MemNodeId node) const {
  double time = 0.0;
  for (const Access& a : graph_.task(t).accesses) {
    const std::uint64_t mask = state(a.data).valid.load();
    if ((mask & nbit(node)) != 0) continue;
    const MemNodeId src = any_valid_node(mask);
    time += platform_.transfer_time(graph_.handles().get(a.data).bytes, src, node);
  }
  return time;
}

MemNodeId MemoryManager::any_valid_node(std::uint64_t mask) const {
  // Prefer RAM as the source (cheapest single hop), else the first valid node.
  if ((mask & nbit(platform_.ram_node())) != 0) return platform_.ram_node();
  for (std::size_t i = 0; i < platform_.num_nodes(); ++i)
    if ((mask & nbit(i)) != 0) return MemNodeId{i};
  MP_CHECK_MSG(false, "data handle has no valid copy anywhere");
  return MemNodeId{};
}

void MemoryManager::LruList::push_back(DataId d) {
  Link& l = link_[d.index()];
  MP_ASSERT(!l.listed);
  l = Link{tail_, kNil, true};
  if (tail_ != kNil) {
    link_[tail_].next = d.value();
  } else {
    head_ = d.value();
  }
  tail_ = d.value();
}

void MemoryManager::LruList::erase(DataId d) {
  Link& l = link_[d.index()];
  MP_ASSERT(l.listed);
  (l.prev != kNil ? link_[l.prev].next : head_) = l.next;
  (l.next != kNil ? link_[l.next].prev : tail_) = l.prev;
  l = Link{};
}

void MemoryManager::touch(DataId d, MemNodeId node) {
  LruList& lru = nodes_[node.index()].lru;
  if (lru.contains(d)) lru.erase(d);
  lru.push_back(d);
}

void MemoryManager::drop_copy(DataId d, MemNodeId node) {
  NodeState& ns = nodes_[node.index()];
  if (!ns.lru.contains(d)) return;
  ns.lru.erase(d);
  const std::size_t bytes = graph_.handles().get(d).bytes;
  MP_ASSERT(ns.used >= bytes);
  ns.used -= bytes;
  state(d).valid.fetch_and(~nbit(node));
}

bool MemoryManager::evict_until_fits(std::size_t need, MemNodeId node,
                                     std::vector<TransferOp>& ops) {
  NodeState& ns = nodes_[node.index()];
  if (ns.capacity == 0) return true;  // unlimited
  std::uint32_t cur = ns.lru.front();
  while (ns.used + need > ns.capacity && cur != LruList::kNil) {
    const DataId victim{cur};
    cur = ns.lru.next(cur);  // before drop_copy unlinks the victim
    if (ns.pins[victim.index()] > 0) continue;
    DataState& ds = state(victim);
    const std::size_t bytes = graph_.handles().get(victim).bytes;
    const bool only_copy_here = ds.valid.load() == nbit(node);
    if (only_copy_here) {
      // Write the authoritative copy back to RAM before dropping it.
      const MemNodeId ram = platform_.ram_node();
      ops.push_back(TransferOp{victim, node, ram, bytes, true});
      ns.bytes_out += bytes;
      nodes_[ram.index()].bytes_in += bytes;
      ds.valid.fetch_or(nbit(ram));
      touch(victim, ram);  // RAM is unlimited; no recursion
      ds.owner = ram;
    }
    ++eviction_count_;
    drop_copy(victim, node);
  }
  if (ns.used + need > ns.capacity) {
    ++capacity_overflows_;
    return false;
  }
  return true;
}

void MemoryManager::make_resident(DataId d, MemNodeId node, std::vector<TransferOp>& ops) {
  DataState& ds = state(d);
  if ((ds.valid.load() & nbit(node)) != 0) {
    touch(d, node);
    return;
  }
  const std::size_t bytes = graph_.handles().get(d).bytes;
  (void)evict_until_fits(bytes, node, ops);  // overflow counted, run continues
  const MemNodeId src = any_valid_node(ds.valid.load());
  ops.push_back(TransferOp{d, src, node, bytes, false});
  nodes_[src.index()].bytes_out += bytes;
  nodes_[node.index()].bytes_in += bytes;
  ds.valid.fetch_or(nbit(node));
  nodes_[node.index()].used += bytes;
  touch(d, node);
}

void MemoryManager::acquire_for_task(TaskId t, MemNodeId node, std::vector<TransferOp>& ops) {
  for (const Access& a : graph_.task(t).accesses) {
    if (mode_reads(a.mode)) {
      make_resident(a.data, node, ops);
    } else {
      // Write-only: no fetch needed, just allocation on the node.
      DataState& ds = state(a.data);
      if ((ds.valid.load() & nbit(node)) == 0) {
        const std::size_t bytes = graph_.handles().get(a.data).bytes;
        (void)evict_until_fits(bytes, node, ops);
        ds.valid.fetch_or(nbit(node));
        nodes_[node.index()].used += bytes;
      }
      touch(a.data, node);
    }
    if (mode_writes(a.mode)) {
      // Invalidate every other copy; this node becomes the owner.
      DataState& ds = state(a.data);
      const std::uint64_t others = ds.valid.load() & ~nbit(node);
      for (std::size_t i = 0; i < platform_.num_nodes(); ++i) {
        if ((others & nbit(i)) == 0) continue;
        drop_copy(a.data, MemNodeId{i});
      }
      ds.dirty = (node != graph_.handles().get(a.data).home);
      ds.owner = node;
    }
  }
}

void MemoryManager::prefetch(DataId d, MemNodeId node, std::vector<TransferOp>& ops) {
  DataState& ds = state(d);
  if ((ds.valid.load() & nbit(node)) != 0) return;
  const std::size_t bytes = graph_.handles().get(d).bytes;
  std::vector<TransferOp> evictions;
  if (!evict_until_fits(bytes, node, evictions)) {
    // Not worth forcing room for a prefetch; drop it (evictions already
    // performed stand, as in a real runtime's best-effort prefetch).
    ops.insert(ops.end(), evictions.begin(), evictions.end());
    return;
  }
  ops.insert(ops.end(), evictions.begin(), evictions.end());
  const MemNodeId src = any_valid_node(ds.valid.load());
  ops.push_back(TransferOp{d, src, node, bytes, false});
  nodes_[src.index()].bytes_out += bytes;
  nodes_[node.index()].bytes_in += bytes;
  ds.valid.fetch_or(nbit(node));
  nodes_[node.index()].used += bytes;
  touch(d, node);
}

void MemoryManager::evacuate_node(MemNodeId node, std::vector<TransferOp>& ops) {
  const MemNodeId ram = platform_.ram_node();
  if (node == ram) return;  // RAM loss is unsurvivable and not modelled
  for (std::size_t di = 0; di < states_.size(); ++di) {
    const DataId d{di};
    DataState& ds = states_[di];
    if ((ds.valid.load() & nbit(node)) == 0) continue;
    MP_ASSERT(nodes_[node.index()].pins[di] == 0);
    if (ds.valid.load() == nbit(node)) {
      // Sole copy: migrate it to RAM while the link still exists.
      const std::size_t bytes = graph_.handles().get(d).bytes;
      ops.push_back(TransferOp{d, node, ram, bytes, true});
      nodes_[node.index()].bytes_out += bytes;
      nodes_[ram.index()].bytes_in += bytes;
      ds.valid.fetch_or(nbit(ram));
      touch(d, ram);
      ds.owner = ram;
    }
    drop_copy(d, node);
  }
}

void MemoryManager::pin_task_data(TaskId t, MemNodeId node) {
  std::vector<std::uint32_t>& pins = nodes_[node.index()].pins;
  for (const Access& a : graph_.task(t).accesses) {
    check_handle(a.data);
    ++pins[a.data.index()];
  }
}

void MemoryManager::unpin_task_data(TaskId t, MemNodeId node) {
  std::vector<std::uint32_t>& pins = nodes_[node.index()].pins;
  for (const Access& a : graph_.task(t).accesses) {
    MP_CHECK_MSG(a.data.index() < pins.size() && pins[a.data.index()] > 0,
                 "unpin of data the task never pinned");
    --pins[a.data.index()];
  }
}

std::size_t MemoryManager::total_bytes_to(MemNodeId node) const {
  return nodes_[node.index()].bytes_in;
}

std::size_t MemoryManager::total_bytes_from(MemNodeId node) const {
  return nodes_[node.index()].bytes_out;
}

std::size_t MemoryManager::used_bytes(MemNodeId node) const {
  return nodes_[node.index()].used;
}

}  // namespace mp
