#include "runtime/platform.hpp"

#include "common/check.hpp"

namespace mp {

Platform::Platform() {
  MemNode ram;
  ram.id = MemNodeId{std::uint32_t{0}};
  ram.kind = MemNodeKind::Ram;
  ram.name = "RAM";
  nodes_.push_back(std::move(ram));
  node_workers_.emplace_back();
}

MemNodeId Platform::add_gpu_node(std::size_t capacity_bytes, double bandwidth_bytes_per_s,
                                 double latency_s, std::string name) {
  MP_CHECK(bandwidth_bytes_per_s > 0.0);
  MemNode n;
  n.id = MemNodeId{nodes_.size()};
  n.kind = MemNodeKind::Gpu;
  n.capacity_bytes = capacity_bytes;
  n.bandwidth_bytes_per_s = bandwidth_bytes_per_s;
  n.latency_s = latency_s;
  n.name = name.empty() ? ("GPU" + std::to_string(nodes_.size() - 1)) : std::move(name);
  nodes_.push_back(std::move(n));
  node_workers_.emplace_back();
  return nodes_.back().id;
}

void Platform::add_workers(ArchType arch, MemNodeId node, std::size_t count) {
  MP_CHECK(node.valid() && node.index() < nodes_.size());
  // A memory node hosts workers of one architecture only (paper assumption
  // behind get_memory_node_arch_type).
  if (!node_workers_[node.index()].empty()) {
    MP_CHECK_MSG(worker(node_workers_[node.index()].front()).arch == arch,
                 "a memory node hosts a single worker architecture");
  }
  for (std::size_t i = 0; i < count; ++i) {
    Worker w;
    w.id = WorkerId{workers_.size()};
    w.arch = arch;
    w.node = node;
    w.name = std::string(arch_name(arch)) + "#" + std::to_string(w.id.value());
    node_workers_[node.index()].push_back(w.id);
    workers_.push_back(std::move(w));
    ++arch_worker_count_[arch_index(arch)];
  }
  auto& an = arch_nodes_[arch_index(arch)];
  bool known = false;
  for (MemNodeId m : an) known = known || (m == node);
  if (!known) an.push_back(node);
}

ArchType Platform::node_arch(MemNodeId m) const {
  const auto& ws = workers_of_node(m);
  MP_CHECK_MSG(!ws.empty(), "node has no workers");
  return worker(ws.front()).arch;
}

const std::vector<WorkerId>& Platform::workers_of_node(MemNodeId m) const {
  MP_CHECK(m.valid() && m.index() < node_workers_.size());
  return node_workers_[m.index()];
}

std::size_t Platform::worker_count(ArchType a) const {
  return arch_worker_count_[arch_index(a)];
}

const std::vector<MemNodeId>& Platform::nodes_of_arch(ArchType a) const {
  return arch_nodes_[arch_index(a)];
}

double Platform::transfer_time(std::size_t bytes, MemNodeId from, MemNodeId to) const {
  if (from == to) return 0.0;
  double time = 0.0;
  const MemNode& f = node(from);
  const MemNode& t = node(to);
  if (f.kind == MemNodeKind::Gpu)
    time += f.latency_s + static_cast<double>(bytes) / f.bandwidth_bytes_per_s;
  if (t.kind == MemNodeKind::Gpu)
    time += t.latency_s + static_cast<double>(bytes) / t.bandwidth_bytes_per_s;
  return time;
}

void Platform::self_check() const {
  MP_CHECK(!nodes_.empty());
  MP_CHECK(nodes_.front().kind == MemNodeKind::Ram);
  for (const Worker& w : workers_) {
    MP_CHECK(w.node.index() < nodes_.size());
    const MemNodeKind k = nodes_[w.node.index()].kind;
    if (w.arch == ArchType::GPU) MP_CHECK(k == MemNodeKind::Gpu);
    if (w.arch == ArchType::CPU) MP_CHECK(k == MemNodeKind::Ram);
  }
}

}  // namespace mp
