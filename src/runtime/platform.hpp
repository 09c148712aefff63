// Platform description: memory nodes, processing units / workers, links.
//
// Mirrors StarPU's machine model: one RAM node hosting the CPU workers, one
// memory node per GPU hosting that GPU's worker(s) (several workers per GPU
// model concurrent CUDA streams), and a PCIe-like link per GPU node.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace mp {

enum class MemNodeKind : std::uint8_t { Ram = 0, Gpu = 1 };

struct MemNode {
  MemNodeId id;
  MemNodeKind kind = MemNodeKind::Ram;
  /// Device memory capacity in bytes; 0 means unlimited (RAM).
  std::size_t capacity_bytes = 0;
  /// Link to/from RAM. RAM itself has no link (fields unused).
  double bandwidth_bytes_per_s = 0.0;
  double latency_s = 0.0;
  std::string name;
};

struct Worker {
  WorkerId id;
  ArchType arch = ArchType::CPU;
  MemNodeId node;
  std::string name;
};

class Platform {
 public:
  /// Creates a platform with a single RAM node (node 0).
  Platform();

  /// Adds a GPU memory node with the given link characteristics; returns its id.
  MemNodeId add_gpu_node(std::size_t capacity_bytes, double bandwidth_bytes_per_s,
                         double latency_s, std::string name = {});

  /// Adds `count` workers of architecture `arch` attached to `node`.
  void add_workers(ArchType arch, MemNodeId node, std::size_t count);

  [[nodiscard]] MemNodeId ram_node() const { return MemNodeId{std::uint32_t{0}}; }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  [[nodiscard]] const MemNode& node(MemNodeId m) const {
    MP_CHECK(m.valid() && m.index() < nodes_.size());
    return nodes_[m.index()];
  }
  [[nodiscard]] const Worker& worker(WorkerId w) const {
    MP_CHECK(w.valid() && w.index() < workers_.size());
    return workers_[w.index()];
  }
  [[nodiscard]] const std::vector<Worker>& workers() const { return workers_; }
  [[nodiscard]] const std::vector<MemNode>& nodes() const { return nodes_; }

  /// Architecture of the workers attached to `m` (the paper's
  /// get_memory_node_arch_type). A node hosts workers of a single arch.
  [[nodiscard]] ArchType node_arch(MemNodeId m) const;

  /// Workers attached to `m` (the paper's P_m as worker set W_m).
  [[nodiscard]] const std::vector<WorkerId>& workers_of_node(MemNodeId m) const;

  /// Number of workers of architecture `a` (paper's get_worker_count(a)).
  [[nodiscard]] std::size_t worker_count(ArchType a) const;

  /// Memory nodes whose workers are of architecture `a`.
  [[nodiscard]] const std::vector<MemNodeId>& nodes_of_arch(ArchType a) const;

  /// Estimated wire time to move `bytes` between `from` and `to`. Transfers
  /// between two GPU nodes hop through RAM (cost of both links). Zero if
  /// from == to.
  [[nodiscard]] double transfer_time(std::size_t bytes, MemNodeId from, MemNodeId to) const;

  void self_check() const;

 private:
  std::vector<MemNode> nodes_;
  std::vector<Worker> workers_;
  std::vector<std::vector<WorkerId>> node_workers_;
  std::array<std::vector<MemNodeId>, kNumArchTypes> arch_nodes_;
  std::array<std::size_t, kNumArchTypes> arch_worker_count_{};
};

}  // namespace mp
