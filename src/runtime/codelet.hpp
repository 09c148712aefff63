// Codelets: multi-implementation task functions, as in StarPU.
#pragma once

#include <array>
#include <bitset>
#include <functional>
#include <span>
#include <string>

#include "common/ids.hpp"

namespace mp {

struct Task;

/// Real implementation signature used by the threaded executor. `buffers[i]`
/// is the storage of the i-th data access of the task.
using KernelFn = std::function<void(const Task&, std::span<void* const>)>;

/// A codelet describes one *type* of task: its name (keyed by performance
/// models and by HeteroPrio's buckets), which architectures it can run on,
/// and optional real implementations.
struct Codelet {
  CodeletId id;
  std::string name;
  /// where_mask[arch_index(a)] == true iff an implementation exists for a.
  std::bitset<kNumArchTypes> where_mask;
  /// Real implementations (may be empty for simulation-only workloads). A
  /// GPU-capable codelet without gpu_fn falls back to cpu_fn in the threaded
  /// executor: worker threads tagged GPU emulate the device functionally.
  KernelFn cpu_fn;
  KernelFn gpu_fn;

  [[nodiscard]] bool can_exec(ArchType a) const { return where_mask[arch_index(a)]; }
};

}  // namespace mp
