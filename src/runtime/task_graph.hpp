// TaskGraph: STF (sequential task flow) DAG construction, as in StarPU.
//
// Applications submit tasks in sequential order; the graph infers RAW, WAR
// and WAW dependencies from the data access modes, exactly like StarPU's STF
// model. Schedulers and execution engines then consume the explicit DAG.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "runtime/codelet.hpp"
#include "runtime/data_handle.hpp"
#include "runtime/task.hpp"

namespace mp {

/// Options for one task submission.
struct SubmitOptions {
  double flops = 0.0;
  std::int64_t user_priority = 0;
  std::array<std::int64_t, 4> iparams{0, 0, 0, 0};
};

class TaskGraph {
 public:
  explicit TaskGraph(MemNodeId ram_node = MemNodeId{std::uint32_t{0}});

  // --- construction ------------------------------------------------------

  /// Registers a codelet type. `where` is a list of architectures that have
  /// an implementation.
  CodeletId add_codelet(std::string name, std::initializer_list<ArchType> where,
                        KernelFn cpu_fn = nullptr, KernelFn gpu_fn = nullptr);

  /// Registers application data (home copy on the RAM node by default).
  DataId add_data(std::size_t bytes, void* user_ptr = nullptr);
  DataId add_data_on(std::size_t bytes, MemNodeId home, void* user_ptr = nullptr);

  /// Submits a task accessing `accesses` in order; dependencies on earlier
  /// tasks are inferred from the access modes (STF semantics).
  TaskId submit(CodeletId codelet, std::span<const Access> accesses,
                SubmitOptions opts = {});
  TaskId submit(CodeletId codelet, std::initializer_list<Access> accesses,
                SubmitOptions opts = {});

  // --- queries ------------------------------------------------------------

  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  [[nodiscard]] const Task& task(TaskId t) const {
    MP_CHECK(t.valid() && t.index() < tasks_.size());
    return tasks_[t.index()];
  }
  [[nodiscard]] const Codelet& codelet_of(TaskId t) const {
    return codelets_[task(t).codelet.index()];
  }
  [[nodiscard]] const Codelet& codelet(CodeletId c) const;
  /// Trace label of `t`: its codelet name and its four iparams, as in
  /// `gemm(3,2,1,0)`. Computed on each call; tasks store no label.
  [[nodiscard]] std::string label(TaskId t) const;
  [[nodiscard]] std::size_t num_codelets() const { return codelets_.size(); }

  [[nodiscard]] const HandleRegistry& handles() const { return handles_; }

  /// Direct successors λ+(t) / predecessors λ−(t) in the inferred DAG.
  [[nodiscard]] std::span<const TaskId> successors(TaskId t) const {
    MP_CHECK(t.valid() && t.index() < succ_.size());
    return succ_[t.index()];
  }
  [[nodiscard]] std::span<const TaskId> predecessors(TaskId t) const {
    MP_CHECK(t.valid() && t.index() < pred_.size());
    return pred_[t.index()];
  }

  /// Architectures with an implementation of `t` (its codelet's, copied
  /// into a dense per-task table at submission).
  [[nodiscard]] ArchMask archs_of(TaskId t) const {
    MP_CHECK(t.valid() && t.index() < archs_.size());
    return archs_[t.index()];
  }
  [[nodiscard]] bool can_exec(TaskId t, ArchType a) const { return arch_in(archs_of(t), a); }

  /// Number of direct predecessors (|λ−(t)|).
  [[nodiscard]] std::size_t in_degree(TaskId t) const;

  /// Tasks with no predecessors — the initially ready set.
  [[nodiscard]] std::vector<TaskId> initial_ready() const;

  /// Total flops over all tasks (for GFlop/s reporting).
  [[nodiscard]] double total_flops() const { return total_flops_; }

  /// Overrides the expert priority of a task after submission (used by the
  /// expert-priority assignment of the dense workloads).
  void set_user_priority(TaskId t, std::int64_t priority);

  /// Upward rank of every task: flops(t) + max over successors — the exact
  /// flop-weighted critical-path-to-sink measure. Plays the role of the
  /// offline expert priorities Chameleon feeds Dmdas.
  [[nodiscard]] std::vector<double> upward_rank_flops() const;

  /// Validates basic DAG sanity (acyclicity is guaranteed by construction;
  /// this checks edge symmetry and id ranges). Aborts on violation.
  void self_check() const;

 private:
  struct PerData {
    /// The tasks owning the latest value: a single writer, or the whole
    /// commuter set once a reader closed a commute epoch.
    std::vector<TaskId> last_writers;
    std::vector<TaskId> readers;    // readers since the last write/commute
    std::vector<TaskId> commuters;  // pending commutative updaters
  };

  void add_edge(TaskId from, TaskId to);

  MemNodeId ram_node_;
  HandleRegistry handles_;
  std::vector<Codelet> codelets_;
  std::vector<Task> tasks_;
  std::vector<ArchMask> archs_;  // per task
  std::vector<std::vector<TaskId>> succ_;
  std::vector<std::vector<TaskId>> pred_;
  std::vector<PerData> per_data_;
  double total_flops_ = 0.0;
};

/// Mutable remaining-predecessor counters for one execution of a graph.
/// The engine owns one; completing a task releases its successors.
class DepCounters {
 public:
  explicit DepCounters(const TaskGraph& graph);

  /// Marks `t` complete and appends newly ready successors to `out`.
  void complete(TaskId t, std::vector<TaskId>& out);

  [[nodiscard]] bool is_ready(TaskId t) const { return remaining_[t.index()] == 0; }

 private:
  const TaskGraph& graph_;
  std::vector<std::uint32_t> remaining_;
};

}  // namespace mp
