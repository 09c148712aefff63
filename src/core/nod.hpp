// Criticality heuristic: Normalized Out-Degree (paper Section V-B, Eq. 2,
// after Lin et al. [23]).
//
//   NOD(t) = Σ_{s ∈ λ+(t, P_m)}  1 / |λ−(s, P_m)|
//
// Successors and predecessor counts are restricted to tasks executable on
// the architecture of memory node m. A task releasing many lightly-guarded
// successors scores high: finishing it unlocks the most parallelism.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/ids.hpp"
#include "runtime/scheduler.hpp"

namespace mp {

/// Raw NOD values of `t`, one per arch (index arch_index(a)), from a single
/// walk of its successors.
[[nodiscard]] std::array<double, kNumArchTypes> nod_scores(const TaskGraph& graph, TaskId t);

/// Raw NOD value of `t` for memory node `m`.
[[nodiscard]] double nod_score(const SchedContext& ctx, TaskId t, MemNodeId m);

/// Maintains the running maximum used to normalize NOD into [0, 1]
/// ("all values are normalized between 0 and 1"), over raw NOD values
/// cached per task, every arch at once. Built from a finished graph: the
/// cache is sized once, each entry is computed on the task's first query
/// and reused after, and a task submitted after construction trips an
/// always-on check.
///
/// Not thread-safe: callers serialize (MultiPrio scores on its push side).
class NodNormalizer {
 public:
  explicit NodNormalizer(const TaskGraph& graph) : cache_(graph.num_tasks()) {}

  /// Normalized criticality score; updates the running max as a side effect.
  [[nodiscard]] double normalized(const SchedContext& ctx, TaskId t, MemNodeId m);

  [[nodiscard]] double max_seen() const { return max_seen_; }
  /// Restarts the normalization (the cached raw values stay valid).
  void reset() { max_seen_ = 0.0; }

 private:
  struct Cached {
    std::array<double, kNumArchTypes> nod{};
    bool resolved = false;
  };

  double max_seen_ = 0.0;
  std::vector<Cached> cache_;  ///< per task
};

}  // namespace mp
