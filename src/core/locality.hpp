// Data-locality heuristic LS_SDH² (paper Section V-C, Eq. 3, after [20]).
//
//   LS_SDH²(m,t) = Σ_{d ∈ D^R_{t,m}} size(d)  +  Σ_{d ∈ D^W_{t,m}} size(d)²
//
// Sums the bytes of the task's data already valid on memory node m, counting
// written data quadratically (keeping a write local avoids both a fetch and
// a future invalidation/writeback).
//
// A task's terms (datum, size or size²) are static; MultiPrio resolves them
// once per push, so scoring a window candidate only reads data placement.
#pragma once

#include <span>
#include <vector>

#include "common/ids.hpp"
#include "runtime/scheduler.hpp"

namespace mp {

/// One access's contribution to LS_SDH² when its datum is valid on the node.
struct LocalityTerm {
  DataId data;
  double weight = 0.0;  ///< size(d), or size(d)² for written data
};

/// Replaces `out` with the terms of `t`, in access order.
void locality_terms(const TaskGraph& graph, TaskId t, std::vector<LocalityTerm>& out);

/// LS_SDH² on `m` of a task given its resolved terms.
[[nodiscard]] double ls_sdh2(const MemoryManager& memory, MemNodeId m,
                             std::span<const LocalityTerm> terms);

/// LS_SDH² on `m` of `t`, resolving its terms on the spot.
[[nodiscard]] double ls_sdh2(const SchedContext& ctx, MemNodeId m, TaskId t);

}  // namespace mp
