// Tasks: vertices of the application DAG.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "runtime/access.hpp"

namespace mp {

/// One data access of a task.
struct Access {
  DataId data;
  AccessMode mode = AccessMode::Read;
};

/// A task instance. Tasks are created through TaskGraph::submit and owned by
/// the graph; schedulers and engines refer to them by TaskId.
struct Task {
  TaskId id;
  CodeletId codelet;
  std::vector<Access> accesses;

  /// Work estimate in floating-point operations; drives analytic timing
  /// models (time = overhead + flops / rate).
  double flops = 0.0;

  /// Expert-provided priority (used by Dmdas when the application sets it,
  /// e.g. Chameleon dense kernels). 0 when the application provides none.
  std::int64_t user_priority = 0;

  /// Small integer parameters available to real kernel implementations
  /// (e.g. tile indices). Interpretation is codelet-specific.
  std::array<std::int64_t, 4> iparams{0, 0, 0, 0};

  /// Sum of access sizes in bytes (filled by TaskGraph::submit); the
  /// footprint key for history-based performance models.
  std::size_t footprint_bytes = 0;
};

}  // namespace mp
