// Shared helpers for the figure-regeneration benches.
#pragma once

#include <cstring>
#include <string>

#include "common/csv.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"

namespace mp::bench {

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

/// --full on the command line switches from the quick default configuration
/// to the paper-scale sweep.
inline bool full_mode(int argc, char** argv) { return has_flag(argc, argv, "--full"); }

/// Mean GPU idle fraction over the GPU memory nodes of a result.
inline double gpu_idle(const Platform& p, const SimResult& r) {
  double idle = 0.0;
  std::size_t count = 0;
  for (std::size_t m = 1; m < p.num_nodes(); ++m) {
    idle += r.idle_per_node[m];
    ++count;
  }
  return count ? idle / static_cast<double>(count) : 0.0;
}

}  // namespace mp::bench
