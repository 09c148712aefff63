// The gain heuristic (paper Section V-A, Eq. 1).
//
//              ⎧ 1                                       |A| = 1
//  gain(t,a) = ⎨ ((δ(t,a₂nd) − δ(t,a)) + hd(a)) / 2·hd(a)   a fastest
//              ⎩ ((δ(t,a₁st) − δ(t,a)) + hd(a)) / 2·hd(a)   otherwise
//
// hd(a) is the highest execution-time difference recorded so far on arch a;
// it is updated with the current task's |difference| before use, which
// reproduces the paper's Table II example exactly (hd = 19 ms there).
#pragma once

#include <array>

#include "common/ids.hpp"
#include "runtime/scheduler.hpp"

namespace mp {

class GainTracker {
 public:
  /// Gain score on arch `a`, in [0, 1], of a task whose estimates are
  /// already resolved: `enabled` is the task's enabled_archs() set and
  /// `delta[arch_index(x)]` its δ(t,x) for every x in it (other entries are
  /// ignored). Updates hd(a) as a side effect ("recorded so far"). `a` must
  /// be enabled.
  [[nodiscard]] double gain(ArchMask enabled,
                            const std::array<double, kNumArchTypes>& delta, ArchType a);

  /// Running maximum execution-time difference for `a` (0 until first task).
  [[nodiscard]] double hd(ArchType a) const { return hd_[arch_index(a)]; }

  void reset() { hd_.fill(0.0); }

 private:
  std::array<double, kNumArchTypes> hd_{};
};

}  // namespace mp
