#include "core/gain.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace mp {

double GainTracker::gain(ArchMask enabled, const std::array<double, kNumArchTypes>& delta,
                         ArchType a) {
  MP_CHECK_MSG(arch_in(enabled, a), "gain on an arch the task cannot run on");
  if (std::has_single_bit(enabled)) return 1.0;  // only one arch can run the task

  const std::optional<ArchType> fastest = fastest_arch(enabled, delta);
  MP_CHECK_MSG(fastest.has_value(), "no comparable estimate among the enabled archs");
  const ArchType first = *fastest;
  const double delta_a = delta[arch_index(a)];
  double diff = 0.0;
  if (a == first) {
    const std::optional<ArchType> second =
        fastest_arch(static_cast<ArchMask>(enabled & ~arch_bit(a)), delta);
    MP_ASSERT(second.has_value());
    diff = delta[arch_index(*second)] - delta_a;  // ≥ 0
  } else {
    diff = delta[arch_index(first)] - delta_a;  // ≤ 0
  }

  double& hd = hd_[arch_index(a)];
  hd = std::max(hd, std::abs(diff));
  if (hd == 0.0) return 0.5;  // no contrast recorded yet: neutral score
  return (diff + hd) / (2.0 * hd);
}

}  // namespace mp
