#include "runtime/scheduler.hpp"

#include <limits>

#include "common/check.hpp"

namespace mp {

bool worker_alive(const SchedContext& ctx, WorkerId w) {
  return ctx.liveness == nullptr || ctx.liveness->alive(w);
}

std::size_t live_worker_count(const SchedContext& ctx, ArchType a) {
  return ctx.liveness != nullptr ? ctx.liveness->live_count(a)
                                 : ctx.platform->worker_count(a);
}

std::size_t live_workers_of_node(const SchedContext& ctx, MemNodeId m) {
  return ctx.liveness != nullptr ? ctx.liveness->live_on_node(m)
                                 : ctx.platform->workers_of_node(m).size();
}

bool task_has_live_worker(const SchedContext& ctx, TaskId t) {
  return enabled_archs(ctx, t) != 0;
}

ArchMask enabled_archs(const SchedContext& ctx, TaskId t) {
  ArchMask out = 0;
  for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
    const auto a = static_cast<ArchType>(ai);
    if (ctx.graph->can_exec(t, a) && live_worker_count(ctx, a) > 0) out |= arch_bit(a);
  }
  return out;
}

std::optional<ArchType> fastest_arch(ArchMask archs,
                                     const std::array<double, kNumArchTypes>& delta) {
  double best = std::numeric_limits<double>::infinity();
  std::optional<ArchType> best_a;
  for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
    const auto a = static_cast<ArchType>(ai);
    if (!arch_in(archs, a) || !(delta[ai] < best)) continue;
    best = delta[ai];
    best_a = a;
  }
  return best_a;
}

ArchType best_arch_for(const SchedContext& ctx, TaskId t) {
  const ArchMask enabled = enabled_archs(ctx, t);
  std::array<double, kNumArchTypes> delta{};
  for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
    const auto a = static_cast<ArchType>(ai);
    if (arch_in(enabled, a)) delta[ai] = ctx.perf->estimate(t, a);
  }
  const std::optional<ArchType> best = fastest_arch(enabled, delta);
  MP_CHECK_MSG(best.has_value(), "task has no enabled architecture");
  return *best;
}

}  // namespace mp
