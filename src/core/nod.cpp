#include "core/nod.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mp {

std::array<double, kNumArchTypes> nod_scores(const TaskGraph& graph, TaskId t) {
  std::array<double, kNumArchTypes> nod{};
  for (TaskId s : graph.successors(t)) {
    const ArchMask s_archs = graph.archs_of(s);
    std::array<std::size_t, kNumArchTypes> preds_on_arch{};
    for (TaskId p : graph.predecessors(s)) {
      const ArchMask p_archs = graph.archs_of(p);
      for (std::size_t ai = 0; ai < kNumArchTypes; ++ai)
        if (arch_in(p_archs, static_cast<ArchType>(ai))) ++preds_on_arch[ai];
    }
    for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
      if (!arch_in(s_archs, static_cast<ArchType>(ai))) continue;
      // When no predecessor targets this arch (yet the successor does), fall
      // back to the unrestricted in-degree so the term stays well-defined.
      const std::size_t denom = preds_on_arch[ai] > 0
                                    ? preds_on_arch[ai]
                                    : std::max<std::size_t>(1, graph.in_degree(s));
      nod[ai] += 1.0 / static_cast<double>(denom);
    }
  }
  return nod;
}

double nod_score(const SchedContext& ctx, TaskId t, MemNodeId m) {
  return nod_scores(*ctx.graph, t)[arch_index(ctx.platform->node_arch(m))];
}

double NodNormalizer::normalized(const SchedContext& ctx, TaskId t, MemNodeId m) {
  MP_CHECK_MSG(m.index() < ctx.platform->num_nodes(),
               "nod score for an unknown memory node");
  MP_CHECK_MSG(t.index() < cache_.size(),
               "task id outside the graph the normalizer was built for");
  Cached& c = cache_[t.index()];
  if (!c.resolved) c = Cached{nod_scores(*ctx.graph, t), true};
  const double nod = c.nod[arch_index(ctx.platform->node_arch(m))];
  max_seen_ = std::max(max_seen_, nod);
  return max_seen_ > 0.0 ? nod / max_seen_ : 0.0;
}

}  // namespace mp
