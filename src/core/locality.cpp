#include "core/locality.hpp"

namespace mp {

void locality_terms(const TaskGraph& graph, TaskId t, std::vector<LocalityTerm>& out) {
  const std::vector<Access>& accesses = graph.task(t).accesses;
  out.clear();
  out.reserve(accesses.size());
  for (const Access& acc : accesses) {
    const auto size = static_cast<double>(graph.handles().get(acc.data).bytes);
    out.push_back(LocalityTerm{acc.data, mode_writes(acc.mode) ? size * size : size});
  }
}

double ls_sdh2(const MemoryManager& memory, MemNodeId m, std::span<const LocalityTerm> terms) {
  double score = 0.0;
  for (const LocalityTerm& term : terms)
    if (memory.is_valid_on(term.data, m)) score += term.weight;
  return score;
}

double ls_sdh2(const SchedContext& ctx, MemNodeId m, TaskId t) {
  std::vector<LocalityTerm> terms;
  locality_terms(*ctx.graph, t, terms);
  return ls_sdh2(*ctx.memory, m, terms);
}

}  // namespace mp
