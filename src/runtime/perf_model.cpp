#include "runtime/perf_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mp {

namespace {
constexpr double kMinTime = 1e-9;  // never report a zero/negative duration

[[nodiscard]] double apply_rate(const RateSpec& r, double flops, double bytes) {
  double t = r.overhead_s + (flops + r.flops_half) / (r.gflops * 1e9);
  if (r.bytes_per_s > 0.0) t += bytes / r.bytes_per_s;
  return std::max(t, kMinTime);
}
}  // namespace

void PerfDatabase::set_rate(const std::string& codelet_name, ArchType arch, RateSpec spec) {
  MP_CHECK(spec.gflops > 0.0);
  rates_[codelet_name][arch_index(arch)] = spec;
}

void PerfDatabase::set_default(ArchType arch, RateSpec spec) {
  MP_CHECK(spec.gflops > 0.0);
  defaults_[arch_index(arch)] = spec;
}

const RateSpec& PerfDatabase::rate(const std::string& codelet_name, ArchType arch) const {
  auto it = rates_.find(codelet_name);
  if (it != rates_.end() && it->second[arch_index(arch)].has_value())
    return *it->second[arch_index(arch)];
  return defaults_[arch_index(arch)];
}

double PerfDatabase::ground_truth(const TaskGraph& graph, TaskId t, ArchType a) const {
  const Task& task = graph.task(t);
  const Codelet& cl = graph.codelet_of(t);
  MP_CHECK_MSG(cl.can_exec(a), "no implementation for this arch");
  return apply_rate(rate(cl.name, a), task.flops,
                    static_cast<double>(task.footprint_bytes));
}

HistoryModel::HistoryModel(const TaskGraph& graph, const PerfDatabase& truth)
    : graph_(graph), truth_(truth), slot_of_(graph.num_tasks() * kNumArchTypes, kUnresolved) {}

HistoryModel::Bucket& HistoryModel::bucket(TaskId t, ArchType a) const {
  const std::size_t i = t.index() * kNumArchTypes + arch_index(a);
  MP_CHECK_MSG(i < slot_of_.size(), "task id outside the graph the history model was built for");
  std::uint32_t& slot = slot_of_[i];
  if (slot == kUnresolved) {
    // (codelet, arch, footprint) — StarPU keys history models by a hash of
    // the data sizes; the footprint byte count plays that role here.
    const Task& task = graph_.task(t);
    const BucketKey key{task.codelet.value(), arch_index(a), task.footprint_bytes};
    const auto [it, fresh] =
        slot_by_key_.try_emplace(key, static_cast<std::uint32_t>(buckets_.size()));
    if (fresh) buckets_.emplace_back();
    slot = it->second;
  }
  return buckets_[slot];
}

double HistoryModel::estimate(TaskId t, ArchType a) const {
  const Bucket& b = bucket(t, a);
  if (b.count > 0) return b.mean;
  // Uncalibrated prior: default-rate estimate from the task's flops.
  const Task& task = graph_.task(t);
  return apply_rate(truth_.rate("", a), task.flops,
                    static_cast<double>(task.footprint_bytes));
}

bool HistoryModel::is_calibrated(TaskId t, ArchType a) const {
  return bucket(t, a).count > 0;
}

void HistoryModel::record(TaskId t, ArchType a, double measured_s) {
  MP_CHECK(measured_s > 0.0);
  Bucket& b = bucket(t, a);
  ++b.count;
  b.mean += (measured_s - b.mean) / static_cast<double>(b.count);
}

void HistoryModel::seed_from_truth() {
  for (std::size_t i = 0; i < graph_.num_tasks(); ++i) {
    const TaskId t{i};
    const Codelet& cl = graph_.codelet_of(t);
    for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
      const auto a = static_cast<ArchType>(ai);
      if (!cl.can_exec(a)) continue;
      Bucket& b = bucket(t, a);
      if (b.count == 0) {
        b.count = 1;
        b.mean = truth_.ground_truth(graph_, t, a);
      }
    }
  }
}

}  // namespace mp
