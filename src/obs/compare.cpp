#include "obs/compare.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/csv.hpp"

namespace mp {

namespace {

std::string delta_percent(double a, double b) {
  if (a == 0.0) return "n/a";
  return fmt_percent((b - a) / a, 1);
}

}  // namespace

std::string compare_runs(const std::string& label_a, const RunAnalysis& a,
                         const std::string& label_b, const RunAnalysis& b) {
  std::ostringstream os;
  os << "== " << label_a << " vs " << label_b << " ==\n";
  if (a.events_truncated() || b.events_truncated())
    os << "WARNING: truncated event log in "
       << (a.events_truncated() ? label_a : label_b) << "; blame split is partial\n";

  Table head({"metric", label_a, label_b, "delta"});
  head.add_row({"makespan (s)", fmt_double(a.makespan_s(), 4),
                fmt_double(b.makespan_s(), 4),
                delta_percent(a.makespan_s(), b.makespan_s())});
  head.add_row({"GFlop/s", fmt_double(a.gflops(), 1), fmt_double(b.gflops(), 1),
                delta_percent(a.gflops(), b.gflops())});
  head.add_row({"area bound (s)", fmt_double(a.area_bound_s(), 4),
                fmt_double(b.area_bound_s(), 4), ""});
  head.add_row({"critical-path bound (s)", fmt_double(a.cp_bound_s(), 4),
                fmt_double(b.cp_bound_s(), 4), ""});
  head.add_row({"efficiency vs bound", fmt_double(a.efficiency(), 3),
                fmt_double(b.efficiency(), 3), ""});
  head.add_row({"efficiency vs area", fmt_double(a.area_efficiency(), 3),
                fmt_double(b.area_efficiency(), 3), ""});
  head.add_row({"critical path (tasks)", std::to_string(a.critical_path().size()),
                std::to_string(b.critical_path().size()), ""});
  head.add_row({"critical path exec (s)", fmt_double(a.critical_path_exec_s(), 4),
                fmt_double(b.critical_path_exec_s(), 4),
                delta_percent(a.critical_path_exec_s(), b.critical_path_exec_s())});
  head.add_row({"total idle (s)", fmt_double(a.total_idle_s(), 4),
                fmt_double(b.total_idle_s(), 4),
                delta_percent(a.total_idle_s(), b.total_idle_s())});
  for (std::size_t c = 0; c < kNumIdleCauses; ++c) {
    const auto cause = static_cast<IdleCause>(c);
    head.add_row({std::string("  idle: ") + idle_cause_name(cause),
                  fmt_double(a.idle_cause_total(cause), 4),
                  fmt_double(b.idle_cause_total(cause), 4),
                  delta_percent(a.idle_cause_total(cause), b.idle_cause_total(cause))});
  }
  if (!a.model_accuracy().empty() || !b.model_accuracy().empty())
    head.add_row({"model MAE (s)", fmt_double(a.model_mean_abs_err_s(), 6),
                  fmt_double(b.model_mean_abs_err_s(), 6), ""});
  os << head.to_ascii();

  // Per-codelet placement/busy deltas, union of both runs, name order.
  std::map<std::string, std::pair<const CodeletReport*, const CodeletReport*>> by_name;
  for (const CodeletReport& c : a.codelets()) by_name[c.codelet].first = &c;
  for (const CodeletReport& c : b.codelets()) by_name[c.codelet].second = &c;
  const CodeletReport empty_codelet;
  Table ct({"codelet", label_a + " cpu/gpu", label_b + " cpu/gpu",
            label_a + " busy (s)", label_b + " busy (s)", "busy delta"});
  for (const auto& [name, pair] : by_name) {
    const CodeletReport& ca = pair.first != nullptr ? *pair.first : empty_codelet;
    const CodeletReport& cb = pair.second != nullptr ? *pair.second : empty_codelet;
    const double busy_a = ca.busy_cpu_s + ca.busy_gpu_s;
    const double busy_b = cb.busy_cpu_s + cb.busy_gpu_s;
    ct.add_row({name, std::to_string(ca.count_cpu) + "/" + std::to_string(ca.count_gpu),
                std::to_string(cb.count_cpu) + "/" + std::to_string(cb.count_gpu),
                fmt_double(busy_a, 4), fmt_double(busy_b, 4),
                delta_percent(busy_a, busy_b)});
  }
  os << "per-codelet:\n" << ct.to_ascii();

  // Per-worker idle/blame deltas (same platform ⇒ same worker set; extra
  // workers of the longer list are printed against zeros).
  const std::vector<WorkerIdleBlame>& idle_a = a.idle_blame();
  const std::vector<WorkerIdleBlame>& idle_b = b.idle_blame();
  const std::size_t nw = std::max(idle_a.size(), idle_b.size());
  const WorkerIdleBlame empty_blame;
  Table wt({"worker", label_a + " idle (s)", label_b + " idle (s)", "idle delta",
            label_a + " dominant", label_b + " dominant"});
  const auto dominant = [](const WorkerIdleBlame& w) -> std::string {
    if (w.total_idle_s <= 0.0) return "-";
    std::size_t best = 0;
    for (std::size_t c = 1; c < kNumIdleCauses; ++c)
      if (w.by_cause[c] > w.by_cause[best]) best = c;
    return idle_cause_name(static_cast<IdleCause>(best));
  };
  for (std::size_t wi = 0; wi < nw; ++wi) {
    const WorkerIdleBlame& wa = wi < idle_a.size() ? idle_a[wi] : empty_blame;
    const WorkerIdleBlame& wb = wi < idle_b.size() ? idle_b[wi] : empty_blame;
    wt.add_row({!wa.name.empty() ? wa.name : wb.name, fmt_double(wa.total_idle_s, 4),
                fmt_double(wb.total_idle_s, 4),
                delta_percent(wa.total_idle_s, wb.total_idle_s), dominant(wa),
                dominant(wb)});
  }
  os << "per-worker idle:\n" << wt.to_ascii();

  // δ(t,a) accuracy side by side (same predictions feed both schedulers'
  // gain computations, but each run only exercises the placements it chose).
  if (!a.model_accuracy().empty() || !b.model_accuracy().empty()) {
    std::map<std::pair<std::string, std::size_t>,
             std::pair<const ModelAccuracy*, const ModelAccuracy*>> model_by_key;
    for (const ModelAccuracy& m : a.model_accuracy())
      model_by_key[{m.codelet, arch_index(m.arch)}].first = &m;
    for (const ModelAccuracy& m : b.model_accuracy())
      model_by_key[{m.codelet, arch_index(m.arch)}].second = &m;
    Table mt({"codelet", "arch", label_a + " MAE (s)", label_b + " MAE (s)",
              label_a + " bias (s)", label_b + " bias (s)"});
    for (const auto& [key, pair] : model_by_key) {
      const auto cell = [](const ModelAccuracy* m, double ModelAccuracy::* field) {
        return m != nullptr ? fmt_double(m->*field, 6) : std::string("-");
      };
      mt.add_row({key.first, arch_name(static_cast<ArchType>(key.second)),
                  cell(pair.first, &ModelAccuracy::mean_abs_err_s),
                  cell(pair.second, &ModelAccuracy::mean_abs_err_s),
                  cell(pair.first, &ModelAccuracy::bias_s),
                  cell(pair.second, &ModelAccuracy::bias_s)});
    }
    os << "perf-model accuracy:\n" << mt.to_ascii();
  }
  return os.str();
}

}  // namespace mp
