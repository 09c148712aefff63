// Post-mortem run analysis: why did this run take as long as it did?
//
// RunAnalysis consumes a completed run (execution Trace + optionally the
// RecordingObserver's decision events and the engine's pop-time δ(t,a)
// predictions) and answers the questions a scheduler comparison needs
// (Beaumont & Marchal, arXiv:1404.3913):
//
//  * where the time went — per-codelet placement and busy seconds, and
//    per-memory-node task counts, busy seconds and idle fraction (every
//    node of the platform, including those whose workers ran nothing);
//  * bounds — the area lower bound (fractional CPU/GPU allocation LP, solved
//    exactly) and the critical-path lower bound (best-arch weighted longest
//    DAG path), with the makespan reported as an efficiency ratio against
//    them: efficiency 1.0 means no scheduling slack was left on the table;
//  * blame — every idle second of every worker attributed to exactly one of
//    starvation (nothing poppable), eviction (the pop_condition turned the
//    worker away, Section V-D's cost), dependency wait (committed to a task,
//    waiting on its data) or drain (no work will ever come: DAG tail or the
//    worker's own fail-stop loss). The four buckets sum to the worker's
//    total idle exactly, so nothing hides;
//  * model audit — predicted δ(t,a) vs observed duration per (codelet,
//    arch): mean absolute error, mean relative error and signed bias, the
//    numbers that say whether the gain heuristic (Eq. 1) was fed truth.
//
// It reads a run of either engine (SimEngine or ThreadExecutor: both expose
// trace() and predicted_durations()). The analysis is a value: it copies
// what it reports out of the run, so it may outlive the engine, trace and
// graph it was built from.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "runtime/perf_model.hpp"
#include "runtime/platform.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/trace.hpp"

namespace mp {

class RecordingObserver;

/// Where a worker's idle second went.
enum class IdleCause : std::uint8_t {
  Starvation = 0,  ///< popped nothing: no ready task was offered to it
  Eviction,        ///< pop_condition rejections (POP_REJECT/EVICT) in the gap
  DepWait,         ///< committed to a task, waiting for its data/transfers
  Drain,           ///< no work will ever come: DAG tail, or the worker died
};

inline constexpr std::size_t kNumIdleCauses = 4;

[[nodiscard]] constexpr const char* idle_cause_name(IdleCause c) {
  switch (c) {
    case IdleCause::Starvation: return "starvation";
    case IdleCause::Eviction: return "eviction";
    case IdleCause::DepWait: return "dep-wait";
    case IdleCause::Drain: return "drain";
  }
  return "?";
}

/// Aggregated execution statistics for one codelet type.
struct CodeletReport {
  std::string codelet;
  std::size_t count_cpu = 0;
  std::size_t count_gpu = 0;
  double busy_cpu_s = 0.0;
  double busy_gpu_s = 0.0;
  double stall_s = 0.0;  ///< data stalls attributed to this codelet
};

/// Aggregated statistics for one memory node's workers.
struct NodeReport {
  MemNodeId node;
  std::string name;
  std::size_t tasks = 0;
  double busy_s = 0.0;
  double idle_fraction = 0.0;
};

/// One worker's idle time, decomposed. The buckets partition the idle
/// intervals arithmetically, so by_cause sums to total_idle_s exactly (to
/// floating-point association error, well under 1e-9).
struct WorkerIdleBlame {
  WorkerId worker;
  std::string name;
  double total_idle_s = 0.0;
  std::array<double, kNumIdleCauses> by_cause{};
};

/// δ(t,a) accuracy for one (codelet, arch) bucket over the executed tasks.
struct ModelAccuracy {
  std::string codelet;
  ArchType arch = ArchType::CPU;
  std::size_t samples = 0;
  double mean_abs_err_s = 0.0;  ///< mean |predicted − observed|
  double mean_rel_err = 0.0;    ///< mean |predicted − observed| / observed
  double bias_s = 0.0;          ///< mean (predicted − observed); > 0 = over-predicts
};

class RunAnalysis {
 public:
  /// `obs` (optional) supplies the decision events the blame decomposition
  /// keys off (POP_REJECT for eviction, WORKER_LOST for loss drain); without
  /// it every non-dep-wait gap falls back to starvation/drain. `predicted`
  /// (optional) is the per-task δ(t, executed arch) the scheduler believed
  /// at pop time — the engine's predicted_durations() — and enables the model
  /// audit. The arguments are only read during construction.
  RunAnalysis(const Trace& trace, const TaskGraph& graph, const Platform& platform,
              const PerfDatabase& perf, const RecordingObserver* obs = nullptr,
              std::span<const double> predicted = {});

  [[nodiscard]] double makespan_s() const { return makespan_s_; }
  [[nodiscard]] double gflops() const { return gflops_; }

  // --- where the time went ---------------------------------------------------

  /// Busiest first (CPU + GPU busy seconds).
  [[nodiscard]] const std::vector<CodeletReport>& codelets() const { return codelets_; }
  /// One entry per platform memory node, node id order.
  [[nodiscard]] const std::vector<NodeReport>& nodes() const { return nodes_; }

  // --- critical path over the *executed* schedule --------------------------

  /// Longest task-end → dependent-start chain of the executed schedule.
  [[nodiscard]] const std::vector<TaskId>& critical_path() const { return cp_tasks_; }
  /// Execution seconds spent on that chain.
  [[nodiscard]] double critical_path_exec_s() const { return cp_exec_s_; }

  // --- lower bounds and efficiency -----------------------------------------

  /// Area bound: optimal makespan of the fractional-allocation relaxation
  /// (each task divisible across its capable archs, no dependencies).
  [[nodiscard]] double area_bound_s() const { return area_bound_s_; }
  /// Critical-path bound: longest DAG path, each task at its best-arch time.
  [[nodiscard]] double cp_bound_s() const { return cp_bound_s_; }
  /// The binding lower bound: max(area, critical path).
  [[nodiscard]] double bound_s() const;

  /// bound_s / makespan in (0, 1]: 1.0 = provably unimprovable schedule.
  [[nodiscard]] double efficiency() const;
  /// area_bound_s / makespan — the ratio the bench regression gate checks.
  [[nodiscard]] double area_efficiency() const;

  // --- idle blame -----------------------------------------------------------

  /// One entry per platform worker, worker id order.
  [[nodiscard]] const std::vector<WorkerIdleBlame>& idle_blame() const { return idle_; }
  [[nodiscard]] double total_idle_s() const { return total_idle_s_; }
  /// Sum of one cause over all workers.
  [[nodiscard]] double idle_cause_total(IdleCause c) const;

  // --- perf-model audit -------------------------------------------------------

  /// Sorted by (codelet, arch); empty when no predictions were supplied.
  [[nodiscard]] const std::vector<ModelAccuracy>& model_accuracy() const {
    return model_;
  }
  /// Mean absolute δ error over every executed task (0 without predictions).
  [[nodiscard]] double model_mean_abs_err_s() const { return model_mae_s_; }

  /// The observer's EventLog overwrote events; the eviction/drain split of
  /// the blame decomposition may be under-attributed (totals still sum).
  [[nodiscard]] bool events_truncated() const { return events_truncated_; }

  /// Human-readable report: bounds, efficiency, codelet and node tables,
  /// blame table, model table.
  [[nodiscard]] std::string to_string() const;

 private:
  void compute_bounds(const TaskGraph& graph, const Platform& platform,
                      const PerfDatabase& perf);
  void compute_tables(const Trace& trace, const TaskGraph& graph,
                      const Platform& platform);
  void compute_critical_path(const Trace& trace, const TaskGraph& graph);
  void compute_idle_blame(const Trace& trace, const Platform& platform,
                          const RecordingObserver* obs);
  void compute_model_audit(const Trace& trace, const TaskGraph& graph,
                           const Platform& platform, std::span<const double> predicted);

  double makespan_s_ = 0.0;
  double gflops_ = 0.0;
  std::vector<CodeletReport> codelets_;
  std::vector<NodeReport> nodes_;
  std::vector<TaskId> cp_tasks_;
  double cp_exec_s_ = 0.0;
  double area_bound_s_ = 0.0;
  double cp_bound_s_ = 0.0;
  std::vector<WorkerIdleBlame> idle_;
  double total_idle_s_ = 0.0;
  std::vector<ModelAccuracy> model_;
  double model_mae_s_ = 0.0;
  bool events_truncated_ = false;
};

}  // namespace mp
