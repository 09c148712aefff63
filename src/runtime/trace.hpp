// Execution traces and their analysis (the StarVZ-style quantities of
// Fig. 4: makespan, idle % per resource, practical critical path).
//
// One Trace records a run on either engine: TaskLifecycle owns it and records
// a segment per successful attempt (virtual seconds in the simulator, wall
// seconds since run start in the threaded executor). Recording checks
// dependency order as it goes, so a finished trace needs no validation pass.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "runtime/platform.hpp"
#include "runtime/task_graph.hpp"

namespace mp {

/// One executed task instance.
struct TraceSegment {
  TaskId task;
  WorkerId worker;
  double fetch_start = 0.0;  ///< when the worker committed to the task
  double exec_start = 0.0;   ///< when data was in place and execution began
  double end = 0.0;
  /// Time the worker truly waited on data (excludes pipelined overlap).
  double data_stall = 0.0;
};

class Trace {
 public:
  Trace(const TaskGraph& graph, const Platform& platform);

  /// Appends `seg`. Aborts on a task executed twice, on a predecessor with
  /// no recorded segment, and on one that ended after `seg.fetch_start`
  /// (1e-12 tolerance).
  void record(TraceSegment seg);

  [[nodiscard]] const std::vector<TraceSegment>& segments() const { return segments_; }
  [[nodiscard]] std::size_t num_executed() const { return segments_.size(); }
  [[nodiscard]] bool executed(TaskId t) const { return !std::isnan(end_[t.index()]); }

  /// Completion time of the whole DAG.
  [[nodiscard]] double makespan() const;

  /// Busy time (exec only) of one worker.
  [[nodiscard]] double busy_time(WorkerId w) const;

  /// Idle fraction of one worker over the makespan (1 − busy/makespan).
  [[nodiscard]] double idle_fraction(WorkerId w) const;

  /// Mean idle fraction over the workers of `m` (Fig. 4's per-resource idle %).
  [[nodiscard]] double idle_fraction_node(MemNodeId m) const;

  /// Time spent stalled on data transfers, summed over workers.
  [[nodiscard]] double total_fetch_stall() const;

  /// Achieved GFlop/s (graph total flops / makespan).
  [[nodiscard]] double gflops() const;

  /// Practical critical path: walks back from the last-finishing task
  /// through the predecessor that finished last; returns the chain in
  /// execution order (StarVZ's highlighted chain in Fig. 4).
  [[nodiscard]] std::vector<TaskId> practical_critical_path() const;

  /// CSV export: one row per segment.
  [[nodiscard]] std::string to_csv() const;

  /// Compact ASCII Gantt (for examples / quick looks), one row per worker.
  [[nodiscard]] std::string ascii_gantt(std::size_t columns = 80) const;

 private:
  const TaskGraph& graph_;
  const Platform& platform_;
  std::vector<TraceSegment> segments_;
  std::vector<double> busy_;                  // per worker
  std::vector<double> end_;                   // per task; NaN until executed
  double makespan_ = 0.0;
  double fetch_stall_ = 0.0;
};

}  // namespace mp
