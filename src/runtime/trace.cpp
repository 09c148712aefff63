#include "runtime/trace.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/csv.hpp"

namespace mp {

Trace::Trace(const TaskGraph& graph, const Platform& platform)
    : graph_(graph), platform_(platform) {
  busy_.assign(platform.num_workers(), 0.0);
  end_.assign(graph.num_tasks(), std::numeric_limits<double>::quiet_NaN());
  segments_.reserve(graph.num_tasks());
}

void Trace::record(TraceSegment seg) {
  MP_CHECK(seg.task.valid() && seg.task.index() < graph_.num_tasks());
  MP_CHECK(seg.worker.valid() && seg.worker.index() < platform_.num_workers());
  MP_CHECK(seg.fetch_start <= seg.exec_start && seg.exec_start <= seg.end);
  MP_CHECK_MSG(!executed(seg.task), "task executed twice");
  for (TaskId p : graph_.predecessors(seg.task)) {
    MP_CHECK_MSG(executed(p), "predecessor never executed");
    MP_CHECK_MSG(end_[p.index()] <= seg.fetch_start + 1e-12, "dependency violated");
  }
  end_[seg.task.index()] = seg.end;
  busy_[seg.worker.index()] += seg.end - seg.exec_start;
  fetch_stall_ += seg.data_stall;
  makespan_ = std::max(makespan_, seg.end);
  segments_.push_back(seg);
}

double Trace::makespan() const { return makespan_; }

double Trace::busy_time(WorkerId w) const {
  MP_CHECK(w.index() < busy_.size());
  return busy_[w.index()];
}

double Trace::idle_fraction(WorkerId w) const {
  if (makespan_ <= 0.0) return 0.0;
  return 1.0 - busy_time(w) / makespan_;
}

double Trace::idle_fraction_node(MemNodeId m) const {
  const auto& ws = platform_.workers_of_node(m);
  if (ws.empty() || makespan_ <= 0.0) return 0.0;
  double idle = 0.0;
  for (WorkerId w : ws) idle += idle_fraction(w);
  return idle / static_cast<double>(ws.size());
}

double Trace::total_fetch_stall() const { return fetch_stall_; }

double Trace::gflops() const {
  if (makespan_ <= 0.0) return 0.0;
  return graph_.total_flops() / makespan_ / 1e9;
}

std::vector<TaskId> Trace::practical_critical_path() const {
  std::vector<TaskId> path;
  if (segments_.empty()) return path;
  // Start from the last-finishing task.
  const TraceSegment* last = &segments_.front();
  for (const TraceSegment& s : segments_)
    if (s.end > last->end) last = &s;
  TaskId cur = last->task;
  while (true) {
    path.push_back(cur);
    TaskId next;
    for (TaskId p : graph_.predecessors(cur))
      if (executed(p) && (!next.valid() || end_[p.index()] > end_[next.index()])) next = p;
    if (!next.valid()) break;
    cur = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Trace::to_csv() const {
  Table t({"task", "name", "codelet", "worker", "arch", "fetch_start", "exec_start", "end"});
  for (const TraceSegment& s : segments_) {
    t.add_row({std::to_string(s.task.value()), graph_.label(s.task),
               graph_.codelet_of(s.task).name, std::to_string(s.worker.value()),
               arch_name(platform_.worker(s.worker).arch), fmt_double(s.fetch_start, 9),
               fmt_double(s.exec_start, 9), fmt_double(s.end, 9)});
  }
  return t.to_csv();
}

std::string Trace::ascii_gantt(std::size_t columns) const {
  std::ostringstream os;
  if (makespan_ <= 0.0 || columns == 0) return os.str();
  const double dt = makespan_ / static_cast<double>(columns);
  for (std::size_t wi = 0; wi < platform_.num_workers(); ++wi) {
    std::string row(columns, '.');
    for (const TraceSegment& s : segments_) {
      if (s.worker.index() != wi) continue;
      auto col = [&](double t) {
        return std::min(columns - 1, static_cast<std::size_t>(t / dt));
      };
      // Dashes mark true data stalls only (pipelined waits are idle time).
      for (std::size_t c = col(std::max(0.0, s.exec_start - s.data_stall));
           c <= col(s.exec_start); ++c)
        row[c] = '-';
      for (std::size_t c = col(s.exec_start); c <= col(s.end - 1e-15); ++c) row[c] = '#';
    }
    os << platform_.worker(WorkerId{wi}).name << " |" << row << "|\n";
  }
  return os.str();
}

}  // namespace mp
