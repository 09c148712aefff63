#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/csv.hpp"
#include "obs/observer.hpp"

namespace mp {

namespace {

/// Best-arch duration of `t` over the archs it can actually run on (an
/// implementation exists and the platform has a worker of that arch).
/// Returns 0 for tasks no worker could ever run (abandoned before push).
double best_duration(const TaskGraph& graph, const Platform& platform,
                     const PerfDatabase& perf, TaskId t) {
  double best = 0.0;
  for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
    const auto a = static_cast<ArchType>(ai);
    if (!graph.can_exec(t, a) || platform.worker_count(a) == 0) continue;
    const double d = perf.ground_truth(graph, t, a);
    if (best == 0.0 || d < best) best = d;
  }
  return best;
}

}  // namespace

RunAnalysis::RunAnalysis(const Trace& trace, const TaskGraph& graph,
                         const Platform& platform, const PerfDatabase& perf,
                         const RecordingObserver* obs, std::span<const double> predicted)
    : makespan_s_(trace.makespan()), gflops_(trace.gflops()) {
  compute_tables(trace, graph, platform);
  compute_bounds(graph, platform, perf);
  compute_critical_path(trace, graph);
  compute_idle_blame(trace, platform, obs);
  compute_model_audit(trace, graph, platform, predicted);
  if (obs != nullptr && obs->events().dropped() > 0) events_truncated_ = true;
}

void RunAnalysis::compute_tables(const Trace& trace, const TaskGraph& graph,
                                 const Platform& platform) {
  nodes_.resize(platform.num_nodes());
  for (std::size_t mi = 0; mi < platform.num_nodes(); ++mi) {
    NodeReport& nr = nodes_[mi];
    nr.node = MemNodeId{mi};
    nr.name = platform.node(nr.node).name;
    nr.idle_fraction = trace.idle_fraction_node(nr.node);
  }
  std::map<std::string, CodeletReport> by_codelet;
  for (const TraceSegment& s : trace.segments()) {
    const Worker& w = platform.worker(s.worker);
    const double busy = s.end - s.exec_start;
    const std::string& name = graph.codelet_of(s.task).name;
    CodeletReport& cr = by_codelet[name];
    cr.codelet = name;
    if (w.arch == ArchType::GPU) {
      ++cr.count_gpu;
      cr.busy_gpu_s += busy;
    } else {
      ++cr.count_cpu;
      cr.busy_cpu_s += busy;
    }
    cr.stall_s += s.data_stall;
    ++nodes_[w.node.index()].tasks;
    nodes_[w.node.index()].busy_s += busy;
  }
  for (auto& [_, cr] : by_codelet) codelets_.push_back(cr);
  std::sort(codelets_.begin(), codelets_.end(), [](const auto& a, const auto& b) {
    return a.busy_cpu_s + a.busy_gpu_s > b.busy_cpu_s + b.busy_gpu_s;
  });
}

void RunAnalysis::compute_bounds(const TaskGraph& graph, const Platform& platform,
                                 const PerfDatabase& perf) {
  const std::size_t n = graph.num_tasks();

  // Critical-path bound: longest path through the DAG with every task at its
  // best-arch analytic time — no schedule can beat the chain it must
  // serialize. Task ids are topological (STF: dependencies point backwards),
  // so one reverse sweep computes the downward rank exactly.
  std::vector<double> down(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    const TaskId t{i};
    double tail = 0.0;
    for (TaskId s : graph.successors(t)) tail = std::max(tail, down[s.index()]);
    down[i] = best_duration(graph, platform, perf, t) + tail;
    cp_bound_s_ = std::max(cp_bound_s_, down[i]);
  }

  // Area bound: the makespan of the dependency-free fractional relaxation —
  // each task divisible across its capable archs, each arch a a pool of
  // n_a identical workers (Beaumont & Marchal's heterogeneous area bound).
  // With two arch classes the LP solves exactly by bisection on T: the
  // feasibility check is a fractional knapsack (fill the GPU pool with the
  // tasks saving the most CPU seconds per GPU second).
  const std::size_t n_cpu = platform.worker_count(ArchType::CPU);
  const std::size_t n_gpu = platform.worker_count(ArchType::GPU);
  double fixed_cpu = 0.0, fixed_gpu = 0.0;
  struct DualTask {
    double d_cpu, d_gpu;
  };
  std::vector<DualTask> dual;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t{i};
    const bool on_cpu = n_cpu > 0 && graph.can_exec(t, ArchType::CPU);
    const bool on_gpu = n_gpu > 0 && graph.can_exec(t, ArchType::GPU);
    if (on_cpu && on_gpu) {
      dual.push_back(DualTask{perf.ground_truth(graph, t, ArchType::CPU),
                              perf.ground_truth(graph, t, ArchType::GPU)});
    } else if (on_cpu) {
      fixed_cpu += perf.ground_truth(graph, t, ArchType::CPU);
    } else if (on_gpu) {
      fixed_gpu += perf.ground_truth(graph, t, ArchType::GPU);
    }
  }
  if (n_cpu == 0 && n_gpu == 0) return;
  if (n_cpu == 0 || n_gpu == 0) {
    double load = n_cpu == 0 ? fixed_gpu : fixed_cpu;
    for (const DualTask& d : dual) load += n_cpu == 0 ? d.d_gpu : d.d_cpu;
    area_bound_s_ = load / static_cast<double>(std::max<std::size_t>(1, n_cpu + n_gpu));
    return;
  }
  // CPU seconds saved per GPU second spent, best savers first.
  std::sort(dual.begin(), dual.end(), [](const DualTask& a, const DualTask& b) {
    return a.d_cpu * b.d_gpu > b.d_cpu * a.d_gpu;
  });
  const auto feasible = [&](double T) {
    const double cap_cpu = static_cast<double>(n_cpu) * T - fixed_cpu;
    double gpu_left = static_cast<double>(n_gpu) * T - fixed_gpu;
    if (cap_cpu < 0.0 || gpu_left < 0.0) return false;
    double need_cpu = 0.0;  // minimal CPU load given the GPU capacity
    for (const DualTask& d : dual) {
      if (gpu_left >= d.d_gpu) {
        gpu_left -= d.d_gpu;
      } else {
        const double gpu_frac = d.d_gpu > 0.0 ? gpu_left / d.d_gpu : 1.0;
        need_cpu += d.d_cpu * (1.0 - gpu_frac);
        gpu_left = 0.0;
      }
    }
    return need_cpu <= cap_cpu;
  };
  // Upper bound: everything on its faster arch is one feasible point.
  double hi_cpu = fixed_cpu, hi_gpu = fixed_gpu;
  for (const DualTask& d : dual) (d.d_gpu < d.d_cpu ? hi_gpu : hi_cpu) += std::min(d.d_cpu, d.d_gpu);
  double hi = std::max(hi_cpu / static_cast<double>(n_cpu),
                       hi_gpu / static_cast<double>(n_gpu));
  double lo = 0.0;
  for (int iter = 0; iter < 100 && hi - lo > 0.0; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (feasible(mid) ? hi : lo) = mid;
  }
  area_bound_s_ = hi;
}

void RunAnalysis::compute_critical_path(const Trace& trace, const TaskGraph& graph) {
  cp_tasks_ = trace.practical_critical_path();
  std::vector<double> exec_s(graph.num_tasks(), 0.0);
  for (const TraceSegment& s : trace.segments())
    exec_s[s.task.index()] = s.end - s.exec_start;
  for (TaskId t : cp_tasks_) cp_exec_s_ += exec_s[t.index()];
}

void RunAnalysis::compute_idle_blame(const Trace& trace, const Platform& platform,
                                     const RecordingObserver* obs) {
  const double makespan = makespan_s_;
  const std::size_t nw = platform.num_workers();

  // Per-worker decision context from the event log: pop_condition reject
  // times (→ eviction blame) and the fail-stop loss time (→ drain).
  std::vector<std::vector<double>> rejects(nw);
  std::vector<double> lost_at(nw, makespan + 1.0);
  if (obs != nullptr) {
    for (const SchedEvent& e : obs->events().snapshot()) {
      if (!e.worker.valid() || e.worker.index() >= nw) continue;
      if (e.kind == SchedEventKind::PopReject) rejects[e.worker.index()].push_back(e.time);
      if (e.kind == SchedEventKind::WorkerLost)
        lost_at[e.worker.index()] = std::min(lost_at[e.worker.index()], e.time);
    }
    for (auto& r : rejects) std::sort(r.begin(), r.end());
  }

  struct Seg {
    double start, end, stall;
  };
  std::vector<std::vector<Seg>> segs(nw);
  double last_exec_start = 0.0;  // platform-wide: when runnable work last remained
  for (const TraceSegment& s : trace.segments()) {
    segs[s.worker.index()].push_back(Seg{s.exec_start, s.end, s.data_stall});
    last_exec_start = std::max(last_exec_start, s.exec_start);
  }
  for (auto& v : segs)
    std::sort(v.begin(), v.end(), [](const Seg& a, const Seg& b) { return a.start < b.start; });

  idle_.resize(nw);
  for (std::size_t wi = 0; wi < nw; ++wi) {
    WorkerIdleBlame& blame = idle_[wi];
    blame.worker = WorkerId{wi};
    blame.name = platform.worker(blame.worker).name;
    blame.total_idle_s = std::max(0.0, makespan - trace.busy_time(blame.worker));
    total_idle_s_ += blame.total_idle_s;

    // Attribute one idle gap [g0, g1): loss-drain tail first, then the
    // dep-wait tail the next task's data stall covers, then the remainder
    // goes to eviction, starvation or drain. Reject evidence is searched
    // from `win0` — the *previous* segment's exec start — not g0: the
    // engines pipeline pops, so the refusals explaining a gap often fire
    // while the worker is still finishing its last task. And once MultiPrio
    // evicts, the task leaves this worker's heap for good, so the refusals
    // stop while the parking persists: a reject-evidenced terminal gap stays
    // eviction for as long as the platform still had work starting, and only
    // the true tail (nothing left to start anywhere) counts as drain.
    const auto attribute = [&](double g0, double g1, const Seg* next, double win0) {
      if (lost_at[wi] < g1) {
        const double cut = std::max(g0, lost_at[wi]);
        blame.by_cause[static_cast<std::size_t>(IdleCause::Drain)] += g1 - cut;
        g1 = cut;
      }
      if (g1 <= g0) return;
      if (next != nullptr) {
        const double dep = std::min(next->stall, g1 - g0);
        blame.by_cause[static_cast<std::size_t>(IdleCause::DepWait)] += dep;
        g1 -= dep;
        if (g1 <= g0) return;
      }
      const auto& rj = rejects[wi];
      const auto first = std::lower_bound(rj.begin(), rj.end(), win0);
      const auto last = std::upper_bound(first, rj.end(), g1);
      if (first == last) {
        const IdleCause c = next != nullptr ? IdleCause::Starvation : IdleCause::Drain;
        blame.by_cause[static_cast<std::size_t>(c)] += g1 - g0;
      } else if (next != nullptr) {
        blame.by_cause[static_cast<std::size_t>(IdleCause::Eviction)] += g1 - g0;
      } else {
        // Terminal gap: eviction-parked up to the later of the last refusal
        // and the platform's last task start, drained after.
        const double parked = std::max(*std::prev(last), last_exec_start);
        const double split = std::clamp(parked, g0, g1);
        blame.by_cause[static_cast<std::size_t>(IdleCause::Eviction)] += split - g0;
        blame.by_cause[static_cast<std::size_t>(IdleCause::Drain)] += g1 - split;
      }
    };

    double cursor = 0.0;
    double win0 = 0.0;
    for (const Seg& s : segs[wi]) {
      if (s.start > cursor) attribute(cursor, s.start, &s, win0);
      cursor = std::max(cursor, s.end);
      win0 = std::max(win0, s.start);
    }
    if (makespan > cursor) attribute(cursor, makespan, nullptr, win0);
  }
}

void RunAnalysis::compute_model_audit(const Trace& trace, const TaskGraph& graph,
                                      const Platform& platform,
                                      std::span<const double> predicted) {
  if (predicted.empty()) return;
  struct Acc {
    std::size_t n = 0;
    double abs_err = 0.0, rel_err = 0.0, signed_err = 0.0;
  };
  std::map<std::pair<std::string, std::size_t>, Acc> by_bucket;
  double total_abs = 0.0;
  std::size_t total_n = 0;
  for (const TraceSegment& s : trace.segments()) {
    if (s.task.index() >= predicted.size()) continue;
    const double pred = predicted[s.task.index()];
    if (!(pred > 0.0)) continue;  // never popped through the history model
    const double observed = s.end - s.exec_start;
    const ArchType arch = platform.worker(s.worker).arch;
    Acc& acc = by_bucket[{graph.codelet_of(s.task).name, arch_index(arch)}];
    ++acc.n;
    acc.abs_err += std::abs(pred - observed);
    if (observed > 0.0) acc.rel_err += std::abs(pred - observed) / observed;
    acc.signed_err += pred - observed;
    total_abs += std::abs(pred - observed);
    ++total_n;
  }
  for (const auto& [key, acc] : by_bucket) {
    ModelAccuracy m;
    m.codelet = key.first;
    m.arch = static_cast<ArchType>(key.second);
    m.samples = acc.n;
    m.mean_abs_err_s = acc.abs_err / static_cast<double>(acc.n);
    m.mean_rel_err = acc.rel_err / static_cast<double>(acc.n);
    m.bias_s = acc.signed_err / static_cast<double>(acc.n);
    model_.push_back(m);
  }
  if (total_n > 0) model_mae_s_ = total_abs / static_cast<double>(total_n);
}

double RunAnalysis::bound_s() const { return std::max(area_bound_s_, cp_bound_s_); }

double RunAnalysis::efficiency() const {
  return makespan_s_ > 0.0 ? bound_s() / makespan_s_ : 0.0;
}

double RunAnalysis::area_efficiency() const {
  return makespan_s_ > 0.0 ? area_bound_s_ / makespan_s_ : 0.0;
}

double RunAnalysis::idle_cause_total(IdleCause c) const {
  double sum = 0.0;
  for (const WorkerIdleBlame& b : idle_) sum += b.by_cause[static_cast<std::size_t>(c)];
  return sum;
}

std::string RunAnalysis::to_string() const {
  std::ostringstream os;
  const double mk = makespan_s_;
  os << "makespan " << fmt_double(mk, 4) << " s; lower bounds: area "
     << fmt_double(area_bound_s_, 4) << " s, critical path " << fmt_double(cp_bound_s_, 4)
     << " s\n";
  os << "efficiency vs bound " << fmt_double(efficiency(), 3) << " (area "
     << fmt_double(area_efficiency(), 3) << ", cp "
     << fmt_double(mk > 0.0 ? cp_bound_s_ / mk : 0.0, 3) << ")\n";
  os << "executed critical path: " << cp_tasks_.size() << " tasks, "
     << fmt_double(cp_exec_s_, 4) << " s exec ("
     << fmt_percent(mk > 0.0 ? cp_exec_s_ / mk : 0.0) << " of makespan)\n";
  if (events_truncated_)
    os << "WARNING: event log truncated; eviction/drain attribution is partial\n";

  Table ct({"codelet", "on CPU", "on GPU", "CPU busy (s)", "GPU busy (s)", "stall (s)"});
  for (const CodeletReport& c : codelets_) {
    ct.add_row({c.codelet, std::to_string(c.count_cpu), std::to_string(c.count_gpu),
                fmt_double(c.busy_cpu_s, 3), fmt_double(c.busy_gpu_s, 3),
                fmt_double(c.stall_s, 3)});
  }
  Table nt({"node", "tasks", "busy (s)", "idle"});
  for (const NodeReport& n : nodes_) {
    nt.add_row({n.name, std::to_string(n.tasks), fmt_double(n.busy_s, 3),
                fmt_percent(n.idle_fraction)});
  }
  os << ct.to_ascii() << nt.to_ascii();

  Table bt({"worker", "idle (s)", "starvation", "eviction", "dep-wait", "drain"});
  for (const WorkerIdleBlame& b : idle_) {
    bt.add_row({b.name, fmt_double(b.total_idle_s, 4),
                fmt_double(b.by_cause[0], 4), fmt_double(b.by_cause[1], 4),
                fmt_double(b.by_cause[2], 4), fmt_double(b.by_cause[3], 4)});
  }
  bt.add_row({"TOTAL", fmt_double(total_idle_s_, 4),
              fmt_double(idle_cause_total(IdleCause::Starvation), 4),
              fmt_double(idle_cause_total(IdleCause::Eviction), 4),
              fmt_double(idle_cause_total(IdleCause::DepWait), 4),
              fmt_double(idle_cause_total(IdleCause::Drain), 4)});
  os << "idle blame:\n" << bt.to_ascii();

  if (!model_.empty()) {
    Table mt({"codelet", "arch", "samples", "MAE (s)", "mean rel err", "bias (s)"});
    for (const ModelAccuracy& m : model_) {
      mt.add_row({m.codelet, arch_name(m.arch), std::to_string(m.samples),
                  fmt_double(m.mean_abs_err_s, 6), fmt_double(m.mean_rel_err, 4),
                  fmt_double(m.bias_s, 6)});
    }
    os << "perf-model accuracy (predicted vs observed):\n" << mt.to_ascii();
    os << "overall MAE " << fmt_double(model_mae_s_, 6) << " s\n";
  }
  return os.str();
}

}  // namespace mp
