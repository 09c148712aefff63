#include "fault/task_lifecycle.hpp"

#include <cmath>
#include <string>

#include "common/check.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"

namespace mp {

TaskLifecycle::TaskLifecycle(const SchedContext& ctx, const FaultPlan& plan)
    : ctx_(ctx),
      retry_budget_(plan.retry_budget),
      attempts_(ctx.graph->num_tasks(), 0),
      abandoned_(ctx.graph->num_tasks(), false) {
  const TaskGraph& graph = *ctx_.graph;
  const Platform& platform = *ctx_.platform;
  if (!plan.empty()) injector_ = std::make_unique<FaultInjector>(plan, graph);
  for (const WorkerLossSpec& l : plan.worker_losses)
    MP_CHECK_MSG(l.worker.index() < platform.num_workers(),
                 "fault plan kills a worker the platform does not have");
  // The audit's instruments, one pair per (codelet, arch) a worker of the
  // platform can run, resolved once so a completion costs no name lookup.
  MetricsRegistry* metrics = obs_enabled(ctx_) ? ctx_.observer->metrics() : nullptr;
  if (metrics == nullptr) return;
  audit_.resize(graph.num_codelets() * kNumArchTypes);
  for (std::size_t c = 0; c < graph.num_codelets(); ++c) {
    const Codelet& cl = graph.codelet(CodeletId{c});
    for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
      const auto a = static_cast<ArchType>(ai);
      if (!cl.can_exec(a) || platform.worker_count(a) == 0) continue;
      const std::string suffix = cl.name + "." + arch_name(a);
      audit_[c * kNumArchTypes + ai] = {&metrics->histogram("perf_model.abs_err_s." + suffix),
                                        &metrics->histogram("perf_model.rel_err." + suffix)};
    }
  }
}

bool TaskLifecycle::attempt_fails(TaskId t, std::size_t attempt) const {
  return injector_ != nullptr && injector_->fail_attempt(t, attempt);
}

double TaskLifecycle::attempt_multiplier(TaskId t, std::size_t attempt) const {
  return injector_ != nullptr ? injector_->duration_multiplier(t, attempt) : 1.0;
}

void TaskLifecycle::emit(SchedEventKind kind, TaskId t, WorkerId w) const {
  if (!obs_enabled(ctx_)) return;
  SchedEvent e = make_event(ctx_, kind, t);
  e.worker = w;
  if (w.valid()) e.node = ctx_.platform->worker(w).node;
  if (t.valid()) e.attempt = static_cast<std::uint32_t>(attempts_[t.index()]);
  ctx_.observer->record(e);
}

void TaskLifecycle::straggled(TaskId t, WorkerId w, double multiplier) {
  if (multiplier == 1.0) return;
  ++stats_.stragglers_injected;
  emit(SchedEventKind::FaultStraggler, t, w);
}

bool TaskLifecycle::failed(TaskId t, WorkerId w) {
  ++stats_.failures_injected;
  const std::size_t failures = ++attempts_[t.index()];
  emit(SchedEventKind::FaultFailure, t, w);
  if (failures > retry_budget_) {
    abandon(t);
    return false;
  }
  requeued(t, w);
  return true;
}

void TaskLifecycle::requeued(TaskId t, WorkerId w) {
  ++stats_.retries;
  emit(SchedEventKind::Repush, t, w);
}

void TaskLifecycle::worker_lost(WorkerId w) {
  ++stats_.workers_lost;
  emit(SchedEventKind::WorkerLost, TaskId{}, w);
}

void TaskLifecycle::abandon(TaskId t) {
  // abandoned_ doubles as the visited set of the closure walk.
  std::vector<TaskId> frontier{t};
  while (!frontier.empty()) {
    const TaskId cur = frontier.back();
    frontier.pop_back();
    if (abandoned_[cur.index()]) continue;
    abandoned_[cur.index()] = true;
    ++stats_.tasks_abandoned;
    emit(SchedEventKind::TaskAbandoned, cur, WorkerId{});
    for (TaskId s : ctx_.graph->successors(cur)) frontier.push_back(s);
  }
}

void TaskLifecycle::completed(TaskId t, WorkerId w, double predicted, double duration) {
  ++executed_;
  if (!audits()) return;
  // Pop-time prediction against the realized duration, bucketed per
  // (codelet, arch) so a report can call out which δ(t,a) entries lied.
  const AuditHistograms& h = audit_[ctx_.graph->task(t).codelet.index() * kNumArchTypes +
                                    arch_index(ctx_.platform->worker(w).arch)];
  MP_CHECK_MSG(h.abs_err != nullptr, "task ran on an arch its codelet lacks");
  const double err = std::abs(predicted - duration);
  h.abs_err->observe(err);
  if (duration > 0.0) h.rel_err->observe(err / duration);
}

FaultStats TaskLifecycle::finish() {
  MP_CHECK_MSG(settled() == ctx_.graph->num_tasks(),
               "run ended with tasks neither executed nor abandoned");
  stats_.degraded = stats_.workers_lost > 0 || stats_.tasks_abandoned > 0;
  return stats_;
}

}  // namespace mp
