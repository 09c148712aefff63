// TimedScheduler: a forwarding Scheduler that times every engine→policy call
// from outside the policy. The benchmark's traced runs wrap the real policy
// in it; untraced runs use the bare policy.
//
// It overrides every virtual of mp::Scheduler. A missed override would
// silently fall back to the base default — ExternalLock concurrency, an
// epoch of 0, a no-op wait — and switch the engine onto another protocol,
// so main.cpp checks that traced and untraced runs agree.
//
// The ThreadExecutor calls pop(), wait_for_work() and on_task_start/end()
// from several workers at once, so every tally is a relaxed atomic. Task
// start times are per worker: only worker w's own thread touches slot w.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace mpbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one traced run's policy calls cost, as seen from the engine.
struct PolicyTally {
  explicit PolicyTally(std::size_t workers) : task_start_ns(workers) {}

  std::atomic<std::uint64_t> pushed{0};    ///< tasks handed over by push-side calls
  std::atomic<std::uint64_t> push_ns{0};   ///< time in push / push_batch / repush
  std::atomic<std::uint64_t> pop_calls{0};
  std::atomic<std::uint64_t> pop_hits{0};  ///< pops that returned a task
  std::atomic<std::uint64_t> pop_ns{0};
  std::atomic<std::uint64_t> other_ns{0};  ///< every other call except parking
  std::atomic<std::uint64_t> parks{0};     ///< wait_for_work calls
  std::atomic<std::uint64_t> park_ns{0};
  /// Parks that lasted the full timeout: the worker was rescued by the
  /// timeout, not woken by a push.
  std::atomic<std::uint64_t> stall_timeouts{0};
  /// Those of them after which the worker's node epoch had moved: work did
  /// arrive for the node, but its wakeup never reached this worker.
  std::atomic<std::uint64_t> lost_wakeups{0};
  std::atomic<std::uint64_t> work_epoch_calls{0};
  std::atomic<std::uint64_t> busy_ns{0};   ///< Σ on_task_start → on_task_end
  std::vector<std::int64_t> task_start_ns;

  /// Time spent inside the policy (parking excluded: that is idle time).
  [[nodiscard]] std::uint64_t policy_ns() const {
    return push_ns.load() + pop_ns.load() + other_ns.load();
  }
};

class TimedScheduler final : public mp::Scheduler {
 public:
  TimedScheduler(mp::SchedContext ctx, std::unique_ptr<mp::Scheduler> inner,
                 PolicyTally& tally)
      : Scheduler(std::move(ctx)), inner_(std::move(inner)), tally_(tally) {}

  void push(mp::TaskId t) override {
    const std::int64_t t0 = now_ns();
    inner_->push(t);
    add(tally_.push_ns, t0);
    tally_.pushed.fetch_add(1, kRelaxed);
  }

  [[nodiscard]] std::optional<mp::TaskId> pop(mp::WorkerId w) override {
    const std::int64_t t0 = now_ns();
    std::optional<mp::TaskId> t = inner_->pop(w);
    add(tally_.pop_ns, t0);
    tally_.pop_calls.fetch_add(1, kRelaxed);
    if (t) tally_.pop_hits.fetch_add(1, kRelaxed);
    return t;
  }

  [[nodiscard]] mp::SchedConcurrency concurrency() const override {
    return inner_->concurrency();
  }

  void push_batch(const std::vector<mp::TaskId>& ts) override {
    const std::int64_t t0 = now_ns();
    inner_->push_batch(ts);
    add(tally_.push_ns, t0);
    tally_.pushed.fetch_add(ts.size(), kRelaxed);
  }

  [[nodiscard]] std::uint64_t work_epoch(mp::WorkerId w) const override {
    const std::int64_t t0 = now_ns();
    const std::uint64_t e = inner_->work_epoch(w);
    add(tally_.other_ns, t0);
    tally_.work_epoch_calls.fetch_add(1, kRelaxed);
    return e;
  }

  void wait_for_work(mp::WorkerId w, std::uint64_t seen, double timeout_s,
                     const std::function<bool()>& cancel) override {
    const std::int64_t t0 = now_ns();
    inner_->wait_for_work(w, seen, timeout_s, cancel);
    const std::int64_t parked = now_ns() - t0;
    tally_.parks.fetch_add(1, kRelaxed);
    tally_.park_ns.fetch_add(static_cast<std::uint64_t>(parked), kRelaxed);
    if (static_cast<double>(parked) >= timeout_s * 1e9) {
      tally_.stall_timeouts.fetch_add(1, kRelaxed);
      if (inner_->work_epoch(w) != seen) tally_.lost_wakeups.fetch_add(1, kRelaxed);
    }
  }

  void interrupt_waiters() override {
    const std::int64_t t0 = now_ns();
    inner_->interrupt_waiters();
    add(tally_.other_ns, t0);
  }

  void repush(mp::TaskId t) override {
    const std::int64_t t0 = now_ns();
    inner_->repush(t);
    add(tally_.push_ns, t0);
    tally_.pushed.fetch_add(1, kRelaxed);
  }

  [[nodiscard]] std::vector<mp::TaskId> notify_worker_removed(mp::WorkerId w) override {
    const std::int64_t t0 = now_ns();
    std::vector<mp::TaskId> orphans = inner_->notify_worker_removed(w);
    add(tally_.other_ns, t0);
    return orphans;
  }

  [[nodiscard]] std::vector<mp::TaskId> drain_unplaced() override {
    const std::int64_t t0 = now_ns();
    std::vector<mp::TaskId> unplaced = inner_->drain_unplaced();
    add(tally_.other_ns, t0);
    return unplaced;
  }

  void on_task_start(mp::TaskId t, mp::WorkerId w) override {
    const std::int64_t t0 = now_ns();
    inner_->on_task_start(t, w);
    const std::int64_t t1 = now_ns();
    tally_.other_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0), kRelaxed);
    tally_.task_start_ns[w.index()] = t1;
  }

  void on_task_end(mp::TaskId t, mp::WorkerId w) override {
    const std::int64_t t0 = now_ns();
    tally_.busy_ns.fetch_add(
        static_cast<std::uint64_t>(t0 - tally_.task_start_ns[w.index()]), kRelaxed);
    inner_->on_task_end(t, w);
    add(tally_.other_ns, t0);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::size_t pending_count() const override {
    const std::int64_t t0 = now_ns();
    const std::size_t n = inner_->pending_count();
    add(tally_.other_ns, t0);
    return n;
  }

  [[nodiscard]] bool has_work_hint(mp::WorkerId w) const override {
    const std::int64_t t0 = now_ns();
    const bool hint = inner_->has_work_hint(w);
    add(tally_.other_ns, t0);
    return hint;
  }

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  static void add(std::atomic<std::uint64_t>& sum, std::int64_t since) {
    sum.fetch_add(static_cast<std::uint64_t>(now_ns() - since), kRelaxed);
  }

  std::unique_ptr<mp::Scheduler> inner_;
  PolicyTally& tally_;
};

}  // namespace mpbench
