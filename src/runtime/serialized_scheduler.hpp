// SerializedScheduler: gives any ExternalLock policy the Internal contract
// (see SchedConcurrency), so a threaded engine needs only one worker loop.
//
// Every call into the wrapped policy runs under SchedContext::push_mu, the
// engine's push-side mutex: push-side calls and on_task_end already hold it,
// the adapter takes it for every other call. Sharing push_mu also orders the
// policy's δ(t,a) reads against the engine's HistoryModel writes, which hold
// it. A null push_mu (single-threaded engines) means no locking: a pure
// forwarder.
//
// Two critical sections per executed task: a successful pop forwards the
// worker's on_task_start in the same section (a threaded engine starts every
// task it pops), and on_task_end shares the section of the completion's
// release batch. Each section that can change the policy's state ends with
// one bump of one epoch, and notifies one condvar when a worker is parked.
// A worker reads the epoch before its pop and waits for it to move under the
// same lock, so a change between the failed pop and the wait cannot be
// missed.
#pragma once

#include <chrono>
#include <memory>

#include "common/check.hpp"
#include "runtime/scheduler.hpp"
#include "verify/mutation.hpp"

namespace mp {

class SerializedScheduler final : public Scheduler {
 public:
  SerializedScheduler(SchedContext ctx, std::unique_ptr<Scheduler> inner)
      : Scheduler(std::move(ctx)), inner_(std::move(inner)), mu_(ctx_.push_mu) {
    MP_CHECK(inner_ != nullptr);
  }

  // Push side (and on_task_end below): the caller holds push_mu.
  void push(TaskId t) override { inner_->push(t); bump(); }
  void push_batch(const std::vector<TaskId>& ts) override { inner_->push_batch(ts); bump(); }
  void repush(TaskId t) override { inner_->repush(t); bump(); }
  [[nodiscard]] std::vector<TaskId> notify_worker_removed(WorkerId w) override {
    bump();  // waiters re-check only once the caller releases push_mu
    return inner_->notify_worker_removed(w);
  }

  [[nodiscard]] std::optional<TaskId> pop(WorkerId w) override {
    // Seeded mutation SkipExecutorLock: pop without the lock, so two workers
    // can interleave inside the wrapped policy (constant-false outside
    // MP_VERIFY builds).
    std::unique_lock<Mutex> lock;
    if (!verify::mutation_active(verify::Mutation::SkipExecutorLock)) lock = guard();
    const std::optional<TaskId> t = inner_->pop(w);
    if (t) {
      if (mu_ != nullptr) inner_->on_task_start(*t, w);
      bump();
    }
    return t;
  }
  /// Threaded engines: already forwarded by the pop that handed out `t`.
  void on_task_start(TaskId t, WorkerId w) override {
    if (mu_ == nullptr) inner_->on_task_start(t, w);
  }
  /// The caller holds push_mu and pushes the completion's release batch in
  /// the same critical section; that push_batch() bumps for both.
  void on_task_end(TaskId t, WorkerId w) override { inner_->on_task_end(t, w); }
  [[nodiscard]] std::size_t pending_count() const override {
    const auto lock = guard();
    return inner_->pending_count();
  }
  /// Single-threaded engines only (see Scheduler), so no lock.
  [[nodiscard]] bool has_work_hint(WorkerId w) const override { return inner_->has_work_hint(w); }

  [[nodiscard]] SchedConcurrency concurrency() const override { return SchedConcurrency::Internal; }
  /// One epoch for every worker; a relaxed read, no lock.
  [[nodiscard]] std::uint64_t work_epoch(WorkerId /*w*/) const override { return epoch_.load(); }
  /// Without push_mu, or once the epoch has moved, this returns at once
  /// (spurious returns are safe).
  void wait_for_work(WorkerId /*w*/, std::uint64_t seen, double timeout_s,
                     const std::function<bool()>& cancel) override {
    if (mu_ == nullptr || epoch_.load() != seen) return;
    std::unique_lock<Mutex> lock(*mu_);
    ++waiters_;
    (void)cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return cancel() || epoch_.load() != seen; });
    --waiters_;
  }
  /// Under the lock, so the notify cannot slip between a waiter's predicate
  /// check and its wait.
  void interrupt_waiters() override {
    const auto lock = guard();
    if (waiters_ > 0) cv_.notify_all();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  /// The wrapped policy (invariant probes look through the adapter).
  [[nodiscard]] Scheduler& inner() { return *inner_; }

 private:
  [[nodiscard]] std::unique_lock<Mutex> guard() const {
    return mu_ != nullptr ? std::unique_lock<Mutex>(*mu_) : std::unique_lock<Mutex>();
  }
  /// Requires push_mu (if any), under which waiters_ is exact.
  void bump() {
    epoch_.fetch_add(1);
    if (waiters_ > 0) cv_.notify_all();
  }

  std::unique_ptr<Scheduler> inner_;
  Mutex* mu_;
  CondVar cv_;
  RelaxedAtomic<std::uint64_t> epoch_{0};
  std::uint32_t waiters_ = 0;  ///< workers inside wait_for_work()
};

}  // namespace mp
