// Controlled-scheduler implementation (MP_VERIFY builds only; normal builds
// compile this TU to nothing). See controller.hpp for the model.
#ifdef MP_VERIFY

#include "verify/controller.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "verify/explore.hpp"
#include "verify/mutation.hpp"
#include "verify/sync.hpp"

namespace mp {

/// Grants the controller access to the shim types' managed-mode fields.
class verify_controller_access {
 public:
  static bool& held(VMutex& m) { return m.v_held_; }
  static std::uint32_t& owner(VMutex& m) { return m.v_owner_; }
  static bool held_value(const VMutex& m) { return m.v_held_; }
};

namespace verify {

// v_held_ is guarded by the controller's big lock; probes run on the
// releasing thread with that lock held, so this read is race-free in the
// only context it is meant for. Outside an exploration it is always false.
bool mutex_is_held(const VMutex& m) {
  return verify_controller_access::held_value(m);
}

namespace {

using access = verify_controller_access;

/// Internal unwind for a schedule that overran its step budget.
struct RunAbort {};

constexpr double kTimeQuantum = 1e-6;  // logical seconds per visible op

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::MutexLock: return "lock";
    case OpKind::MutexUnlock: return "unlock";
    case OpKind::CvWait: return "cv-wait";
    case OpKind::CvNotify: return "cv-notify";
    case OpKind::AtomicLoad: return "a-load";
    case OpKind::AtomicStore: return "a-store";
    case OpKind::AtomicRmw: return "a-rmw";
    case OpKind::Yield: return "yield";
    case OpKind::ThreadSpawn: return "spawn";
    case OpKind::ThreadJoin: return "join";
    case OpKind::ThreadExit: return "exit";
    case OpKind::TimeRead: return "time";
    case OpKind::Sleep: return "sleep";
  }
  return "?";
}

bool op_is_read(OpKind k) {
  return k == OpKind::AtomicLoad || k == OpKind::TimeRead || k == OpKind::Yield;
}

/// Partial-order independence: ops on different objects always commute;
/// on the same object only two reads do. Objectless ops are thread-local.
bool ops_independent(OpKind k1, const void* o1, OpKind k2, const void* o2) {
  if (o1 == nullptr || o2 == nullptr) return true;
  if (o1 != o2) return true;
  return op_is_read(k1) && op_is_read(k2);
}

}  // namespace

struct ManagedThread {
  enum class Status { Runnable, BlockedMutex, BlockedCv, BlockedCvTimed, BlockedJoin, Finished };

  std::uint32_t id = 0;
  Status status = Status::Runnable;
  const void* wait_obj = nullptr;
  bool timed_out = false;  ///< last cv wake was a modelled timeout
  bool active = false;     ///< holds the run token
  int mutexes_held = 0;
  // The published pending op (about to execute).
  OpKind pk = OpKind::Yield;
  const void* pobj = nullptr;
  const char* pwhat = "thread.start";
  std::function<void()> body;
  std::thread os;
  double priority = 0.0;  // PCT
};

namespace {

class Controller;
Controller* g_active = nullptr;           // set for the duration of explore()
thread_local ManagedThread* tls_self = nullptr;
thread_local bool tls_in_probe = false;
Mutation g_mutation = Mutation::None;

class Controller {
 public:
  explicit Controller(const ExploreConfig& cfg) : cfg_(cfg) {}

  ExploreResult run_all(const std::function<void()>& body) {
    ExploreResult res;
    for (std::size_t i = 0; i < cfg_.max_schedules; ++i) {
      run_one(body, i);
      ++res.schedules;
      if (violation_) {
        res.violation = true;
        res.violation_message = violation_msg_;
        res.violation_trace = format_trace();
        break;
      }
      if (truncated_) ++res.truncated;
      if (timed_out_) ++res.timeout_schedules;
      if (cfg_.mode == ExploreConfig::Mode::Exhaustive && !advance_dfs()) {
        res.exhausted = true;
        break;
      }
    }
    return res;
  }

  // ---- shim entry points (called by the active managed thread) -----------

  void op_point(OpKind k, const void* obj, const char* what) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    // Explicit yield points preempt only outside critical sections: a
    // correctly locked region must not explode the schedule tree, while a
    // *skipped* lock leaves these points preemptible — which is exactly how
    // the skipped-lock mutation becomes observable.
    if (k == OpKind::Yield && self->mutexes_held > 0) return;
    publish(self, k, obj, what);
    yield_token(lk, self);
    execute_record(self);
  }

  void mutex_lock(VMutex* m) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::MutexLock, m, "mutex.lock");
    yield_token(lk, self);
    acquire_locked(lk, self, m);
    execute_record(self);
  }

  bool mutex_try_lock(VMutex* m) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::MutexLock, m, "mutex.try_lock");
    yield_token(lk, self);
    const bool ok = !access::held(*m);
    if (ok) {
      access::held(*m) = true;
      access::owner(*m) = self->id;
      ++self->mutexes_held;
    }
    execute_record(self);
    return ok;
  }

  void mutex_unlock(VMutex* m) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    // Unlike every other visible op, an unlock must not throw while the run
    // is being torn down: it is reached from unique_lock/lock_guard
    // destructors during ViolationUnwind/RunAbort unwinding, where a second
    // exception would escalate straight to std::terminate. Release the
    // managed state silently instead.
    if (stop_ || abort_run_) {
      if (access::held(*m) && access::owner(*m) == self->id)
        release_locked(self, m);
      return;
    }
    publish(self, OpKind::MutexUnlock, m, "mutex.unlock");
    // No pre-unlock preemption: an unlock only enables behaviour, and every
    // op of another thread commutes with it (sleep sets would prune the
    // duplicate order anyway).
    if (!access::held(*m) || access::owner(*m) != self->id)
      violation_and_throw("unlock of a mutex this thread does not hold");
    release_locked(self, m);
    execute_record(self);
    try {
      run_probes(lk, m);
    } catch (ViolationUnwind&) {
      // A probe tripped at this unlock. The violation and stop_ are already
      // recorded (set_violation_locked ran inside the probe), but this unlock
      // may be a lock_guard/unique_lock destructor, where letting the
      // exception continue would hit std::terminate. Return normally instead:
      // every managed thread — including this one — unwinds at its next
      // visible op via check_unwind, from a throw-safe context.
    }
  }

  void cv_wait(VCondVar* cv, VMutex* m, bool timed, bool* timeout_out) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::CvWait, cv, timed ? "cv.wait_for" : "cv.wait");
    yield_token(lk, self);
    if (!access::held(*m) || access::owner(*m) != self->id)
      violation_and_throw("condition wait without holding the mutex");
    execute_record(self);
    release_locked(self, m);
    run_probes(lk, m);
    self->status = timed ? ManagedThread::Status::BlockedCvTimed
                         : ManagedThread::Status::BlockedCv;
    self->wait_obj = cv;
    self->timed_out = false;
    transfer_away(lk, self);
    const bool timeout = self->timed_out;
    self->timed_out = false;
    // Reacquire the mutex before returning, as a real condition wait does.
    publish(self, OpKind::MutexLock, m, "cv.reacquire");
    acquire_locked(lk, self, m);
    execute_record(self);
    if (timeout_out != nullptr) *timeout_out = timeout;
  }

  void cv_notify(VCondVar* cv, bool all) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::CvNotify, cv, all ? "cv.notify_all" : "cv.notify_one");
    yield_token(lk, self);
    execute_record(self);
    for (auto& t : threads_) {
      if (t->wait_obj != cv) continue;
      if (t->status != ManagedThread::Status::BlockedCv &&
          t->status != ManagedThread::Status::BlockedCvTimed)
        continue;
      t->status = ManagedThread::Status::Runnable;
      t->wait_obj = nullptr;
      t->timed_out = false;
      if (!all) break;
    }
  }

  ManagedThread* thread_spawn(std::function<void()> fn) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::ThreadSpawn, nullptr, "thread.spawn");
    yield_token(lk, self);
    auto t = std::make_unique<ManagedThread>();
    t->id = next_tid_++;
    t->body = std::move(fn);
    t->priority = next_priority();
    ManagedThread* raw = t.get();
    threads_.push_back(std::move(t));
    raw->os = std::thread([this, raw] { thread_main(raw); });
    execute_record(self);
    return raw;
  }

  void thread_join(ManagedThread* target) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::ThreadJoin, target, "thread.join");
    yield_token(lk, self);
    while (target->status != ManagedThread::Status::Finished) {
      self->status = ManagedThread::Status::BlockedJoin;
      self->wait_obj = target;
      transfer_away(lk, self);
    }
    execute_record(self);
  }

  double now_seconds() {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::TimeRead, nullptr, "clock.read");
    yield_token(lk, self);
    execute_record(self);
    return logical_time_;
  }

  void sleep_for(double seconds) {
    std::unique_lock lk(big_);
    ManagedThread* self = tls_self;
    check_unwind();
    publish(self, OpKind::Sleep, nullptr, "thread.sleep");
    yield_token(lk, self);
    execute_record(self);
    logical_time_ += seconds;
  }

  // ---- probes and violations ---------------------------------------------

  std::uint64_t add_probe(const VMutex* guard, std::function<void()> check) {
    std::lock_guard lk(big_);
    probes_.push_back(Probe{++next_probe_id_, guard, std::move(check)});
    return next_probe_id_;
  }

  void remove_probe(std::uint64_t id) {
    std::lock_guard lk(big_);
    std::erase_if(probes_, [id](const Probe& p) { return p.id == id; });
  }

  /// Requires big_ held (or called from probe context on the active thread).
  void set_violation_locked(const std::string& msg) {
    if (!violation_) {
      violation_ = true;
      violation_msg_ = msg;
    }
    stop_ = true;
    cv_.notify_all();
  }

  void violation_from_thread(const std::string& msg, bool big_held) {
    std::unique_lock lk(big_, std::defer_lock);
    if (!big_held) lk.lock();
    set_violation_locked(msg);
    unwind();
  }

  [[nodiscard]] bool in_probe() const { return tls_in_probe; }

 private:
  struct Probe {
    std::uint64_t id;
    const VMutex* guard;
    std::function<void()> check;
  };

  struct Node {
    std::vector<std::uint32_t> enabled;  // runnable tids, ascending
    std::set<std::uint32_t> sleep;       // choices proven redundant/explored
    std::uint32_t chosen = 0;
  };

  // ---- per-schedule driver -----------------------------------------------

  void run_one(const std::function<void()>& body, std::size_t index) {
    {
      std::unique_lock lk(big_);
      threads_.clear();  // previous run's threads were joined below
      next_tid_ = 0;
      steps_.clear();
      step_count_ = 0;
      logical_time_ = 0.0;
      branch_idx_ = 0;
      sleep_now_.clear();
      stop_ = false;
      abort_run_ = false;
      truncated_ = false;
      timed_out_ = false;
      run_done_ = false;
      if (cfg_.mode == ExploreConfig::Mode::Pct) {
        rng_.seed(cfg_.seed + index);
        next_demoted_ = -1.0;
        change_points_.clear();
        const std::size_t horizon = std::max<std::size_t>(
            64, last_run_steps_ > 0 ? last_run_steps_ : 4096);
        for (std::size_t i = 1; i < cfg_.pct_depth; ++i)
          change_points_.insert(rng_() % horizon + 1);
      }
      auto root = std::make_unique<ManagedThread>();
      root->id = next_tid_++;
      root->body = body;
      root->priority = next_priority();
      ManagedThread* raw = root.get();
      threads_.push_back(std::move(root));
      raw->os = std::thread([this, raw] { thread_main(raw); });
      raw->active = true;  // initial token
      cv_.notify_all();
      cv_.wait(lk, [this] { return run_done_; });
      last_run_steps_ = step_count_;
    }
    for (auto& t : threads_)
      if (t->os.joinable()) t->os.join();
  }

  void thread_main(ManagedThread* self) {
    tls_self = self;
    bool run_body = false;
    {
      std::unique_lock lk(big_);
      cv_.wait(lk, [&] { return self->active || stop_ || abort_run_; });
      run_body = !stop_ && !abort_run_;
    }
    if (run_body) {
      try {
        self->body();
      } catch (ViolationUnwind&) {     // unwound by the controller
      } catch (RunAbort&) {            // step budget exceeded
      } catch (const std::exception& e) {
        std::lock_guard lk(big_);
        set_violation_locked(std::string("unhandled exception in managed thread: ") +
                             e.what());
      } catch (...) {
        std::lock_guard lk(big_);
        set_violation_locked("unhandled non-std exception in managed thread");
      }
    }
    thread_exit(self);
    tls_self = nullptr;
  }

  void thread_exit(ManagedThread* self) {
    std::unique_lock lk(big_);
    self->status = ManagedThread::Status::Finished;
    self->active = false;
    if (!stop_ && !abort_run_) {
      publish(self, OpKind::ThreadExit, self, "thread.exit");
      record_step(self);
      for (auto& t : threads_) {
        if (t->status == ManagedThread::Status::BlockedJoin && t->wait_obj == self) {
          t->status = ManagedThread::Status::Runnable;
          t->wait_obj = nullptr;
        }
      }
      ManagedThread* next = nullptr;
      try {
        next = pick_next(nullptr);
      } catch (...) {
        // strategy_choose flagged a replay divergence; the violation is
        // recorded and stop_ is set — nothing to dispatch.
      }
      if (next != nullptr) {
        next->active = true;
        cv_.notify_all();
      } else if (!stop_ && !all_finished()) {
        set_violation_locked(deadlock_message());
      }
    }
    if (all_finished()) run_done_ = true;
    cv_.notify_all();  // also wakes a body thread waiting in unwind()
  }

  // ---- token passing ------------------------------------------------------

  void check_unwind() {
    if (stop_ || abort_run_) unwind();
  }

  /// Throws the run's unwind exception; requires big_ held and stop_ or
  /// abort_run_ set. Every other managed thread is woken by then and may
  /// still run (one whose unlock tripped a probe runs on unmanaged) or
  /// unwind through objects the body thread owns, such as the executor's
  /// scheduler. So the body thread (tid 0) unwinds last: it first waits,
  /// big_ released meanwhile, until every other thread has finished.
  [[noreturn]] void unwind() {
    const ManagedThread* self = tls_self;
    if (self != nullptr && self->id == 0) {
      std::unique_lock lk(big_, std::adopt_lock);
      cv_.wait(lk, [&] {
        return std::all_of(threads_.begin(), threads_.end(), [&](const auto& t) {
          return t.get() == self || t->status == ManagedThread::Status::Finished;
        });
      });
      lk.release();  // big_ stays held for the caller's own lock
    }
    if (stop_) throw ViolationUnwind{};
    throw RunAbort{};
  }

  void publish(ManagedThread* self, OpKind k, const void* obj, const char* what) {
    self->pk = k;
    self->pobj = obj;
    self->pwhat = what;
  }

  /// Scheduling decision; may hand the token to another thread and block
  /// until it comes back. On return the caller holds the token.
  void yield_token(std::unique_lock<std::mutex>& lk, ManagedThread* self) {
    ManagedThread* next = decide(lk, self);
    if (next == self) return;
    next->active = true;
    self->active = false;
    cv_.notify_all();
    cv_.wait(lk, [&] {
      return (self->active && self->status == ManagedThread::Status::Runnable) ||
             stop_ || abort_run_;
    });
    check_unwind();
  }

  /// Gives up the token while `self` is blocked; returns once `self` is
  /// Runnable again and re-scheduled.
  void transfer_away(std::unique_lock<std::mutex>& lk, ManagedThread* self) {
    self->active = false;
    ManagedThread* next = pick_next(nullptr);
    if (next != nullptr) {
      next->active = true;
      cv_.notify_all();
    } else if (!stop_ && !abort_run_ && !all_finished()) {
      set_violation_locked(deadlock_message());
    }
    cv_.wait(lk, [&] {
      return (self->active && self->status == ManagedThread::Status::Runnable) ||
             stop_ || abort_run_;
    });
    check_unwind();
  }

  void acquire_locked(std::unique_lock<std::mutex>& lk, ManagedThread* self,
                      VMutex* m) {
    while (access::held(*m)) {
      self->status = ManagedThread::Status::BlockedMutex;
      self->wait_obj = m;
      transfer_away(lk, self);
    }
    access::held(*m) = true;
    access::owner(*m) = self->id;
    ++self->mutexes_held;
  }

  void release_locked(ManagedThread* self, VMutex* m) {
    access::held(*m) = false;
    --self->mutexes_held;
    for (auto& t : threads_) {
      if (t->status == ManagedThread::Status::BlockedMutex && t->wait_obj == m) {
        t->status = ManagedThread::Status::Runnable;
        t->wait_obj = nullptr;
      }
    }
  }

  [[noreturn]] void violation_and_throw(const std::string& msg) {
    set_violation_locked(msg);
    unwind();
  }

  /// Invariant probes for `m` run on the releasing thread, with the shim in
  /// passthrough mode (tls_in_probe) so probe code may use shim primitives
  /// without re-entering the controller.
  void run_probes(std::unique_lock<std::mutex>& /*lk — held, unwinds on throw*/,
                  const VMutex* m) {
    for (const Probe& p : probes_) {
      if (p.guard != m) continue;
      tls_in_probe = true;
      try {
        p.check();
      } catch (...) {
        // A failing probe threw ViolationUnwind (via report_violation or a
        // tripped MP_CHECK); `lk` unwinds big_ in the caller's scope.
        tls_in_probe = false;
        throw;
      }
      tls_in_probe = false;
    }
  }

  // ---- scheduling strategies ---------------------------------------------

  [[nodiscard]] bool all_finished() const {
    for (const auto& t : threads_)
      if (t->status != ManagedThread::Status::Finished) return false;
    return true;
  }

  std::vector<ManagedThread*> runnable_threads() {
    std::vector<ManagedThread*> out;
    for (auto& t : threads_)
      if (t->status == ManagedThread::Status::Runnable) out.push_back(t.get());
    return out;
  }

  /// Next thread to run when the current one cannot continue (or exited).
  /// Models cv timeouts: when nothing is runnable but timed waiters exist,
  /// they all time out (the explorer then branches over who proceeds).
  ManagedThread* pick_next(ManagedThread* /*hint*/) {
    auto r = runnable_threads();
    if (r.empty()) {
      bool woke = false;
      for (auto& t : threads_) {
        if (t->status == ManagedThread::Status::BlockedCvTimed) {
          t->status = ManagedThread::Status::Runnable;
          t->wait_obj = nullptr;
          t->timed_out = true;
          woke = true;
        }
      }
      if (woke) {
        timed_out_ = true;
        r = runnable_threads();
      }
    }
    if (r.empty()) return nullptr;
    if (r.size() == 1) return r.front();
    return strategy_choose(r);
  }

  /// Decision point taken by the running thread itself.
  ManagedThread* decide(std::unique_lock<std::mutex>& lk, ManagedThread* self) {
    auto r = runnable_threads();
    if (r.size() <= 1) return self;
    ManagedThread* next = strategy_choose(r);
    (void)lk;
    return next;
  }

  ManagedThread* strategy_choose(const std::vector<ManagedThread*>& runnable) {
    if (cfg_.mode == ExploreConfig::Mode::Pct) {
      ManagedThread* best = runnable.front();
      for (ManagedThread* t : runnable)
        if (t->priority > best->priority) best = t;
      return best;
    }
    // Partial-order reduction: a pending objectless op (clock read, spawn,
    // thread start) is independent with every other transition — see
    // ops_independent — so running it first is a singleton persistent set
    // and needs no DFS branch. This collapses the orderings of thread-local
    // steps, which otherwise dominate the schedule tree. (The logical clock
    // is shared, but it is a modelling device: its value never feeds back
    // into explored control flow, so clock reads count as thread-local.)
    for (ManagedThread* t : runnable)
      if (t->pobj == nullptr) return t;
    // Exhaustive DFS over branching points.
    std::vector<std::uint32_t> enabled;
    enabled.reserve(runnable.size());
    for (ManagedThread* t : runnable) enabled.push_back(t->id);
    std::sort(enabled.begin(), enabled.end());
    std::uint32_t chosen;
    if (branch_idx_ < tree_.size()) {
      Node& n = tree_[branch_idx_];
      if (n.enabled != enabled) {
        violation_and_throw(
            "internal: schedule replay diverged (body is nondeterministic "
            "beyond thread interleaving)");
      }
      sleep_now_ = n.sleep;
      chosen = n.chosen;
    } else {
      Node n;
      n.enabled = enabled;
      n.sleep = sleep_now_;
      chosen = enabled.front();
      for (std::uint32_t tid : enabled) {
        if (sleep_now_.count(tid) == 0) {
          chosen = tid;
          break;
        }
      }
      n.chosen = chosen;
      tree_.push_back(std::move(n));
    }
    ++branch_idx_;
    for (ManagedThread* t : runnable)
      if (t->id == chosen) return t;
    violation_and_throw("internal: chosen thread not runnable at replay");
  }

  /// DFS backtrack: put the finished choice to sleep, pick the next sibling
  /// not yet proven redundant; false once the whole tree is explored.
  bool advance_dfs() {
    while (!tree_.empty()) {
      Node& n = tree_.back();
      n.sleep.insert(n.chosen);
      for (std::uint32_t tid : n.enabled) {
        if (n.sleep.count(tid) == 0) {
          n.chosen = tid;
          return true;
        }
      }
      tree_.pop_back();
    }
    return false;
  }

  // ---- executed-op bookkeeping -------------------------------------------

  void record_step(ManagedThread* self) {
    steps_.push_back(Step{self->id, self->pk, self->pobj, self->pwhat});
  }

  void execute_record(ManagedThread* self) {
    record_step(self);
    ++step_count_;
    logical_time_ += kTimeQuantum;
    if (step_count_ > cfg_.max_steps) {
      truncated_ = true;
      abort_run_ = true;
      cv_.notify_all();
      unwind();
    }
    if (cfg_.mode == ExploreConfig::Mode::Exhaustive && !sleep_now_.empty()) {
      // Sleep-set propagation: the executed transition wakes every sleeping
      // choice it does not commute with.
      sleep_now_.erase(self->id);
      for (auto it = sleep_now_.begin(); it != sleep_now_.end();) {
        const ManagedThread* q = thread_by_id(*it);
        if (q != nullptr &&
            !ops_independent(q->pk, q->pobj, self->pk, self->pobj)) {
          it = sleep_now_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (cfg_.mode == ExploreConfig::Mode::Pct &&
        change_points_.count(step_count_) != 0) {
      self->priority = next_demoted_;
      next_demoted_ -= 1.0;
    }
  }

  [[nodiscard]] const ManagedThread* thread_by_id(std::uint32_t id) const {
    for (const auto& t : threads_)
      if (t->id == id) return t.get();
    return nullptr;
  }

  double next_priority() {
    if (cfg_.mode != ExploreConfig::Mode::Pct) return 0.0;
    return static_cast<double>(rng_() % 1000003) + 1.0;
  }

  std::string deadlock_message() {
    std::ostringstream os;
    os << "deadlock: no runnable thread (";
    for (const auto& t : threads_) {
      os << 't' << t->id << '=';
      switch (t->status) {
        case ManagedThread::Status::Runnable: os << "runnable"; break;
        case ManagedThread::Status::BlockedMutex: os << "mutex"; break;
        case ManagedThread::Status::BlockedCv: os << "cv"; break;
        case ManagedThread::Status::BlockedCvTimed: os << "cv-timed"; break;
        case ManagedThread::Status::BlockedJoin: os << "join"; break;
        case ManagedThread::Status::Finished: os << "done"; break;
      }
      os << ' ';
    }
    os << ')';
    return os.str();
  }

  std::string format_trace() {
    std::ostringstream os;
    os << "schedule trace (" << steps_.size() << " visible ops):\n";
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      const Step& s = steps_[i];
      os << "  #" << i << " t" << s.tid << ' ' << op_name(s.k) << ' ' << s.what;
      if (s.obj != nullptr) os << " obj=" << s.obj;
      os << '\n';
    }
    return os.str();
  }

  struct Step {
    std::uint32_t tid;
    OpKind k;
    const void* obj;
    const char* what;
  };

  ExploreConfig cfg_;
  std::mutex big_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<ManagedThread>> threads_;
  std::uint32_t next_tid_ = 0;
  bool stop_ = false;       // violation: unwind everything
  bool abort_run_ = false;  // budget overrun: unwind, not a violation
  bool truncated_ = false;
  bool timed_out_ = false;  // this schedule modelled a cv timeout
  bool run_done_ = false;
  bool violation_ = false;
  std::string violation_msg_;
  std::vector<Step> steps_;
  std::size_t step_count_ = 0;
  std::size_t last_run_steps_ = 0;
  double logical_time_ = 0.0;
  // Exhaustive mode.
  std::vector<Node> tree_;
  std::size_t branch_idx_ = 0;
  std::set<std::uint32_t> sleep_now_;
  // PCT mode.
  std::mt19937_64 rng_{1};
  std::set<std::size_t> change_points_;
  double next_demoted_ = -1.0;
  // Probes.
  std::vector<Probe> probes_;
  std::uint64_t next_probe_id_ = 0;
};

}  // namespace

// ---- shim glue -------------------------------------------------------------

bool managed() {
  return g_active != nullptr && tls_self != nullptr && !tls_in_probe;
}

void op_point(OpKind kind, const void* obj, const char* what) {
  g_active->op_point(kind, obj, what);
}
void ctl_mutex_lock(VMutex* m) { g_active->mutex_lock(m); }
bool ctl_mutex_try_lock(VMutex* m) { return g_active->mutex_try_lock(m); }
void ctl_mutex_unlock(VMutex* m) { g_active->mutex_unlock(m); }
void ctl_cv_wait(VCondVar* cv, VMutex* m) { g_active->cv_wait(cv, m, false, nullptr); }
bool ctl_cv_wait_timed(VCondVar* cv, VMutex* m) {
  bool timeout = false;
  g_active->cv_wait(cv, m, true, &timeout);
  return !timeout;
}
void ctl_cv_notify(VCondVar* cv, bool all) { g_active->cv_notify(cv, all); }
double ctl_now_seconds() { return g_active->now_seconds(); }
void ctl_sleep(double seconds) { g_active->sleep_for(seconds); }
ManagedThread* ctl_thread_spawn(std::function<void()> fn) {
  return g_active->thread_spawn(std::move(fn));
}
void ctl_thread_join(ManagedThread* t) { g_active->thread_join(t); }

// ---- probes / violations ----------------------------------------------------

ScopedProbe::ScopedProbe(const VMutex* guard, std::function<void()> check) {
  if (g_active != nullptr) id_ = g_active->add_probe(guard, std::move(check));
}

ScopedProbe::~ScopedProbe() {
  if (g_active != nullptr && id_ != 0) g_active->remove_probe(id_);
}

void report_violation(const std::string& msg) {
  if (g_active != nullptr && tls_self != nullptr) {
    g_active->violation_from_thread(msg, tls_in_probe);
  }
  std::fprintf(stderr, "verification violation: %s\n", msg.c_str());
  std::abort();
}

void check_fail_hook(const char* expr, const char* file, int line, const char* msg) {
  if (g_active != nullptr && tls_self != nullptr) {
    std::ostringstream os;
    os << "MP_CHECK failed: " << expr << " at " << file << ':' << line;
    if (msg != nullptr && msg[0] != '\0') os << " — " << msg;
    g_active->violation_from_thread(os.str(), tls_in_probe);
  }
  std::fprintf(stderr, "MP_CHECK failed: %s\n  at %s:%d\n  %s\n", expr, file, line,
               msg != nullptr ? msg : "");
  std::abort();
}

// ---- mutations --------------------------------------------------------------

void set_active_mutation(Mutation m) { g_mutation = m; }
Mutation active_mutation() { return g_mutation; }

// ---- explorer entry ---------------------------------------------------------

bool exploration_supported() { return true; }

ExploreResult explore(const std::function<void()>& body, const ExploreConfig& cfg) {
  if (g_active != nullptr) {
    std::fprintf(stderr, "explore() is not reentrant\n");
    std::abort();
  }
  Controller ctl(cfg);
  g_active = &ctl;
  ExploreResult res = ctl.run_all(body);
  g_active = nullptr;
  return res;
}

}  // namespace verify
}  // namespace mp

#endif  // MP_VERIFY
