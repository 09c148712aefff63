// mp::sync — the concurrency shim every concurrency-bearing layer of the
// runtime builds on.
//
// In normal builds (MP_VERIFY off) the names below are plain aliases of the
// std primitives: zero code, zero overhead, identical semantics. Under
// -DMP_VERIFY=1 they become *controlled* primitives that route every
// acquire/release/load/store through mp::verify::Controller, the
// deterministic interleaving explorer (src/verify/controller.hpp): exactly
// one managed thread runs at a time, the explorer picks who proceeds at
// every visible operation, and structural-invariant probes fire whenever a
// mutex is released. Outside an active exploration the controlled types
// fall back to their embedded std primitives, so a verify build still runs
// the ordinary test suite correctly.
//
// The custom lint (tools/lint.sh) rejects naked std::mutex / std::thread /
// std::atomic anywhere in src/ outside this directory — all runtime code
// must go through this header so the explorer sees every synchronization
// event.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#ifdef MP_VERIFY

namespace mp {

class VMutex;
class VCondVar;

namespace verify {

/// Visible-operation kinds, the alphabet of a schedule trace.
enum class OpKind {
  MutexLock,
  MutexUnlock,
  CvWait,
  CvNotify,
  AtomicLoad,
  AtomicStore,
  AtomicRmw,
  Yield,
  ThreadSpawn,
  ThreadJoin,
  ThreadExit,
  TimeRead,
  Sleep,
};

/// True when the calling thread is managed by an active exploration (and is
/// not currently inside an invariant probe). All shim fast paths branch on
/// this single predicate.
[[nodiscard]] bool managed();

/// True when some managed thread currently holds `m` (the managed-mode view;
/// always false outside an exploration). Probe-context helper: invariant
/// oracles that audit state guarded by locks *finer* than the probe's own
/// guard use it as a quiescence gate — skip the audit while a suspended
/// thread sits inside one of those critical sections.
[[nodiscard]] bool mutex_is_held(const VMutex& m);

/// Announce + possibly preempt before a non-blocking visible op.
void op_point(OpKind kind, const void* obj, const char* what);

// Blocking-op entry points (implemented by the Controller).
void ctl_mutex_lock(VMutex* m);
bool ctl_mutex_try_lock(VMutex* m);
void ctl_mutex_unlock(VMutex* m);
void ctl_cv_wait(VCondVar* cv, VMutex* m);
/// Timed wait; returns false when the wake was a (modelled) timeout.
bool ctl_cv_wait_timed(VCondVar* cv, VMutex* m);
void ctl_cv_notify(VCondVar* cv, bool all);
[[nodiscard]] double ctl_now_seconds();
void ctl_sleep(double seconds);

struct ManagedThread;  // opaque handle (controller-internal)
ManagedThread* ctl_thread_spawn(std::function<void()> fn);
void ctl_thread_join(ManagedThread* t);

}  // namespace verify

/// Controlled std::mutex. Managed mode never touches `real_`: mutual
/// exclusion is enforced by the controller's one-runnable-thread token, and
/// `v_held_`/`v_owner_` only exist so the explorer can tell who may proceed
/// (and so a double-unlock or an unlock by a non-owner is a violation, not
/// silent UB).
class VMutex {
 public:
  VMutex() = default;
  VMutex(const VMutex&) = delete;
  VMutex& operator=(const VMutex&) = delete;

  void lock() {
    if (verify::managed()) {
      verify::ctl_mutex_lock(this);
      return;
    }
    real_.lock();
  }
  bool try_lock() {
    if (verify::managed()) return verify::ctl_mutex_try_lock(this);
    return real_.try_lock();
  }
  void unlock() {
    if (verify::managed()) {
      verify::ctl_mutex_unlock(this);
      return;
    }
    real_.unlock();
  }

 private:
  friend class verify_controller_access;
  std::mutex real_;
  // Managed-mode state, guarded by the controller's own lock.
  bool v_held_ = false;
  std::uint32_t v_owner_ = 0;
};

/// Controlled condition variable over VMutex. The unmanaged path uses
/// condition_variable_any (VMutex is a BasicLockable, not std::mutex).
class VCondVar {
 public:
  VCondVar() = default;
  VCondVar(const VCondVar&) = delete;
  VCondVar& operator=(const VCondVar&) = delete;

  void notify_one() {
    if (verify::managed()) {
      verify::ctl_cv_notify(this, false);
      return;
    }
    real_.notify_one();
  }
  void notify_all() {
    if (verify::managed()) {
      verify::ctl_cv_notify(this, true);
      return;
    }
    real_.notify_all();
  }

  void wait(std::unique_lock<VMutex>& lk) {
    if (verify::managed()) {
      verify::ctl_cv_wait(this, lk.mutex());
      return;
    }
    real_.wait(lk);
  }

  template <typename Pred>
  void wait(std::unique_lock<VMutex>& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  /// Timed predicate wait. Managed mode has no wall clock: the "timeout"
  /// fires exactly when the explorer decides no untimed progress is
  /// possible, which both models arbitrarily slow threads and keeps
  /// exploration deadlock-free for code that uses timed retries.
  template <typename Rep, typename Period, typename Pred>
  bool wait_for(std::unique_lock<VMutex>& lk,
                const std::chrono::duration<Rep, Period>& dur, Pred pred) {
    if (verify::managed()) {
      while (!pred()) {
        if (!verify::ctl_cv_wait_timed(this, lk.mutex())) return pred();
      }
      return true;
    }
    return real_.wait_for(lk, dur, std::move(pred));
  }

 private:
  friend class verify_controller_access;
  std::condition_variable_any real_;
};

/// Controlled atomic. Managed mode performs the operation with the token
/// held (single runnable thread), so a relaxed op on the embedded atomic is
/// enough; the value stays genuinely atomic for unmanaged (real-thread) use.
template <typename T>
class VAtomic {
 public:
  VAtomic() noexcept : v_(T{}) {}
  explicit VAtomic(T v) noexcept : v_(v) {}
  VAtomic(const VAtomic&) = delete;
  VAtomic& operator=(const VAtomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    if (verify::managed()) {
      verify::op_point(verify::OpKind::AtomicLoad, this, "atomic.load");
      return v_.load(std::memory_order_relaxed);
    }
    return v_.load(mo);
  }
  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    if (verify::managed()) {
      verify::op_point(verify::OpKind::AtomicStore, this, "atomic.store");
      v_.store(v, std::memory_order_relaxed);
      return;
    }
    v_.store(v, mo);
  }
  T fetch_add(T d, std::memory_order mo = std::memory_order_seq_cst) {
    if (verify::managed()) {
      verify::op_point(verify::OpKind::AtomicRmw, this, "atomic.fetch_add");
      return v_.fetch_add(d, std::memory_order_relaxed);
    }
    return v_.fetch_add(d, mo);
  }
  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    if (verify::managed()) {
      verify::op_point(verify::OpKind::AtomicRmw, this, "atomic.exchange");
      return v_.exchange(v, std::memory_order_relaxed);
    }
    return v_.exchange(v, mo);
  }
  operator T() const { return load(); }  // NOLINT(google-explicit-constructor)
  T operator++() { return fetch_add(T{1}) + T{1}; }
  T operator++(int) { return fetch_add(T{1}); }
  T operator+=(T d) { return fetch_add(d) + d; }

 private:
  std::atomic<T> v_;
};

/// Controlled thread. Created by a managed thread → registered with the
/// controller (spawn/join are visible ops); created outside an exploration
/// → a plain std::thread.
class VThread {
 public:
  VThread() noexcept = default;

  explicit VThread(std::function<void()> fn) {
    if (verify::managed()) {
      managed_ = verify::ctl_thread_spawn(std::move(fn));
    } else {
      real_ = std::thread(std::move(fn));
    }
  }

  template <typename F, typename... Args,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, VThread> &&
                                        !std::is_same_v<std::decay_t<F>, std::function<void()>>>>
  explicit VThread(F&& f, Args&&... args)
      : VThread(std::function<void()>(
            [fn = std::forward<F>(f),
             tup = std::make_tuple(std::forward<Args>(args)...)]() mutable {
              std::apply(fn, tup);
            })) {}

  VThread(VThread&& o) noexcept
      : real_(std::move(o.real_)), managed_(std::exchange(o.managed_, nullptr)) {}
  VThread& operator=(VThread&& o) noexcept {
    if (this != &o) {
      real_ = std::move(o.real_);
      managed_ = std::exchange(o.managed_, nullptr);
    }
    return *this;
  }
  VThread(const VThread&) = delete;
  VThread& operator=(const VThread&) = delete;
  ~VThread() = default;  // managed threads are reaped by the controller

  [[nodiscard]] bool joinable() const { return managed_ != nullptr || real_.joinable(); }
  void join() {
    if (managed_ != nullptr) {
      verify::ctl_thread_join(std::exchange(managed_, nullptr));
      return;
    }
    real_.join();
  }

 private:
  std::thread real_;
  verify::ManagedThread* managed_ = nullptr;
};

using Mutex = VMutex;
using CondVar = VCondVar;
template <typename T>
using Atomic = VAtomic<T>;
using Thread = VThread;

/// Explicit yield point: a place the explorer may preempt even though no
/// sync primitive is touched — the hooks that make a *skipped* lock
/// observable (a correctly locked region never yields here: the controller
/// suppresses preemption while the caller holds a shim mutex).
inline void verify_point(const char* what, const void* obj = nullptr) {
  if (verify::managed()) verify::op_point(verify::OpKind::Yield, obj, what);
}

/// Wall clock in normal builds, the deterministic logical clock during an
/// exploration (every visible op advances it by a fixed quantum).
inline double sync_now_seconds() {
  if (verify::managed()) return verify::ctl_now_seconds();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Rep, typename Period>
void sync_sleep_for(const std::chrono::duration<Rep, Period>& dur) {
  if (verify::managed()) {
    verify::ctl_sleep(std::chrono::duration<double>(dur).count());
    return;
  }
  std::this_thread::sleep_for(dur);
}

}  // namespace mp

#else  // !MP_VERIFY ------------------------------------------------------

namespace mp {

using Mutex = std::mutex;
using CondVar = std::condition_variable;
template <typename T>
using Atomic = std::atomic<T>;
using Thread = std::thread;

inline void verify_point(const char* /*what*/, const void* /*obj*/ = nullptr) {}

inline double sync_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Rep, typename Period>
void sync_sleep_for(const std::chrono::duration<Rep, Period>& dur) {
  std::this_thread::sleep_for(dur);
}

}  // namespace mp

#endif  // MP_VERIFY

// --- RelaxedAtomic: shared by both build modes ------------------------------
//
// A deliberately *relaxed* atomic that is INVISIBLE to the interleaving
// explorer: no op_point, no preemption, identical code under MP_VERIFY and
// normal builds. It exists for racy-by-design state whose correctness is
// argued structurally and checked by quiescent-point oracles rather than by
// exploring every load/store interleaving — the sharded scheduler's
// best_remaining_work ledger, per-task take flags, ready counters and shard
// epochs (cf. the relaxed multi-queue schedulers of Postnikova et al., where
// statistical state tolerates bounded staleness). Using it for state that
// *does* need happens-before ordering would silently shrink the explored
// space — that is what mp::Atomic is for.
namespace mp {

template <typename T>
class RelaxedAtomic {
 public:
  RelaxedAtomic() noexcept : v_(T{}) {}
  explicit RelaxedAtomic(T v) noexcept : v_(v) {}
  RelaxedAtomic(const RelaxedAtomic&) = delete;
  RelaxedAtomic& operator=(const RelaxedAtomic&) = delete;
  // Movable so containers can be sized at construction; a move is NOT atomic
  // and must only happen before the object is shared between threads.
  RelaxedAtomic(RelaxedAtomic&& o) noexcept
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  RelaxedAtomic& operator=(RelaxedAtomic&& o) noexcept {
    v_.store(o.v_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }
  T exchange(T v) { return v_.exchange(v, std::memory_order_relaxed); }
  bool compare_exchange(T& expected, T desired) {
    return v_.compare_exchange_strong(expected, desired,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed);
  }
  T fetch_add(T d) { return v_.fetch_add(d, std::memory_order_relaxed); }
  T fetch_sub(T d) { return v_.fetch_sub(d, std::memory_order_relaxed); }
  T fetch_and(T d) { return v_.fetch_and(d, std::memory_order_relaxed); }
  T fetch_or(T d) { return v_.fetch_or(d, std::memory_order_relaxed); }

  /// CAS-loop add for types without lock-free fetch_add (double). The
  /// arithmetic matches a plain `x += d`, so single-threaded engines get
  /// bit-identical ledgers.
  T add(T d) {
    T cur = load();
    while (!compare_exchange(cur, cur + d)) {
    }
    return cur + d;
  }
  /// CAS-loop subtract clamped at zero (best_remaining_work debit: diversion
  /// debits may legally exceed the outstanding credits).
  T sub_clamped(T d) {
    T cur = load();
    T next;
    do {
      next = cur - d;
      if (next < T{}) next = T{};
    } while (!compare_exchange(cur, next));
    return next;
  }

 private:
  std::atomic<T> v_;
};

}  // namespace mp
