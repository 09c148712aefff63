// The interleaving explorer's public API.
//
// explore(body, cfg) runs `body` — typically "build a DAG, run
// ThreadExecutor + MultiPrio end-to-end" — over and over under the
// controlled scheduler, one thread interleaving per run, until the schedule
// space is exhausted (Exhaustive mode), the budget is spent, or a violation
// is found. On violation the result carries the full schedule trace (every
// visible op of every managed thread, in execution order), which is enough
// to replay the interleaving by hand.
//
// The API is available in every build so tests compile uniformly;
// exploration_supported() is false without -DMP_VERIFY=1 and explore() then
// returns an empty result without running the body.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace mp::verify {

struct ExploreConfig {
  enum class Mode {
    Exhaustive,  ///< bounded DFS + sleep-set pruning (tiny fixtures)
    Pct,         ///< seeded randomized-priority schedules (larger runs)
  };
  Mode mode = Mode::Exhaustive;
  /// Hard cap on schedules (both modes; Exhaustive may finish earlier).
  std::size_t max_schedules = 10000;
  /// Per-schedule step cap; an overrun aborts that schedule (counted in
  /// `truncated`, never reported as a violation).
  std::size_t max_steps = 200000;
  /// Base seed for Pct (schedule i uses seed + i).
  std::uint64_t seed = 1;
  /// PCT depth d: d − 1 priority-change points per schedule.
  std::size_t pct_depth = 3;
};

struct ExploreResult {
  std::size_t schedules = 0;       ///< schedules actually run
  bool exhausted = false;          ///< DFS proved there is nothing left
  std::size_t truncated = 0;       ///< schedules cut off by max_steps
  /// Schedules in which every live thread was blocked and a timed condvar
  /// wait had to time out for the run to go on: the explorer's model of a
  /// worker rescued by the stall timeout instead of a signal. A fault-free
  /// run of a lost-wakeup-free protocol never needs one.
  std::size_t timeout_schedules = 0;
  bool violation = false;
  std::string violation_message;   ///< what broke (probe / check / deadlock)
  std::string violation_trace;     ///< full schedule, one visible op per line

  [[nodiscard]] std::string summary() const;
};

/// Is the controlled scheduler compiled in (-DMP_VERIFY=1)?
[[nodiscard]] bool exploration_supported();

/// Explores interleavings of `body`. The body must be re-runnable from
/// scratch (each schedule runs it once, start to finish) and perform all
/// its synchronization through the mp::sync shim. Must not be called from
/// inside another exploration.
ExploreResult explore(const std::function<void()>& body,
                      const ExploreConfig& cfg = {});

}  // namespace mp::verify
