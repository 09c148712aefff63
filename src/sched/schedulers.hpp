// Baseline scheduling policies (the paper's comparison set, Section II/VI)
// and the name-based registry used by benches and examples.
//
//  * eager      — single central queue ordered by user priority (StarPU's
//                 default "eager" policy).
//  * random     — push-time assignment to a uniformly random capable worker.
//  * lws        — locality work stealing: per-worker deques, LIFO local pop,
//                 FIFO steal from neighbours (StarPU's lws).
//  * dm         — deque model: push-time mapping to the worker with the
//                 minimum expected completion time (HEFT-like) [18].
//  * dmda       — dm + data transfer time in the fitness + prefetch.
//  * dmdas      — dmda + per-worker queues sorted by user priority, with
//                 preference for data-local tasks among equal priorities.
//  * heteroprio — automatic HeteroPrio [3,9]: per-codelet-type buckets,
//                 CPUs scan buckets by ascending GPU speedup, GPUs by
//                 descending speedup.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/multiprio.hpp"
#include "runtime/scheduler.hpp"

namespace mp {

[[nodiscard]] std::unique_ptr<Scheduler> make_eager(SchedContext ctx);
[[nodiscard]] std::unique_ptr<Scheduler> make_random(SchedContext ctx, std::uint64_t seed = 1);
[[nodiscard]] std::unique_ptr<Scheduler> make_lws(SchedContext ctx);

enum class DmVariant { Dm, Dmda, Dmdas };
[[nodiscard]] std::unique_ptr<Scheduler> make_dm_family(SchedContext ctx, DmVariant v);

[[nodiscard]] std::unique_ptr<Scheduler> make_heteroprio(SchedContext ctx);

/// Factory by policy name. Known names: eager, random, lws, dm, dmda,
/// dmdas, heteroprio, multiprio, multiprio-coarse (multiprio wrapped in a
/// SerializedScheduler), multiprio-noevict, multiprio-nolocality,
/// multiprio-nonod, multiprio-rawbrw. Aborts on unknown names.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler_by_name(const std::string& name,
                                                                SchedContext ctx);
/// A factory building the policy `name` through make_scheduler_by_name (an
/// unknown name aborts when the engine calls it).
[[nodiscard]] SchedulerFactory scheduler_factory(const std::string& name);

/// All registered policy names (for sweep benches).
[[nodiscard]] std::vector<std::string> scheduler_names();

}  // namespace mp
