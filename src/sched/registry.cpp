#include "common/check.hpp"
#include "runtime/serialized_scheduler.hpp"
#include "sched/schedulers.hpp"

namespace mp {

std::unique_ptr<Scheduler> make_scheduler_by_name(const std::string& name,
                                                  SchedContext ctx) {
  if (name == "eager") return make_eager(std::move(ctx));
  if (name == "random") return make_random(std::move(ctx));
  if (name == "lws") return make_lws(std::move(ctx));
  if (name == "dm") return make_dm_family(std::move(ctx), DmVariant::Dm);
  if (name == "dmda") return make_dm_family(std::move(ctx), DmVariant::Dmda);
  if (name == "dmdas") return make_dm_family(std::move(ctx), DmVariant::Dmdas);
  if (name == "heteroprio") return make_heteroprio(std::move(ctx));
  if (name == "multiprio")
    return std::make_unique<MultiPrioScheduler>(std::move(ctx), MultiPrioConfig{});
  if (name == "multiprio-coarse")  // the contention baseline: one coarse lock
    return std::make_unique<SerializedScheduler>(ctx, std::make_unique<MultiPrioScheduler>(ctx));
  if (name == "multiprio-noevict") {
    MultiPrioConfig cfg;
    cfg.use_eviction = false;
    return std::make_unique<MultiPrioScheduler>(std::move(ctx), cfg);
  }
  if (name == "multiprio-nolocality") {
    MultiPrioConfig cfg;
    cfg.use_locality = false;
    return std::make_unique<MultiPrioScheduler>(std::move(ctx), cfg);
  }
  if (name == "multiprio-nonod") {
    MultiPrioConfig cfg;
    cfg.use_nod = false;
    return std::make_unique<MultiPrioScheduler>(std::move(ctx), cfg);
  }
  if (name == "multiprio-rawbrw") {
    MultiPrioConfig cfg;
    cfg.normalize_brw_by_workers = false;
    return std::make_unique<MultiPrioScheduler>(std::move(ctx), cfg);
  }
  MP_CHECK_MSG(false, ("unknown scheduler name: " + name).c_str());
  return nullptr;
}

SchedulerFactory scheduler_factory(const std::string& name) {
  return [name](SchedContext ctx) { return make_scheduler_by_name(name, std::move(ctx)); };
}

std::vector<std::string> scheduler_names() {
  return {"eager",     "random",          "lws",
          "dm",        "dmda",            "dmdas",
          "heteroprio", "multiprio",      "multiprio-coarse",
          "multiprio-noevict", "multiprio-nolocality", "multiprio-nonod",
          "multiprio-rawbrw"};
}

}  // namespace mp
