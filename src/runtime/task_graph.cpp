#include "runtime/task_graph.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mp {

TaskGraph::TaskGraph(MemNodeId ram_node) : ram_node_(ram_node) {}

CodeletId TaskGraph::add_codelet(std::string name, std::initializer_list<ArchType> where,
                                 KernelFn cpu_fn, KernelFn gpu_fn) {
  MP_CHECK_MSG(where.size() > 0, "codelet needs at least one implementation");
  Codelet c;
  c.id = CodeletId{codelets_.size()};
  c.name = std::move(name);
  for (ArchType a : where) c.where_mask.set(arch_index(a));
  c.cpu_fn = std::move(cpu_fn);
  c.gpu_fn = std::move(gpu_fn);
  codelets_.push_back(std::move(c));
  return codelets_.back().id;
}

DataId TaskGraph::add_data(std::size_t bytes, void* user_ptr) {
  return add_data_on(bytes, ram_node_, user_ptr);
}

DataId TaskGraph::add_data_on(std::size_t bytes, MemNodeId home, void* user_ptr) {
  const DataId id = handles_.register_data(bytes, home, user_ptr);
  per_data_.emplace_back();
  return id;
}

TaskId TaskGraph::submit(CodeletId codelet, std::initializer_list<Access> accesses,
                         SubmitOptions opts) {
  return submit(codelet, std::span<const Access>(accesses.begin(), accesses.size()), opts);
}

TaskId TaskGraph::submit(CodeletId codelet, std::span<const Access> accesses,
                         SubmitOptions opts) {
  MP_CHECK(codelet.valid() && codelet.index() < codelets_.size());
  const TaskId id{tasks_.size()};

  Task t;
  t.id = id;
  t.codelet = codelet;
  t.accesses.assign(accesses.begin(), accesses.end());
  t.flops = opts.flops;
  t.user_priority = opts.user_priority;
  t.iparams = opts.iparams;
  for (const Access& acc : t.accesses) {
    MP_CHECK(acc.data.valid() && acc.data.index() < handles_.count());
    t.footprint_bytes += handles_.get(acc.data).bytes;
  }
  total_flops_ += t.flops;

  tasks_.push_back(std::move(t));
  ArchMask archs = 0;
  for (std::size_t ai = 0; ai < kNumArchTypes; ++ai)
    if (codelets_[codelet.index()].where_mask[ai]) archs |= arch_bit(static_cast<ArchType>(ai));
  archs_.push_back(archs);
  succ_.emplace_back();
  pred_.emplace_back();

  // STF dependency inference. For each access:
  //   R:  depends on the last writer (RAW).
  //   W/RW: depends on the last writer (WAW) and on every reader since that
  //         write (WAR); then becomes the new last writer and clears readers.
  for (const Access& acc : tasks_.back().accesses) {
    PerData& pd = per_data_[acc.data.index()];
    if (acc.mode == AccessMode::Read) {
      // RAW on whoever owns the latest value. A read closes a commute
      // epoch: the commuter set becomes the (multi-)writer the epoch's
      // successors depend on, and pre-epoch readers are already covered.
      if (!pd.commuters.empty()) {
        pd.last_writers = std::move(pd.commuters);
        pd.commuters.clear();
        pd.readers.clear();
      }
      for (TaskId w : pd.last_writers) add_edge(w, id);
      pd.readers.push_back(id);
    } else if (acc.mode == AccessMode::Commute) {
      // Ordered after earlier readers (or the latest writers); unordered
      // among commuters — the execution engines serialize those per handle.
      if (!pd.readers.empty()) {
        for (TaskId r : pd.readers) add_edge(r, id);
      } else {
        for (TaskId w : pd.last_writers) add_edge(w, id);
      }
      pd.commuters.push_back(id);
    } else {  // Write / ReadWrite
      if (!pd.readers.empty() || !pd.commuters.empty()) {
        // WAR edges plus a barrier after every pending commuter. Readers
        // and commuters are already ordered after the last writers, so
        // direct WAW/RAW edges would be redundant and would inflate the
        // in-degrees that NOD's denominators count.
        for (TaskId r : pd.readers) add_edge(r, id);
        for (TaskId c : pd.commuters) add_edge(c, id);
      } else {
        for (TaskId w : pd.last_writers) add_edge(w, id);
      }
      pd.last_writers.assign(1, id);
      pd.readers.clear();
      pd.commuters.clear();
    }
  }
  return id;
}

void TaskGraph::add_edge(TaskId from, TaskId to) {
  MP_ASSERT(from.valid() && to.valid());
  // A task may touch the same handle through several accesses (e.g. read it
  // under one mode and update it under another); it never depends on itself.
  if (from == to) return;
  auto& s = succ_[from.index()];
  // Duplicate edges arise when a task reuses the same handle or reads then
  // writes two handles last touched by the same task; keep edges unique so
  // dependency counters stay correct. Submission order makes `to` the
  // largest id seen, so checking the tail is usually enough, but a task may
  // gain edges from many sources — do a full scan (lists are short).
  if (std::find(s.begin(), s.end(), to) != s.end()) return;
  s.push_back(to);
  pred_[to.index()].push_back(from);
}

const Codelet& TaskGraph::codelet(CodeletId c) const {
  MP_CHECK(c.valid() && c.index() < codelets_.size());
  return codelets_[c.index()];
}

std::string TaskGraph::label(TaskId t) const {
  std::string s = codelet_of(t).name;
  char sep = '(';
  for (std::int64_t p : task(t).iparams) {
    s.append(1, sep).append(std::to_string(p));
    sep = ',';
  }
  return s.append(1, ')');
}

std::size_t TaskGraph::in_degree(TaskId t) const {
  MP_CHECK(t.valid() && t.index() < pred_.size());
  return pred_[t.index()].size();
}

void TaskGraph::set_user_priority(TaskId t, std::int64_t priority) {
  MP_CHECK(t.valid() && t.index() < tasks_.size());
  tasks_[t.index()].user_priority = priority;
}

std::vector<double> TaskGraph::upward_rank_flops() const {
  std::vector<double> rank(tasks_.size(), 0.0);
  // STF ids are a topological order; sweep backwards.
  for (std::size_t i = tasks_.size(); i-- > 0;) {
    double best = 0.0;
    for (TaskId s : succ_[i]) best = std::max(best, rank[s.index()]);
    rank[i] = tasks_[i].flops + best;
  }
  return rank;
}

std::vector<TaskId> TaskGraph::initial_ready() const {
  std::vector<TaskId> out;
  for (const Task& t : tasks_)
    if (pred_[t.id.index()].empty()) out.push_back(t.id);
  return out;
}

void TaskGraph::self_check() const {
  MP_CHECK(succ_.size() == tasks_.size());
  MP_CHECK(pred_.size() == tasks_.size());
  MP_CHECK(archs_.size() == tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    for (TaskId s : succ_[i]) {
      MP_CHECK(s.index() < tasks_.size());
      // STF submission order implies edges go forward.
      MP_CHECK(s.index() > i);
      const auto& p = pred_[s.index()];
      MP_CHECK(std::find(p.begin(), p.end(), TaskId{i}) != p.end());
    }
  }
}

DepCounters::DepCounters(const TaskGraph& graph) : graph_(graph) {
  remaining_.resize(graph.num_tasks());
  for (std::size_t i = 0; i < graph.num_tasks(); ++i)
    remaining_[i] = static_cast<std::uint32_t>(graph.in_degree(TaskId{i}));
}

void DepCounters::complete(TaskId t, std::vector<TaskId>& out) {
  MP_ASSERT(remaining_[t.index()] == 0);
  for (TaskId s : graph_.successors(t)) {
    MP_ASSERT(remaining_[s.index()] > 0);
    if (--remaining_[s.index()] == 0) out.push_back(s);
  }
}

}  // namespace mp
