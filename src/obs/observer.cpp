#include "obs/observer.hpp"

#include <sstream>

#include "common/csv.hpp"

namespace mp {

EventLog::EventLog(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void EventLog::append(SchedEvent e) {
  std::lock_guard lock(mu_);
  e.seq = next_seq_++;
  ++counts_[static_cast<std::size_t>(e.kind)];
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

std::vector<SchedEvent> EventLog::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<SchedEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::size_t EventLog::size() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

std::size_t EventLog::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

std::uint64_t EventLog::recorded() const {
  std::lock_guard lock(mu_);
  return next_seq_;
}

std::uint64_t EventLog::count(SchedEventKind k) const {
  std::lock_guard lock(mu_);
  return counts_[static_cast<std::size_t>(k)];
}

bool EventLog::accounting_ok() const {
  std::lock_guard lock(mu_);
  std::uint64_t kind_sum = 0;
  for (std::uint64_t c : counts_) kind_sum += c;
  return kind_sum == next_seq_ &&
         static_cast<std::uint64_t>(ring_.size()) + dropped_ == next_seq_;
}

std::string EventLog::to_csv() const {
  Table t({"seq", "time", "kind", "task", "worker", "node", "gain", "nod", "locality",
           "brw", "heap_depth", "attempt"});
  auto id_cell = [](std::uint32_t v, bool valid) {
    return valid ? std::to_string(v) : std::string();
  };
  for (const SchedEvent& e : snapshot()) {
    t.add_row({std::to_string(e.seq), fmt_double(e.time, 9),
               event_kind_name(e.kind), id_cell(e.task.value(), e.task.valid()),
               id_cell(e.worker.value(), e.worker.valid()),
               id_cell(e.node.value(), e.node.valid()), fmt_double(e.gain, 6),
               fmt_double(e.prio, 6), fmt_double(e.locality, 6),
               fmt_double(e.best_remaining_work, 9), std::to_string(e.heap_depth),
               std::to_string(e.attempt)});
  }
  // Footer: the drop-proof totals. The rows above are only the *retained*
  // window of the ring; the footer states exactly how much is missing and
  // the true per-kind counts, so downstream tooling never mistakes a
  // truncated log for a complete one.
  std::ostringstream os;
  os << t.to_csv();
  std::uint64_t recorded_total = 0;
  std::size_t retained = 0, dropped_total = 0;
  std::array<std::uint64_t, kNumSchedEventKinds> counts{};
  {
    std::lock_guard lock(mu_);
    recorded_total = next_seq_;
    retained = ring_.size();
    dropped_total = dropped_;
    counts = counts_;
  }
  os << "# recorded=" << recorded_total << " retained=" << retained
     << " dropped=" << dropped_total << "\n# totals:";
  for (std::size_t k = 0; k < kNumSchedEventKinds; ++k)
    os << ' ' << event_kind_name(static_cast<SchedEventKind>(k)) << '='
       << counts[k];
  os << '\n';
  return os.str();
}

std::string RecordingObserver::rollup() const {
  std::ostringstream os;
  os << "scheduler events:";
  bool any = false;
  for (std::size_t k = 0; k < kNumSchedEventKinds; ++k) {
    const std::uint64_t n = log_.count(static_cast<SchedEventKind>(k));
    if (n == 0) continue;
    os << ' ' << event_kind_name(static_cast<SchedEventKind>(k)) << '=' << n;
    any = true;
  }
  if (!any) os << " none";
  os << " (retained " << log_.size();
  if (log_.dropped() > 0) os << ", dropped " << log_.dropped();
  os << ")\n";
  os << metrics_.to_string();
  return os.str();
}

}  // namespace mp
