#include "obs/export.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/csv.hpp"

namespace mp {

namespace {

constexpr double kUsPerSecond = 1e6;

/// One JSON object per line keeps the file diffable and stream-writable.
class JsonEvents {
 public:
  void add(const std::string& obj) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << "  " << obj;
  }

  [[nodiscard]] std::string finish() const { return os_.str(); }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

std::string num(double v) { return fmt_double(v, 6); }

std::string meta_thread(std::uint32_t tid, const std::string& name, int sort_index) {
  std::ostringstream os;
  os << R"({"ph":"M","name":"thread_name","pid":0,"tid":)" << tid
     << R"(,"args":{"name":")" << json_escape(name) << "\"}}";
  std::ostringstream os2;
  os2 << os.str() << ",\n  " << R"({"ph":"M","name":"thread_sort_index","pid":0,"tid":)"
      << tid << R"(,"args":{"sort_index":)" << sort_index << "}}";
  return os2.str();
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string chrome_trace_json(const Trace& trace, const TaskGraph& graph,
                              const Platform& platform, const RecordingObserver* obs) {
  JsonEvents ev;
  const std::uint32_t sched_tid = static_cast<std::uint32_t>(platform.num_workers());

  ev.add(R"({"ph":"M","name":"process_name","pid":0,"args":{"name":"multiprio"}})");
  for (const Worker& w : platform.workers())
    ev.add(meta_thread(w.id.value(), w.name, static_cast<int>(w.id.value())));
  ev.add(meta_thread(sched_tid, "scheduler", static_cast<int>(sched_tid)));

  // Executed segments: one slice per task, plus its data stall as a
  // separate slice so transfer-bound stretches are visible at a glance.
  for (const TraceSegment& s : trace.segments()) {
    const std::string& codelet = graph.codelet_of(s.task).name;
    std::ostringstream os;
    os << R"({"ph":"X","cat":"exec","name":")" << json_escape(graph.label(s.task))
       << R"(","pid":0,"tid":)" << s.worker.value() << R"(,"ts":)"
       << num(s.exec_start * kUsPerSecond)
       << R"(,"dur":)" << num((s.end - s.exec_start) * kUsPerSecond)
       << R"(,"args":{"task":)" << s.task.value() << R"(,"codelet":")"
       << json_escape(codelet) << R"(","fetch_start_s":)" << num(s.fetch_start)
       << R"(,"data_stall_s":)" << num(s.data_stall) << "}}";
    ev.add(os.str());
    if (s.data_stall > 0.0) {
      std::ostringstream st;
      st << R"({"ph":"X","cat":"stall","name":"data stall","pid":0,"tid":)"
         << s.worker.value() << R"(,"ts":)"
         << num((s.exec_start - s.data_stall) * kUsPerSecond) << R"(,"dur":)"
         << num(s.data_stall * kUsPerSecond) << R"(,"args":{"task":)" << s.task.value()
         << "}}";
      ev.add(st.str());
    }
  }

  if (obs != nullptr) {
    // Scheduler decisions as instant events carrying their payloads, and
    // queue depth over time as counter tracks, sampled at every insertion
    // into and removal from a queue. The PUSH events say what a queue is:
    // one per worker when they name a worker (dm family, random, lws), one
    // per memory node when they name only a node (MultiPrio's node heaps,
    // whose EVICTs also remove), and no track when they name neither (a
    // central queue or per-codelet buckets).
    const std::vector<SchedEvent> events = obs->events().snapshot();
    const auto first_push = std::find_if(events.begin(), events.end(), [](const SchedEvent& e) {
      return e.kind == SchedEventKind::Push;
    });
    const bool per_worker = first_push != events.end() && first_push->worker.valid();
    const bool per_node = !per_worker && first_push != events.end() && first_push->node.valid();
    for (const SchedEvent& e : events) {
      std::ostringstream os;
      const bool on_worker = e.worker.valid();
      os << R"({"ph":"i","cat":"sched","name":")" << event_kind_name(e.kind);
      if (e.task.valid()) os << " t" << e.task.value();
      os << R"(","pid":0,"tid":)" << (on_worker ? e.worker.value() : sched_tid)
         << R"(,"ts":)" << num(e.time * kUsPerSecond) << R"(,"s":")"
         << (on_worker ? 't' : 'p') << R"(","args":{"seq":)" << e.seq;
      if (e.task.valid()) os << R"(,"task":)" << e.task.value();
      if (e.node.valid()) os << R"(,"node":)" << e.node.value();
      os << R"(,"gain":)" << num(e.gain) << R"(,"nod":)" << num(e.prio)
         << R"(,"locality":)" << num(e.locality) << R"(,"brw":)"
         << num(e.best_remaining_work) << R"(,"heap_depth":)" << e.heap_depth
         << R"(,"attempt":)" << e.attempt << "}}";
      ev.add(os.str());
      const bool moves_queue = e.kind == SchedEventKind::Push || e.kind == SchedEventKind::Pop;
      std::ostringstream c;
      if (per_worker && moves_queue && e.worker.valid())
        c << R"({"ph":"C","name":"heap_depth.worker)" << e.worker.value();
      else if (per_node && e.node.valid() && (moves_queue || e.kind == SchedEventKind::Evict))
        c << R"({"ph":"C","name":"heap_depth.node)" << e.node.value();
      else
        continue;
      c << R"(","pid":0,"ts":)" << num(e.time * kUsPerSecond) << R"(,"args":{"value":)"
        << e.heap_depth << "}}";
      ev.add(c.str());
    }
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" << ev.finish() << "\n]}\n";
  return out.str();
}

bool write_chrome_trace(const std::string& path, const Trace& trace,
                        const TaskGraph& graph, const Platform& platform,
                        const RecordingObserver* obs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json(trace, graph, platform, obs);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mp
