#include "obs/bench_json.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "obs/export.hpp"

namespace mp {

namespace {

/// Shortest round-trippable rendering; never scientific-only surprises the
/// tooling (jq/python parse both).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

BenchRecord& BenchRecord::param(const std::string& name, const std::string& value) {
  std::string quoted = "\"";
  quoted.append(json_escape(value)).append("\"");
  params_.emplace_back(name, std::move(quoted));
  return *this;
}

BenchRecord& BenchRecord::param(const std::string& name, const char* value) {
  return param(name, std::string(value));
}

BenchRecord& BenchRecord::param(const std::string& name, double value) {
  params_.emplace_back(name, num(value));
  return *this;
}

BenchRecord& BenchRecord::param(const std::string& name, std::size_t value) {
  params_.emplace_back(name, std::to_string(value));
  return *this;
}

BenchRecord& BenchRecord::extra(const std::string& name, double value) {
  extra_.emplace_back(name, num(value));
  return *this;
}

BenchRecord& BenchRecord::events_from(const EventLog& log) {
  events_.clear();
  for (std::size_t k = 0; k < kNumSchedEventKinds; ++k)
    events_.emplace_back(event_kind_name(static_cast<SchedEventKind>(k)),
                         log.count(static_cast<SchedEventKind>(k)));
  events_.emplace_back("dropped", log.dropped());
  return *this;
}

std::string BenchRecord::to_json() const {
  std::ostringstream os;
  os << "{\"bench\":\"" << json_escape(bench_) << "\",\"scheduler\":\""
     << json_escape(scheduler_) << "\",\"params\":{";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(params_[i].first) << "\":" << params_[i].second;
  }
  os << "},\"makespan_s\":" << num(makespan_s_) << ",\"efficiency\":" << num(efficiency_);
  for (const auto& [name, value] : extra_)
    os << ",\"" << json_escape(name) << "\":" << value;
  os << ",\"events\":{";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(events_[i].first) << "\":" << events_[i].second;
  }
  os << "}}";
  return os.str();
}

std::string bench_records_json(const std::vector<BenchRecord>& records) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    os << "  " << records[i].to_json() << (i + 1 < records.size() ? ",\n" : "\n");
  os << "]\n";
  return os.str();
}

bool write_bench_json(const std::string& path, const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = bench_records_json(records);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mp
