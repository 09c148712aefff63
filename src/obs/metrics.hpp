// MetricsRegistry: named counters and histograms for the runtime.
//
// Built for the observability hot path: a Counter increment is one relaxed
// atomic add; a Histogram observation takes a per-instrument mutex (it is
// off the per-event fast path — instruments exist only when an observer is
// attached). Instrument references returned by the
// registry are stable for the registry's lifetime, so call sites resolve
// names once (at scheduler construction) and pay no map lookups afterwards.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "verify/sync.hpp"

namespace mp {

/// Monotonic event count (lock-free).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  Atomic<std::uint64_t> value_{0};
};

/// Log₂-bucketed histogram of positive values (latencies in seconds). Exact
/// count/sum/min/max; quantiles are bucket-resolution estimates, which is
/// plenty to tell a 2 µs pop from a 2 ms one.
class Histogram {
 public:
  void observe(double v);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< 0 when empty
  [[nodiscard]] double max() const;  ///< 0 when empty
  [[nodiscard]] double mean() const;
  /// Upper bound of the bucket holding the q-quantile (q in [0,1]).
  [[nodiscard]] double quantile(double q) const;

  /// Number of log₂ buckets; bucket 0 holds v ≤ 2⁻³², the last is unbounded.
  static constexpr std::size_t kBuckets = 64;

 private:
  [[nodiscard]] static std::size_t bucket_of(double v);
  [[nodiscard]] static double bucket_upper(std::size_t b);

  mutable Mutex mu_;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name → instrument registry. Thread-safe creation/lookup; instruments are
/// never removed, and references stay valid until the registry dies.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Sorted snapshots (name order) for reporting/export.
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  /// Human-readable dump, one instrument per line.
  [[nodiscard]] std::string to_string() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mp
