#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/csv.hpp"

namespace mp {

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;
  // Bucket b holds (2^(b-33), 2^(b-32)]: b=0 spans everything ≤ 2⁻³² s
  // (~0.23 ns), the top bucket is unbounded.
  const int e = static_cast<int>(std::ceil(std::log2(v)));
  const long b = static_cast<long>(e) + 32;
  return static_cast<std::size_t>(std::clamp(b, 0L, static_cast<long>(kBuckets) - 1));
}

double Histogram::bucket_upper(std::size_t b) {
  return std::ldexp(1.0, static_cast<int>(b) - 32);
}

void Histogram::observe(double v) {
  std::lock_guard lock(mu_);
  ++buckets_[bucket_of(v)];
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

std::uint64_t Histogram::count() const {
  std::lock_guard lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard lock(mu_);
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::quantile(double q) const {
  std::lock_guard lock(mu_);
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank && seen > 0) return std::min(bucket_upper(b), max_);
  }
  return max_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, const Counter*>> MetricsRegistry::counters() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, const Counter*>> out;
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> MetricsRegistry::histograms()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

std::string MetricsRegistry::to_string() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters())
    os << "counter " << name << " = " << c->value() << "\n";
  for (const auto& [name, h] : histograms()) {
    os << "histogram " << name << ": n=" << h->count() << " mean="
       << fmt_double(h->mean(), 9) << " p50≤" << fmt_double(h->quantile(0.5), 9)
       << " p99≤" << fmt_double(h->quantile(0.99), 9) << " max="
       << fmt_double(h->max(), 9) << "\n";
  }
  return os.str();
}

}  // namespace mp
