// Performance models.
//
// Two layers, mirroring the paper's setting:
//  * PerfDatabase — analytic *ground truth* per (codelet, arch): the time a
//    kernel actually takes on the simulated platform (rate tables calibrated
//    to the published throughput of the paper's machines). The simulator
//    draws actual durations from it (plus optional noise).
//  * HistoryModel — what the *scheduler* sees: δ(t,a) estimated from the
//    history of measured executions keyed by (codelet, arch, footprint),
//    exactly like StarPU's history-based models [21,22]. Benches run it
//    pre-seeded ("calibrated"), tests also exercise the cold path.
//    Each (task, arch) resolves to its bucket's slot once; every later
//    query indexes a flat table sized once from the finished graph, with
//    no hashing.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "runtime/task_graph.hpp"

namespace mp {

/// Analytic kernel timing:
///   time = overhead + (flops + flops_half)/(gflops·1e9) + bytes/bytes_per_s.
/// `flops_half` is a device-saturation term (the flop count at which the
/// effective rate reaches half the peak): small kernels on a big GPU run far
/// below peak, which is what makes CPUs competitive on small tiles. A zero
/// `bytes_per_s` disables the memory-bound term.
struct RateSpec {
  double gflops = 1.0;
  double overhead_s = 0.0;
  double bytes_per_s = 0.0;
  double flops_half = 0.0;
};

class PerfDatabase {
 public:
  /// Ground-truth rate for a codelet name on an arch.
  void set_rate(const std::string& codelet_name, ArchType arch, RateSpec spec);

  /// Fallback rate for codelets without a specific entry.
  void set_default(ArchType arch, RateSpec spec);

  [[nodiscard]] const RateSpec& rate(const std::string& codelet_name, ArchType arch) const;

  /// Expected execution time of `t` on architecture `a` (seconds, > 0).
  [[nodiscard]] double ground_truth(const TaskGraph& graph, TaskId t, ArchType a) const;

 private:
  std::unordered_map<std::string, std::array<std::optional<RateSpec>, kNumArchTypes>> rates_;
  std::array<RateSpec, kNumArchTypes> defaults_{RateSpec{}, RateSpec{}};
};

/// History-based estimator: the scheduler-visible δ(t,a).
///
/// Built from a finished graph: the per-(task, arch) slot table is sized
/// once in the constructor, and a task submitted after construction trips
/// an always-on check.
///
/// Not thread-safe, queries included: a query resolves (t, a) to a bucket
/// slot on first use, which may append a bucket, so every call must be
/// serialized with every other (the threaded engine holds its push-side
/// lock around each one).
class HistoryModel {
 public:
  HistoryModel(const TaskGraph& graph, const PerfDatabase& truth);

  /// δ(t,a). Calibrated entries (one sample or more) return the running
  /// mean of measurements; uncalibrated entries fall back to the database's
  /// default-rate prior so schedulers always have a usable number (StarPU
  /// force-calibrates instead; the convergence behaviour is the same).
  [[nodiscard]] double estimate(TaskId t, ArchType a) const;

  [[nodiscard]] bool is_calibrated(TaskId t, ArchType a) const;

  /// Feeds one measured execution time into the history.
  void record(TaskId t, ArchType a, double measured_s);

  /// Pre-seeds every (codelet, arch, footprint) bucket that appears in the
  /// graph with its analytic expectation — the "already calibrated" regime
  /// the paper's experiments run in. All schedulers see the same estimates.
  void seed_from_truth();

 private:
  struct Bucket {
    std::uint32_t count = 0;
    double mean = 0.0;
  };
  /// Exact bucket identity: (codelet, arch, footprint bytes).
  struct BucketKey {
    std::uint32_t codelet = 0;
    std::size_t arch = 0;
    std::size_t footprint = 0;
    friend auto operator<=>(const BucketKey&, const BucketKey&) = default;
  };
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};

  /// Bucket of (t, a), resolved on first use and indexed directly after.
  [[nodiscard]] Bucket& bucket(TaskId t, ArchType a) const;

  const TaskGraph& graph_;
  const PerfDatabase& truth_;
  mutable std::vector<std::uint32_t> slot_of_;  ///< per (task, arch): index into buckets_
  mutable std::vector<Bucket> buckets_;
  mutable std::map<BucketKey, std::uint32_t> slot_by_key_;
};

}  // namespace mp
