// SchedObserver: the hook the engines thread through SchedContext so
// policies and runtimes can report their decisions.
//
// The contract is built around a null fast path: a SchedContext with
// observer == nullptr costs exactly one pointer test per decision site —
// no event is even constructed. When an observer is attached, events go to
// a bounded, thread-safe EventLog (drop-oldest ring with per-kind totals
// that survive drops) and instruments live in a MetricsRegistry.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "verify/sync.hpp"

namespace mp {

/// Bounded, thread-safe event sink. Keeps the most recent `capacity` events
/// (a full log drops its oldest entries, never blocks) and counts every
/// appended event per kind regardless of drops, so aggregate checks like
/// "EVICT events == eviction_total()" hold even on over-long runs.
class EventLog {
 public:
  /// The ring grows lazily up to `capacity`, so idle logs stay tiny.
  explicit EventLog(std::size_t capacity = kDefaultCapacity);

  /// Records the event, stamping a globally ordered seq.
  void append(SchedEvent e);

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<SchedEvent> snapshot() const;

  [[nodiscard]] std::size_t size() const;      ///< retained
  [[nodiscard]] std::size_t dropped() const;   ///< overwritten by the ring
  [[nodiscard]] std::uint64_t recorded() const;  ///< total appended ever
  /// Total appended events of `k` (drop-proof).
  [[nodiscard]] std::uint64_t count(SchedEventKind k) const;

  /// CSV of the retained events (one row per event, full payload).
  [[nodiscard]] std::string to_csv() const;

  /// Drop accounting consistency: retained + dropped == recorded, and the
  /// per-kind totals sum to recorded. Always true unless appends raced —
  /// one of the structural invariants the verification oracle evaluates.
  [[nodiscard]] bool accounting_ok() const;

  static constexpr std::size_t kDefaultCapacity = 1u << 20;

 private:
  mutable Mutex mu_;
  std::size_t capacity_;
  std::vector<SchedEvent> ring_;
  std::size_t head_ = 0;  // next overwrite position once full
  std::size_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
  std::array<std::uint64_t, kNumSchedEventKinds> counts_{};
};

/// The interface threaded through SchedContext. Implementations must be
/// safe to call from concurrent worker threads (the ThreadExecutor emits
/// under its own lock, but metrics instruments are touched outside it).
class SchedObserver {
 public:
  virtual ~SchedObserver() = default;
  virtual void record(const SchedEvent& e) = 0;
  /// Registry for named instruments; nullptr when the observer keeps none.
  [[nodiscard]] virtual MetricsRegistry* metrics() { return nullptr; }
};

/// Accepts and discards everything — the "observer attached but disabled"
/// configuration used to bound the instrumentation overhead (bench_overhead
/// compares it against the observer-absent baseline).
class NullObserver final : public SchedObserver {
 public:
  void record(const SchedEvent&) override {}
};

/// The standard observer: bounded EventLog + MetricsRegistry.
class RecordingObserver final : public SchedObserver {
 public:
  explicit RecordingObserver(std::size_t event_capacity = EventLog::kDefaultCapacity)
      : log_(event_capacity) {}

  void record(const SchedEvent& e) override { log_.append(e); }
  [[nodiscard]] MetricsRegistry* metrics() override { return &metrics_; }

  [[nodiscard]] const EventLog& events() const { return log_; }
  [[nodiscard]] const MetricsRegistry& metrics_registry() const { return metrics_; }

  /// Human-readable rollup: per-kind event totals, drops, every instrument.
  [[nodiscard]] std::string rollup() const;

 private:
  EventLog log_;
  MetricsRegistry metrics_;
};

}  // namespace mp
