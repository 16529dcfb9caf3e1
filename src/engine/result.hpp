// Results of one simulation run: the series and aggregates behind every
// figure/table in the paper's Section 5.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/peer_class.hpp"
#include "metrics/collector.hpp"

namespace p2ps::engine {

struct SimulationResult {
  core::PeerClass num_classes = 4;

  /// Hourly snapshots (capacity amplification, admission rate, delays…).
  std::vector<metrics::HourlySample> hourly;
  /// Figure-7 samples (every 3 h by default).
  std::vector<metrics::FavoredSample> favored;

  /// End-of-run cumulative counters, per class (index = class - 1).
  std::vector<metrics::ClassCounters> totals;
  /// End-of-run cumulative counters summed over classes.
  metrics::ClassCounters overall;

  std::int64_t final_capacity = 0;
  /// Capacity if every peer became a supplier (the paper's 95% yardstick).
  std::int64_t max_capacity = 0;
  std::int64_t suppliers_at_end = 0;
  std::int64_t sessions_completed = 0;
  std::int64_t sessions_active_at_end = 0;
  /// Suppliers that permanently left (only nonzero under departure churn).
  std::int64_t suppliers_departed = 0;
  /// Supplier-side watchdog self-recoveries after a lost EndSession (only
  /// nonzero in the message-level engine under loss).
  std::int64_t watchdog_recoveries = 0;
  std::uint64_t events_executed = 0;
  /// Largest simultaneous pending-event count (sim::Simulator
  /// peak_pending_count()). With lazy arrival sources this is
  /// O(active sessions + timers), not O(population).
  std::int64_t peak_event_list = 0;
  /// Timer-tagged share of the pending population at the peak instant
  /// (TimerService notification events; the wheel keeps at most one per
  /// service). The remainder is the protocol's own event traffic.
  std::int64_t peak_event_list_timers = 0;
  /// Process-wide peak resident set (getrusage ru_maxrss) read when the
  /// run finished; 0 when not captured. A process-level, run-varying
  /// measurement — scenarios emit it only behind --mechanics.
  std::int64_t peak_rss_bytes = 0;

  /// Chord routing statistics (populated when lookup == kChord).
  std::uint64_t lookup_routed = 0;
  double lookup_mean_hops = 0.0;

  /// Capacity at (or just before) simulated time `t`, from the hourly
  /// samples. Requires at least one sample at or before `t`.
  [[nodiscard]] std::int64_t capacity_at(util::SimTime t) const;

  /// The hourly sample taken at (or latest before) `t`.
  [[nodiscard]] const metrics::HourlySample& sample_at(util::SimTime t) const;
};

/// Human-readable one-run summary (used by examples and smoke benches).
void print_summary(std::ostream& os, const SimulationResult& result);

/// Process-wide peak resident set size in bytes (getrusage ru_maxrss),
/// or 0 where the platform does not report it. Monotone over the process
/// lifetime — a memory high-water mark, not an instantaneous reading.
[[nodiscard]] std::int64_t process_peak_rss_bytes();

}  // namespace p2ps::engine
