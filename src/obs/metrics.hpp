// Runtime metric registry — the heart of the telemetry layer.
//
// Design bar (docs/observability.md): telemetry must be ZERO overhead when
// off and strictly OUT OF BAND when on — registry reads and writes never
// schedule events, never draw randomness, and never touch simulation
// state, so scenario payloads stay byte-identical with telemetry enabled
// or disabled (enforced by tests/obs_test.cpp).
//
// Hot-path access is by pointer handle: an engine registers a metric once
// (`registry.counter("attempts")`) and keeps the returned pointer — each
// subsequent update is a single add/store with no name lookup. Handles
// stay valid for the registry's lifetime (deque-backed storage; growth
// never moves existing cells).
//
// Sharded engines use LANES: lane s is shard s's private cell of the same
// named metric. During a lookahead window each shard worker touches only
// its own lane (thread-confined, plain int64 writes — no atomics); the
// serial barrier step aggregates across lanes, where the runner's barrier
// already provides the happens-before edge. That is
// the "lock-free at window barriers" contract: no synchronization beyond
// what the sharded runner does anyway.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace p2ps::obs {

/// Monotonically increasing count. Plain struct — hot paths do
/// `if (handle) handle->add();` and nothing else.
struct Counter {
  std::int64_t value = 0;
  void add(std::int64_t n = 1) { value += n; }
};

/// Point-in-time level, overwritten at each publish.
struct Gauge {
  std::int64_t value = 0;
  void set(std::int64_t v) { value = v; }
};

/// Fixed-bucket histogram: `bounds` are strictly increasing inclusive
/// upper bounds; one implicit overflow bucket catches everything above
/// the last bound (counts().size() == bounds().size() + 1).
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t value);

  [[nodiscard]] const std::vector<std::int64_t>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::int64_t>& counts() const { return counts_; }
  [[nodiscard]] std::int64_t total_count() const { return total_count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::int64_t> counts_;  ///< bounds_.size() + 1 (overflow last)
  std::int64_t total_count_ = 0;
  std::int64_t sum_ = 0;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// How a multi-lane metric folds into one number. kSum fits counts and
/// additive levels (pending events per shard); kMax fits high-water marks
/// (per-shard peak event list), where a sum would overstate the peak.
enum class Aggregation : std::uint8_t { kSum, kMax };

[[nodiscard]] std::string_view to_string(MetricKind kind);

class Registry {
 public:
  /// Registers (or re-finds) a metric and returns the stable handle for
  /// `lane`. Registration is serial (engine construction or barrier
  /// code), never inside a shard window; kind/bounds mismatches
  /// with an existing name throw ContractViolation.
  Counter* counter(std::string_view name, int lane = 0);
  Gauge* gauge(std::string_view name, int lane = 0,
               Aggregation aggregation = Aggregation::kSum);
  Histogram* histogram(std::string_view name, std::vector<std::int64_t> bounds,
                       int lane = 0);

  /// Aggregated view of one metric at snapshot time.
  struct Value {
    std::string_view name;
    MetricKind kind = MetricKind::kCounter;
    std::int64_t value = 0;  ///< counter/gauge aggregate; histogram total count
    // Histogram-only: bucket counts summed across lanes + shared bounds.
    const std::vector<std::int64_t>* hist_bounds = nullptr;
    std::vector<std::int64_t> hist_counts;
    std::int64_t hist_sum = 0;
  };

  /// All metrics aggregated across lanes, in registration order (stable
  /// and deterministic — engines register in deterministic order).
  [[nodiscard]] std::vector<Value> snapshot() const;

  /// Aggregate of one named counter/gauge; 0 when absent (watchdogs read
  /// by well-known name and tolerate engines that don't emit a metric).
  [[nodiscard]] std::int64_t aggregate(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return metrics_.size(); }

 private:
  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    Aggregation aggregation = Aggregation::kSum;
    std::vector<std::int64_t> bounds;  ///< histogram template
    // Lane cells. Deques: growing a lane list never invalidates handles
    // already given out for earlier lanes.
    std::deque<Counter> counters;
    std::deque<Gauge> gauges;
    std::deque<Histogram> histograms;
  };

  Metric& find_or_create(std::string_view name, MetricKind kind);

  std::deque<Metric> metrics_;  ///< deque: handles into cells stay valid
};

// Well-known metric names shared between the engines (writers) and the
// watchdogs (readers). Engines that track these concepts must use these
// exact names for anomaly rules to see them.
inline constexpr std::string_view kMetricAttempts = "attempts";
inline constexpr std::string_view kMetricAdmissions = "admissions";
inline constexpr std::string_view kMetricRejections = "rejections";
inline constexpr std::string_view kMetricFirstRequests = "first_requests";
inline constexpr std::string_view kMetricPendingEvents = "pending_events";
inline constexpr std::string_view kMetricEventsExecuted = "events_executed";

}  // namespace p2ps::obs
