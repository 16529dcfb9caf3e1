// Multi-threaded parameter-study driver ("p2ps_run --sweep").
//
// A sweep is the cross product of scenario names × seeds × scales ×
// event-list backends — the shape of the paper's Section 5 parameter
// studies (four arrival patterns swept over m, T_out and capacity mixes).
// Each point is an independent run with its own Simulator and RNGs, so
// determinism is per-run and the points can execute on a thread pool.
//
// Determinism contract: the merged report is assembled in point order
// (never completion order) and deliberately does not echo the thread
// count, so for a fixed spec the report is byte-identical whether it ran
// on 1 thread or N (enforced by tests/sweep_test.cpp and scripts/ci.sh).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/selection_policy.hpp"
#include "net/latency.hpp"
#include "scenario/json.hpp"
#include "sim/event_list.hpp"

namespace p2ps::scenario {

/// One independent (scenario, seed, scale, config-override) run.
struct SweepPoint {
  std::string scenario;
  std::uint64_t seed = 2002;
  std::int64_t scale = 1;
  sim::EventListKind event_list = sim::EventListKind::kBinaryHeap;
  /// Latency model for message-level scenarios; nullopt = the scenario's
  /// own default (session-level scenarios ignore the axis entirely).
  std::optional<net::LatencyModelKind> latency;
  /// Message drop probability for message-level scenarios; nullopt = the
  /// scenario's own default. The loss x latency studies of the ROADMAP's
  /// "loss × reordering" item sweep this axis against `latencies`.
  std::optional<double> loss;
  /// Supplier-selection policy; nullptr = every scenario's own default
  /// (the paper-dac baseline). The "--policies" axis of the policy lab.
  const core::SelectionPolicy* policy = nullptr;
};

/// A sweep specification: the cross product of its axes, in deterministic
/// order (scenario-major, then seed, scale, backend, latency, loss,
/// policy).
struct SweepSpec {
  std::vector<std::string> scenarios;
  std::vector<std::uint64_t> seeds = {2002};
  std::vector<std::int64_t> scales = {1};
  std::vector<sim::EventListKind> event_lists = {sim::EventListKind::kBinaryHeap};
  std::vector<std::optional<net::LatencyModelKind>> latencies = {std::nullopt};
  std::vector<std::optional<double>> losses = {std::nullopt};
  /// Selection-policy axis; nullptr entries mean "scenario default".
  std::vector<const core::SelectionPolicy*> policies = {nullptr};

  /// Expands the cross product; throws ContractViolation when any axis is
  /// empty, a scenario name is unknown, or a loss value is outside [0, 1]
  /// (fail fast, before any run).
  [[nodiscard]] std::vector<SweepPoint> points() const;
};

/// Execution mechanics of one run_sweep_points call — never part of the
/// report (the report deliberately omits anything thread-shaped). Exists
/// so tests can pin the dispatch strategy: an effective thread count of 1
/// must take the serial path — a plain indexed loop with no worker pool
/// and no atomic work queue (tests/sweep_test.cpp).
struct SweepStats {
  /// Worker threads constructed; 0 on the serial path (the caller's
  /// thread is not a pool).
  std::size_t pool_threads = 0;
};

/// Runs every point on a pool of `threads` worker threads (clamped to the
/// point count; an effective count of 1 runs serially on the calling
/// thread, constructing no pool and no work queue) and merges the
/// per-point envelopes into one report in point order. Throws
/// ContractViolation for invalid specs and rethrows the first per-point
/// failure — lowest point index wins — after the pool has drained.
/// `stats`, when non-null, receives the dispatch mechanics.
[[nodiscard]] Json run_sweep(const SweepSpec& spec, int threads);
[[nodiscard]] Json run_sweep_points(const std::vector<SweepPoint>& points,
                                    int threads,
                                    SweepStats* stats = nullptr);

/// Splits "a,b,c" into its non-empty fields; used by the CLI axis flags.
[[nodiscard]] std::vector<std::string> split_csv(std::string_view text);

}  // namespace p2ps::scenario
