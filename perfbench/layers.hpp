// Per-layer drivers of the benchmark: each times calls into one layer's
// public functions at operation sizes taken from a workload's traced run.
#pragma once

#include <cstdint>

#include "scenario/json.hpp"

namespace perfbench {

/// Operation sizes, read from a workload's traced run (perfbench/run.py
/// derives them; README.md lists where each comes from). A size the
/// workload lacks is not passed and keeps the neutral default below.
struct LayerSizes {
  std::uint64_t seed = 2002;
  std::int64_t pending = 1;  ///< event-list depth (peak pending events)
  std::int64_t timers = 1;   ///< armed timer population
  std::int64_t timer_span_ms = 1'200'000;  ///< deadline spread (T_out, 20 min)
  double batch_mean = 1.0;   ///< messages per mailbox drain
  std::int64_t peers = 1;    ///< mailbox destinations
  int shards = 1;
  int threads = 1;
  int fusion = 1;
  std::int64_t lookahead_ms = 40;
  std::int64_t sub_windows = 20'000;  ///< sub-windows per window-sync sample
  double msgs_per_shard_window = 1.0;
  std::int64_t suppliers = 1;  ///< directory size
  std::int64_t m = 8;          ///< candidates per lookup (M)
  /// Admission attempts per requester; with `suppliers` and `m` it sets
  /// the draw count a lazily rehydrated RNG stream replays (layers.cpp).
  double attempts_per_requester = 1.0;
  std::int64_t arrivals = 1;   ///< arrival-schedule length
  std::int64_t arrival_window_ms = 3'600'000;
};

/// Runs every driver. Returns {"metrics": {name: value}} in the units listed
/// in README.md (ns or us per operation), "sizes": every size the drivers
/// ran at, defaults included, and "derived_sizes": the sizes they computed
/// from `sizes` rather than took as given.
[[nodiscard]] p2ps::scenario::Json run_layers(const LayerSizes& sizes);

}  // namespace perfbench
