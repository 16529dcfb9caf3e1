#include "obs/mechanics_schema.hpp"

namespace p2ps::obs {

namespace {

constexpr MechanicsField kSchema[] = {
    {"peak_event_list_timers",
     "armed-timer share of the pending-event population at its peak "
     "instant (the timer wheel's notification events)"},
    {"peak_event_list_other",
     "non-timer share of the pending-event population at its peak instant "
     "(peak_event_list_timers + peak_event_list_other = peak_event_list)"},
    {"peak_event_list",
     "high-water mark of the simulator's pending-event population"},
    {"events_executed",
     "total simulator events executed (per shard in sharded payloads)"},
    {"timer_events_scheduled",
     "simulator events the timer wheel scheduled (its notification "
     "events; see docs/timers.md)"},
    {"peak_rss_bytes",
     "process peak resident set size (getrusage; machine-dependent)"},
    {"bytes_per_peer",
     "peak_rss_bytes / total peers — the memory-campaign density gate "
     "(docs/memory.md)"},
    {"pool_allocations",
     "cold-state pool slots constructed fresh (engine RNG/attempt pools + "
     "router batch pool)"},
    {"pool_reuses",
     "cold-state pool slots recycled off a free list (healthy steady "
     "state reuses far more than it allocates)"},
    {"windows_idle_skipped",
     "sharded lookahead windows whose start jumped an idle gap instead of "
     "barriering through it"},
    {"windows_fused",
     "unit lookahead sub-windows absorbed into a prior runner dispatch by "
     "window fusion (docs/sharding.md, Adaptive lookahead)"},
    {"directory_flushes",
     "directory slow-path publications — windows where joins were actually "
     "due; every other window takes the O(1) nothing-due fast path"},
    {"lookahead_avg_ms",
     "mean simulated span covered per unit sub-window, ms (idle skips "
     "included, so sparse phases push this above the lookahead)"},
};

/// No key may be a prefix of a later key — the longest-match-first scan in
/// strip_event_mechanics would otherwise zero the wrong field.
constexpr bool prefix_order_ok() {
  for (std::size_t i = 0; i < std::size(kSchema); ++i) {
    for (std::size_t j = i + 1; j < std::size(kSchema); ++j) {
      const std::string_view earlier = kSchema[i].key;
      const std::string_view later = kSchema[j].key;
      if (later.size() > earlier.size() &&
          later.substr(0, earlier.size()) == earlier) {
        return false;
      }
    }
  }
  return true;
}
static_assert(prefix_order_ok(),
              "mechanics schema keys must list longer keys before their "
              "prefixes (strip_event_mechanics scan order)");

}  // namespace

const MechanicsField* mechanics_schema() { return kSchema; }

std::size_t mechanics_schema_size() { return std::size(kSchema); }

}  // namespace p2ps::obs
