// The one shared table of event-core mechanics counters.
//
// Mechanics counters describe HOW a run executed (event counts, peaks,
// pool traffic, RSS), not WHAT it computed — they are the only payload
// fields allowed to vary across shard counts and machines. Two consumers
// must agree on the exact key set: scenario payloads emit them (behind
// --mechanics for the partition-dependent ones), and
// scenario::strip_event_mechanics zeroes them before parity comparisons. Deriving both from this table means a new counter
// added here is automatically stripped — it cannot silently leak into a
// parity-checked payload — and docs/observability.md documents the same
// list the code enforces.
#pragma once

#include <cstddef>
#include <string_view>

namespace p2ps::obs {

struct MechanicsField {
  std::string_view key;
  std::string_view description;
};

/// The schema, ordered so that no key is a prefix of a LATER key (e.g.
/// "peak_event_list_timers" precedes "peak_event_list") — the order
/// strip_event_mechanics' longest-match-first scan depends on; enforced
/// by a static assert in mechanics_schema.cpp and tests/obs_test.cpp.
[[nodiscard]] const MechanicsField* mechanics_schema();
[[nodiscard]] std::size_t mechanics_schema_size();

}  // namespace p2ps::obs
