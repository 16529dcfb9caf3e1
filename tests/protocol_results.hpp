// Field-by-field comparison of two session-engine results, for the suites
// that pin an out-of-band knob (telemetry) as leaving the protocol alone.
#pragma once

#include <gtest/gtest.h>

#include "engine/result.hpp"

namespace p2ps {

/// Every non-mechanics field of two runs must agree.
inline void expect_same_protocol_results(const engine::SimulationResult& run,
                                         const engine::SimulationResult& reference) {
  ASSERT_EQ(run.totals.size(), reference.totals.size());
  for (std::size_t c = 0; c < run.totals.size(); ++c) {
    EXPECT_EQ(run.totals[c].first_requests, reference.totals[c].first_requests);
    EXPECT_EQ(run.totals[c].attempts, reference.totals[c].attempts);
    EXPECT_EQ(run.totals[c].admissions, reference.totals[c].admissions);
    EXPECT_EQ(run.totals[c].rejections, reference.totals[c].rejections);
    EXPECT_EQ(run.totals[c].buffering_delay_dt_sum,
              reference.totals[c].buffering_delay_dt_sum);
    EXPECT_EQ(run.totals[c].waiting_ms_sum, reference.totals[c].waiting_ms_sum);
  }
  ASSERT_EQ(run.hourly.size(), reference.hourly.size());
  for (std::size_t h = 0; h < run.hourly.size(); ++h) {
    EXPECT_EQ(run.hourly[h].capacity, reference.hourly[h].capacity);
    EXPECT_EQ(run.hourly[h].active_sessions, reference.hourly[h].active_sessions);
    EXPECT_EQ(run.hourly[h].suppliers, reference.hourly[h].suppliers);
  }
  EXPECT_EQ(run.final_capacity, reference.final_capacity);
  EXPECT_EQ(run.suppliers_at_end, reference.suppliers_at_end);
  EXPECT_EQ(run.sessions_completed, reference.sessions_completed);
  EXPECT_EQ(run.sessions_active_at_end, reference.sessions_active_at_end);
  EXPECT_EQ(run.events_executed, reference.events_executed);
}

}  // namespace p2ps
