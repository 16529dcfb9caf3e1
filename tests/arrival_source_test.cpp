// Tests for the lazy, self-rescheduling arrival source, the retry heap that
// applies the same trick to the backoff stream, and the peak-event-list
// contraction they exist to deliver.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "engine/arrival_source.hpp"
#include "engine/config.hpp"
#include "engine/async_system.hpp"
#include "engine/retry_heap.hpp"
#include "engine/streaming_system.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps::engine {
namespace {

using util::SimTime;

workload::ArrivalSchedule constant_schedule(std::int64_t total) {
  return workload::ArrivalSchedule::make(workload::ArrivalPattern::kConstant,
                                         total, SimTime::hours(72));
}

TEST(ArrivalSource, FiresEveryArrivalAtItsScheduledTimeInOrder) {
  sim::Simulator simulator;
  auto schedule = constant_schedule(500);
  const std::vector<SimTime> expected = schedule.times();

  std::vector<std::int64_t> indices;
  std::vector<SimTime> fire_times;
  ArrivalSource source(simulator, std::move(schedule),
                       [&](std::int64_t index) {
                         indices.push_back(index);
                         fire_times.push_back(simulator.now());
                       });
  EXPECT_EQ(source.emitted(), 0);
  source.start();
  simulator.run();

  ASSERT_EQ(indices.size(), 500u);
  EXPECT_TRUE(source.done());
  EXPECT_EQ(source.emitted(), 500);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], static_cast<std::int64_t>(i));
    EXPECT_EQ(fire_times[i], expected[i]);
  }
}

TEST(ArrivalSource, KeepsExactlyOneEventInFlight) {
  sim::Simulator simulator;
  ArrivalSource source(simulator, constant_schedule(200), [&](std::int64_t) {
    // At handler time the successor is already queued (reschedule-first),
    // so the source accounts for exactly one pending event.
    EXPECT_LE(simulator.pending_count(), 1u);
  });
  source.start();
  EXPECT_EQ(simulator.pending_count(), 1u);
  simulator.run();
  EXPECT_EQ(simulator.peak_pending_count(), 1u);  // never the full 200
  EXPECT_TRUE(source.done());
}

TEST(ArrivalSource, EmptyScheduleIsDoneWithoutEvents) {
  sim::Simulator simulator;
  ArrivalSource source(simulator, constant_schedule(0),
                       [](std::int64_t) { FAIL() << "no arrivals expected"; });
  source.start();
  EXPECT_TRUE(source.done());
  EXPECT_EQ(simulator.pending_count(), 0u);
  EXPECT_EQ(simulator.run(), 0u);
}

TEST(ArrivalSource, DestructorCancelsTheInFlightEvent) {
  sim::Simulator simulator;
  int fired = 0;
  {
    ArrivalSource source(simulator, constant_schedule(10),
                         [&](std::int64_t) { ++fired; });
    source.start();
    // Run half the window, then drop the source mid-stream.
    simulator.run_until(SimTime::hours(36));
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 10);
    EXPECT_FALSE(source.done());
  }
  // The orphaned arrival event was cancelled: draining the simulator fires
  // nothing further and never touches the destroyed source.
  const int fired_before_drain = fired;
  simulator.run();
  EXPECT_EQ(fired, fired_before_drain);
}

TEST(ArrivalSource, SameTimestampArrivalsFireBackToBack) {
  // Two arrivals at one instant: the successor is scheduled before the
  // current handler runs, so any same-time event the handler schedules
  // fires only after the whole arrival run (the eager-ordering property
  // the lazy refactor preserves — see docs/lazy_arrivals.md).
  sim::Simulator simulator;
  auto schedule = workload::ArrivalSchedule::from_pieces(
      {{SimTime::millis(1), 1.0}}, 2);  // both arrivals land at t=0
  std::vector<std::string> order;
  ArrivalSource source(simulator, std::move(schedule), [&](std::int64_t index) {
    order.push_back("arrival" + std::to_string(index));
    simulator.schedule_after(SimTime::zero(),
                             [&] { order.push_back("handler-continuation"); });
  });
  source.start();
  simulator.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"arrival0", "arrival1",
                                      "handler-continuation",
                                      "handler-continuation"}));
}

// ---------- RetryHeap (the backoff stream's single in-flight event) ----

TEST(RetryHeap, FiresInDueOrderWithFifoTies) {
  sim::Simulator simulator;
  std::vector<std::uint32_t> order;
  RetryHeap retries(simulator, SimTime::hours(1),
                    [&](std::uint32_t peer) { order.push_back(peer); });
  retries.schedule(SimTime::seconds(30), 3);
  retries.schedule(SimTime::seconds(10), 1);
  retries.schedule(SimTime::seconds(10), 2);  // FIFO on tie
  retries.schedule(SimTime::seconds(20), 0);
  EXPECT_EQ(retries.waiting(), 4u);
  // The whole waiting population costs one pending simulator event.
  EXPECT_EQ(simulator.pending_count(), 1u);
  simulator.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0, 3}));
  EXPECT_EQ(retries.waiting(), 0u);
  EXPECT_EQ(simulator.peak_pending_count(), 1u);
}

TEST(RetryHeap, EarlierInsertionPreemptsTheInFlightEvent) {
  sim::Simulator simulator;
  std::vector<std::pair<SimTime, std::uint32_t>> fired;
  RetryHeap retries(simulator, SimTime::hours(1), [&](std::uint32_t peer) {
    fired.emplace_back(simulator.now(), peer);
  });
  retries.schedule(SimTime::seconds(100), 9);
  retries.schedule(SimTime::seconds(5), 1);  // preempts
  EXPECT_EQ(simulator.pending_count(), 1u);
  simulator.run();
  EXPECT_EQ(fired, (std::vector<std::pair<SimTime, std::uint32_t>>{
                       {SimTime::seconds(5), 1}, {SimTime::seconds(100), 9}}));
}

TEST(RetryHeap, HandlerMayScheduleFurtherRetries) {
  // The engine's actual shape: a due retry that fails re-enters the queue
  // with a longer backoff.
  sim::Simulator simulator;
  int fires = 0;
  RetryHeap* source = nullptr;
  RetryHeap retries(simulator, SimTime::hours(2), [&](std::uint32_t peer) {
    if (++fires < 4) source->schedule(SimTime::minutes(10 * fires), peer);
  });
  source = &retries;
  retries.schedule(SimTime::minutes(1), 7);
  simulator.run();
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(retries.waiting(), 0u);
  EXPECT_EQ(simulator.peak_pending_count(), 1u);
}

// Both single-process engines key their retries by 32-bit millisecond
// deadlines, so a horizon of 2^32 ms (~49.7 days) or more is rejected when
// the engine is built, not discovered mid-run.
TEST(RetryHeap, SingleProcessEnginesRejectA50DayHorizon) {
  SimulationConfig session;
  session.population.seeds = 4;
  session.population.requesters = 100;
  session.horizon = SimTime::hours(49 * 24);
  EXPECT_NO_THROW(StreamingSystem{session});
  session.horizon = SimTime::hours(50 * 24);
  EXPECT_THROW(StreamingSystem{session}, util::ContractViolation);

  AsyncSimulationConfig message;
  message.population.seeds = 4;
  message.population.requesters = 100;
  message.horizon = SimTime::hours(49 * 24);
  EXPECT_NO_THROW(AsyncStreamingSystem{message});
  message.horizon = SimTime::hours(50 * 24);
  EXPECT_THROW(AsyncStreamingSystem{message}, util::ContractViolation);
}

// ---------- the engine-level contraction ----------

TEST(LazyArrivals, PeakEventListIsFarBelowPopulation) {
  // A paper-shaped population (enough seeds that admission keeps up, the
  // regime of Section 5's self-amplification result). Eager pre-scheduling
  // put every first request in the queue at t=0, so its peak was
  // >= requesters; lazy arrivals keep the queue at O(active sessions +
  // timers + waiting peers): at least 10x smaller here.
  SimulationConfig config;
  config.population.seeds = 20;
  config.population.requesters = 2'000;
  config.validate_invariants = false;
  config.seed = 77;
  const auto result = StreamingSystem(config).run();
  EXPECT_GT(result.peak_event_list, 0);
  EXPECT_LT(result.peak_event_list, config.population.requesters / 10);
  EXPECT_EQ(result.overall.first_requests, 2'000);
}

TEST(LazyArrivals, ResultsIdenticalAcrossEventListBackends) {
  SimulationConfig heap_config;
  heap_config.population.seeds = 4;
  heap_config.population.requesters = 600;
  heap_config.validate_invariants = false;
  heap_config.seed = 11;
  heap_config.event_list = sim::EventListKind::kBinaryHeap;
  SimulationConfig calendar_config = heap_config;
  calendar_config.event_list = sim::EventListKind::kCalendarQueue;

  const auto on_heap = StreamingSystem(heap_config).run();
  const auto on_calendar = StreamingSystem(calendar_config).run();
  EXPECT_EQ(on_heap.events_executed, on_calendar.events_executed);
  EXPECT_EQ(on_heap.peak_event_list, on_calendar.peak_event_list);
  EXPECT_EQ(on_heap.final_capacity, on_calendar.final_capacity);
  EXPECT_EQ(on_heap.sessions_completed, on_calendar.sessions_completed);
  EXPECT_EQ(on_heap.overall.admissions, on_calendar.overall.admissions);
}

}  // namespace
}  // namespace p2ps::engine
