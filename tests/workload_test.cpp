// Tests for the workload generators: the four arrival patterns and the
// population builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/arrival_pattern.hpp"
#include "workload/population.hpp"

namespace p2ps::workload {
namespace {

using util::SimTime;

constexpr std::int64_t kTotal = 50'000;
const SimTime kWindow = SimTime::hours(72);

class EveryPattern : public ::testing::TestWithParam<ArrivalPattern> {};

TEST_P(EveryPattern, ExactTotalSortedAndInWindow) {
  const auto schedule = ArrivalSchedule::make(GetParam(), kTotal, kWindow);
  EXPECT_EQ(schedule.total(), kTotal);
  EXPECT_EQ(schedule.window(), kWindow);
  const auto& times = schedule.times();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_GE(times.front(), SimTime::zero());
  EXPECT_LT(times.back(), kWindow);
  EXPECT_EQ(schedule.arrivals_between(SimTime::zero(), kWindow), kTotal);
}

TEST_P(EveryPattern, Deterministic) {
  const auto a = ArrivalSchedule::make(GetParam(), 1000, kWindow);
  const auto b = ArrivalSchedule::make(GetParam(), 1000, kWindow);
  EXPECT_EQ(a.times(), b.times());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, EveryPattern,
    ::testing::Values(ArrivalPattern::kConstant, ArrivalPattern::kRampUpDown,
                      ArrivalPattern::kBurstThenConstant,
                      ArrivalPattern::kPeriodicBursts),
    [](const ::testing::TestParamInfo<ArrivalPattern>& info) {
      return "pattern" + std::to_string(static_cast<int>(info.param));
    });

// ---------- ArrivalCursor (the lazy consumption API) ----------

TEST_P(EveryPattern, CursorWalkMatchesTimesVector) {
  // The equivalence contract behind the lazy arrival source: walking the
  // cursor yields exactly the times() vector, in order, for every paper
  // pattern.
  const auto schedule = ArrivalSchedule::make(GetParam(), 2'000, kWindow);
  auto cursor = schedule.cursor();
  std::vector<SimTime> walked;
  while (auto t = cursor.next_arrival()) walked.push_back(*t);
  EXPECT_EQ(walked, schedule.times());
  EXPECT_TRUE(cursor.exhausted());
}

TEST_P(EveryPattern, LazyCursorWalksLikeTheEagerOne) {
  // The sharded engine walks make_lazy schedules; its cursor must hand out
  // the eager schedule's times, in order, and then stay exhausted.
  const auto eager = ArrivalSchedule::make(GetParam(), 2'000, kWindow);
  const auto lazy = ArrivalSchedule::make_lazy(GetParam(), 2'000, kWindow);
  auto cursor = lazy.cursor();
  std::vector<SimTime> walked;
  while (auto t = cursor.next_arrival()) walked.push_back(*t);
  EXPECT_EQ(walked, eager.times());
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.peek(), std::nullopt);
}

TEST(ArrivalCursor, ExhaustionIsSticky) {
  const auto schedule = ArrivalSchedule::make(ArrivalPattern::kConstant, 3, kWindow);
  auto cursor = schedule.cursor();
  EXPECT_EQ(cursor.remaining(), 3);
  EXPECT_FALSE(cursor.exhausted());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cursor.next_arrival().has_value());
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.remaining(), 0);
  EXPECT_EQ(cursor.consumed(), 3);
  // Past the end it keeps returning nullopt — no wraparound, no throw.
  EXPECT_FALSE(cursor.next_arrival().has_value());
  EXPECT_FALSE(cursor.next_arrival().has_value());
  EXPECT_FALSE(cursor.peek().has_value());
  EXPECT_EQ(cursor.consumed(), 3);
}

TEST(ArrivalCursor, PeekDoesNotAdvance) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kRampUpDown, 100, kWindow);
  auto cursor = schedule.cursor();
  const auto peeked = cursor.peek();
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(cursor.consumed(), 0);
  EXPECT_EQ(cursor.next_arrival(), peeked);
  EXPECT_EQ(cursor.consumed(), 1);
  EXPECT_EQ(cursor.peek(), schedule.times()[1]);
}

TEST(ArrivalCursor, EmptyScheduleIsBornExhausted) {
  const auto schedule = ArrivalSchedule::make(ArrivalPattern::kConstant, 0, kWindow);
  auto cursor = schedule.cursor();
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_FALSE(cursor.peek().has_value());
  EXPECT_FALSE(cursor.next_arrival().has_value());
}

TEST(ArrivalCursor, IndependentCursorsDoNotInterfere) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kBurstThenConstant, 10, kWindow);
  auto a = schedule.cursor();
  auto b = schedule.cursor();
  (void)a.next_arrival();
  (void)a.next_arrival();
  EXPECT_EQ(b.consumed(), 0);
  EXPECT_EQ(b.next_arrival(), schedule.times()[0]);
  EXPECT_EQ(a.next_arrival(), schedule.times()[2]);
}

TEST(ArrivalSchedule, ArrivalAtIndexesTheSortedTimes) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kConstant, 50, kWindow);
  for (std::int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(schedule.arrival_at(i), schedule.times()[static_cast<std::size_t>(i)]);
  }
  EXPECT_THROW((void)schedule.arrival_at(-1), util::ContractViolation);
  EXPECT_THROW((void)schedule.arrival_at(50), util::ContractViolation);
}

// The lazy-schedule contract the sharded engine's 10M-peer runs rest on:
// computing an arrival on demand from the piece table and reading it from
// a materialised vector are the same pure function of the index, so every
// arrival_at (and the derived arrivals_between) agrees bit-for-bit.
TEST(ArrivalSchedule, LazyAgreesWithEagerOnEveryArrival) {
  for (const auto pattern :
       {ArrivalPattern::kConstant, ArrivalPattern::kRampUpDown,
        ArrivalPattern::kBurstThenConstant, ArrivalPattern::kPeriodicBursts}) {
    const auto eager = ArrivalSchedule::make(pattern, 977, kWindow);
    const auto lazy = ArrivalSchedule::make_lazy(pattern, 977, kWindow);
    EXPECT_TRUE(lazy.lazy());
    EXPECT_FALSE(eager.lazy());
    ASSERT_EQ(lazy.total(), eager.total());
    EXPECT_EQ(lazy.window(), eager.window());
    for (std::int64_t i = 0; i < eager.total(); ++i) {
      ASSERT_EQ(lazy.arrival_at(i), eager.arrival_at(i))
          << to_string(pattern) << " index " << i;
    }
    for (int h = 0; h <= 72; h += 7) {
      EXPECT_EQ(lazy.arrivals_between(SimTime::hours(h), SimTime::hours(h + 5)),
                eager.arrivals_between(SimTime::hours(h), SimTime::hours(h + 5)));
    }
    EXPECT_THROW((void)lazy.times(), util::ContractViolation);
  }
}

TEST(Pattern1, ConstantHourlyCounts) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kConstant, kTotal, kWindow);
  const std::int64_t per_hour = kTotal / 72;
  for (int h = 0; h < 72; ++h) {
    const auto count =
        schedule.arrivals_between(SimTime::hours(h), SimTime::hours(h + 1));
    EXPECT_NEAR(static_cast<double>(count), static_cast<double>(per_hour), 2.0);
  }
}

TEST(Pattern2, RampRisesThenFalls) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kRampUpDown, kTotal, kWindow);
  // 6-hour buckets trace the triangle: increasing to mid-window, then
  // decreasing.
  std::vector<std::int64_t> buckets;
  for (int b = 0; b < 12; ++b) {
    buckets.push_back(
        schedule.arrivals_between(SimTime::hours(6 * b), SimTime::hours(6 * (b + 1))));
  }
  for (int b = 0; b + 1 < 6; ++b) EXPECT_LT(buckets[b], buckets[b + 1]);
  for (int b = 6; b + 1 < 12; ++b) EXPECT_GT(buckets[b], buckets[b + 1]);
  // Peak is at mid-window, roughly 6x the first bucket (triangle 1..6).
  EXPECT_GT(buckets[5], 4 * buckets[0]);
}

TEST(Pattern3, FrontLoadedBurst) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kBurstThenConstant, kTotal, kWindow);
  // 40% of arrivals within the first 6 hours (1/12 of the window).
  const auto burst = schedule.arrivals_between(SimTime::zero(), SimTime::hours(6));
  EXPECT_NEAR(static_cast<double>(burst), 0.4 * kTotal, 0.01 * kTotal);
  // Burst rate dwarfs the tail rate.
  EXPECT_GT(schedule.rate_per_hour_at(SimTime::hours(1)),
            5.0 * schedule.rate_per_hour_at(SimTime::hours(40)));
}

TEST(Pattern4, PeriodicBursts) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kPeriodicBursts, kTotal, kWindow);
  for (int cycle = 0; cycle < 6; ++cycle) {
    const SimTime start = SimTime::hours(12 * cycle);
    const auto burst = schedule.arrivals_between(start, start + SimTime::hours(2));
    const auto floor_count =
        schedule.arrivals_between(start + SimTime::hours(2), start + SimTime::hours(12));
    EXPECT_NEAR(static_cast<double>(burst), 0.1 * kTotal, 0.01 * kTotal)
        << "cycle " << cycle;
    EXPECT_NEAR(static_cast<double>(floor_count), 0.4 / 6.0 * kTotal, 0.01 * kTotal)
        << "cycle " << cycle;
    // Burst rate is much higher than the floor rate.
    EXPECT_GT(schedule.rate_per_hour_at(start + SimTime::hours(1)),
              5.0 * schedule.rate_per_hour_at(start + SimTime::hours(6)));
  }
}

TEST(ArrivalSchedule, RateIsZeroOutsideWindow) {
  const auto schedule =
      ArrivalSchedule::make(ArrivalPattern::kConstant, 1000, kWindow);
  EXPECT_EQ(schedule.rate_per_hour_at(SimTime::hours(100)), 0.0);
  EXPECT_EQ(schedule.rate_per_hour_at(SimTime::zero() - SimTime::millis(1)), 0.0);
  EXPECT_GT(schedule.rate_per_hour_at(SimTime::hours(10)), 0.0);
}

TEST(ArrivalSchedule, CustomPiecesAndValidation) {
  const auto schedule = ArrivalSchedule::from_pieces(
      {{SimTime::hours(1), 3.0}, {SimTime::hours(1), 1.0}}, 400);
  EXPECT_EQ(schedule.arrivals_between(SimTime::zero(), SimTime::hours(1)), 300);
  EXPECT_EQ(schedule.arrivals_between(SimTime::hours(1), SimTime::hours(2)), 100);

  EXPECT_THROW((void)ArrivalSchedule::from_pieces({}, 10), util::ContractViolation);
  EXPECT_THROW(
      (void)ArrivalSchedule::from_pieces({{SimTime::zero(), 1.0}}, 10),
      util::ContractViolation);
  EXPECT_THROW(
      (void)ArrivalSchedule::from_pieces({{SimTime::hours(1), 0.0}}, 10),
      util::ContractViolation);
}

TEST(ArrivalSchedule, ZeroArrivalsIsValid) {
  const auto schedule = ArrivalSchedule::make(ArrivalPattern::kConstant, 0, kWindow);
  EXPECT_EQ(schedule.total(), 0);
  EXPECT_TRUE(schedule.times().empty());
}

// ---------- population ----------

TEST(Population, DefaultsMatchPaper) {
  const PopulationConfig config;
  EXPECT_NO_THROW(validate(config));
  util::Rng rng(1);
  const auto classes = build_requester_classes(config, rng);
  ASSERT_EQ(classes.size(), 50'000u);
  std::map<core::PeerClass, std::int64_t> counts;
  for (auto c : classes) ++counts[c];
  EXPECT_EQ(counts[1], 5'000);
  EXPECT_EQ(counts[2], 5'000);
  EXPECT_EQ(counts[3], 20'000);
  EXPECT_EQ(counts[4], 20'000);
}

TEST(Population, ShuffleDependsOnSeedOnly) {
  const PopulationConfig config;
  util::Rng a(9), b(9), c(10);
  const auto ca = build_requester_classes(config, a);
  const auto cb = build_requester_classes(config, b);
  const auto cc = build_requester_classes(config, c);
  EXPECT_EQ(ca, cb);
  EXPECT_NE(ca, cc);
}

TEST(Population, LargestRemainderHandlesRaggedCounts) {
  PopulationConfig config;
  config.requesters = 7;  // 0.7 / 0.7 / 2.8 / 2.8 exact shares
  util::Rng rng(2);
  const auto classes = build_requester_classes(config, rng);
  ASSERT_EQ(classes.size(), 7u);
  std::map<core::PeerClass, std::int64_t> counts;
  for (auto c : classes) ++counts[c];
  std::int64_t total = 0;
  for (auto& [cls, n] : counts) total += n;
  EXPECT_EQ(total, 7);
  // Floors 0/0/2/2 leave three spares; remainders .8/.8/.7/.7 hand them to
  // classes 3, 4 and 1 in that order.
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 3);
  EXPECT_EQ(counts[4], 3);
}

TEST(Population, MaxCapacityMatchesPaperYardstick) {
  EXPECT_EQ(max_possible_capacity(PopulationConfig{}), 7550);
}

TEST(Population, ValidationRejectsBadConfigs) {
  PopulationConfig bad_fractions;
  bad_fractions.class_fractions = {0.5, 0.5, 0.5, 0.5};
  EXPECT_THROW(validate(bad_fractions), util::ContractViolation);

  PopulationConfig wrong_arity;
  wrong_arity.class_fractions = {1.0};
  EXPECT_THROW(validate(wrong_arity), util::ContractViolation);

  PopulationConfig bad_seed_class;
  bad_seed_class.seed_class = 9;
  EXPECT_THROW(validate(bad_seed_class), util::ContractViolation);

  PopulationConfig negative;
  negative.requesters = -1;
  EXPECT_THROW(validate(negative), util::ContractViolation);
}

TEST(Population, SmallPopulationCapacity) {
  PopulationConfig config;
  config.seeds = 4;
  config.seed_class = 1;
  config.requesters = 16;
  config.class_fractions = {0.25, 0.25, 0.25, 0.25};
  // Seeds: 4/2 = 2 R0. Requesters: 4·(1/2+1/4+1/8+1/16) = 3.75 R0 → 5.75.
  EXPECT_EQ(max_possible_capacity(config), 5);
}

}  // namespace
}  // namespace p2ps::workload
