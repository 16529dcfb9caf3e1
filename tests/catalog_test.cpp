// Tests for the Zipf popularity model and the multi-file catalog engine.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "engine/catalog_system.hpp"
#include "obs/telemetry.hpp"
#include "util/assert.hpp"
#include "workload/zipf.hpp"

namespace p2ps {
namespace {

using util::SimTime;

// ---------- Zipf ----------

TEST(Zipf, UniformWhenSkewIsZero) {
  const workload::ZipfDistribution zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.pmf(k), 0.1, 1e-12);
  }
}

TEST(Zipf, PmfSumsToOneAndDecreases) {
  const workload::ZipfDistribution zipf(50, 1.0);
  double total = 0.0;
  for (std::size_t k = 0; k < 50; ++k) {
    total += zipf.pmf(k);
    if (k > 0) {
      EXPECT_LT(zipf.pmf(k), zipf.pmf(k - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, PmfRatiosFollowTheLaw) {
  const workload::ZipfDistribution zipf(100, 1.0);
  // P(1)/P(2) = 2 for s=1.
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(1), 2.0, 1e-9);
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(3), 4.0, 1e-9);
}

TEST(Zipf, SamplingMatchesPmf) {
  const workload::ZipfDistribution zipf(5, 0.8);
  util::Rng rng(4);
  std::vector<int> counts(5, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.005)
        << "rank " << k;
  }
}

TEST(Zipf, SingleItemCatalog) {
  const workload::ZipfDistribution zipf(1, 2.0);
  util::Rng rng(1);
  EXPECT_EQ(zipf.sample(rng), 0u);
  EXPECT_NEAR(zipf.pmf(0), 1.0, 1e-12);
}

TEST(Zipf, InvalidArgumentsThrow) {
  EXPECT_THROW(workload::ZipfDistribution(0, 1.0), util::ContractViolation);
  EXPECT_THROW(workload::ZipfDistribution(5, -0.1), util::ContractViolation);
  const workload::ZipfDistribution zipf(5, 1.0);
  EXPECT_THROW((void)zipf.pmf(5), util::ContractViolation);
}

// ---------- catalog engine ----------

engine::CatalogConfig small_catalog(std::uint64_t seed = 5) {
  engine::CatalogConfig config;
  config.files = 5;
  config.zipf_skew = 1.0;
  config.population.seeds = 4;  // per file
  config.population.requesters = 200;
  config.population.class_fractions = {0.25, 0.25, 0.25, 0.25};
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(6);
  config.horizon = SimTime::hours(18);
  config.seed = seed;
  return config;
}

TEST(CatalogEngine, ConservationAcrossFiles) {
  engine::CatalogStreamingSystem system(small_catalog());
  const auto result = system.run();

  std::int64_t requests = 0, admissions = 0, suppliers = 0;
  for (const auto& stats : result.per_file) {
    requests += stats.requests;
    admissions += stats.admissions;
    suppliers += stats.suppliers;
    EXPECT_LE(stats.admissions, stats.requests);
  }
  EXPECT_EQ(requests, 200);
  EXPECT_EQ(admissions, result.overall.overall.admissions);
  EXPECT_EQ(suppliers, result.overall.suppliers_at_end);
  // Every file keeps its seeds; served requesters add on top.
  EXPECT_EQ(result.overall.suppliers_at_end,
            5 * 4 + result.overall.sessions_completed);
}

TEST(CatalogEngine, PopularFilesAmplifyFaster) {
  auto config = small_catalog();
  config.population.requesters = 2000;
  config.arrival_window = SimTime::hours(12);
  config.horizon = SimTime::hours(36);
  const auto result = engine::CatalogStreamingSystem(config).run();

  // Zipf(1.0) over 5 files: rank 0 draws ~44% of requests, rank 4 ~9%.
  EXPECT_GT(result.per_file[0].requests, 2 * result.per_file[4].requests);
  // Self-amplification follows demand: the most popular file ends with the
  // largest supplier population and capacity.
  EXPECT_GT(result.per_file[0].suppliers, result.per_file[4].suppliers);
  EXPECT_GT(result.per_file[0].capacity, result.per_file[4].capacity);
}

TEST(CatalogEngine, DeterministicForSameSeed) {
  const auto a = engine::CatalogStreamingSystem(small_catalog(9)).run();
  const auto b = engine::CatalogStreamingSystem(small_catalog(9)).run();
  EXPECT_EQ(a.overall.events_executed, b.overall.events_executed);
  for (std::size_t f = 0; f < a.per_file.size(); ++f) {
    EXPECT_EQ(a.per_file[f].requests, b.per_file[f].requests);
    EXPECT_EQ(a.per_file[f].capacity, b.per_file[f].capacity);
  }
}

/// Every non-mechanics result of two catalog runs must agree.
void expect_same_protocol_results(const engine::CatalogResult& run,
                                  const engine::CatalogResult& reference) {
  EXPECT_EQ(run.overall.overall.admissions, reference.overall.overall.admissions);
  EXPECT_EQ(run.overall.overall.rejections, reference.overall.overall.rejections);
  EXPECT_EQ(run.overall.final_capacity, reference.overall.final_capacity);
  EXPECT_EQ(run.overall.suppliers_at_end, reference.overall.suppliers_at_end);
  EXPECT_EQ(run.overall.sessions_completed, reference.overall.sessions_completed);
  EXPECT_EQ(run.overall.events_executed, reference.overall.events_executed);
  ASSERT_EQ(run.per_file.size(), reference.per_file.size());
  for (std::size_t f = 0; f < run.per_file.size(); ++f) {
    EXPECT_EQ(run.per_file[f].requests, reference.per_file[f].requests);
    EXPECT_EQ(run.per_file[f].admissions, reference.per_file[f].admissions);
    EXPECT_EQ(run.per_file[f].suppliers, reference.per_file[f].suppliers);
    EXPECT_EQ(run.per_file[f].capacity, reference.per_file[f].capacity);
  }
  ASSERT_EQ(run.overall.hourly.size(), reference.overall.hourly.size());
  for (std::size_t h = 0; h < run.overall.hourly.size(); ++h) {
    EXPECT_EQ(run.overall.hourly[h].capacity, reference.overall.hourly[h].capacity);
  }
}

// Every supplier keeps an idle-elevation timer armed, so dozens are armed
// at once; the timing wheel still holds at most one notification event in
// the simulator's list.
TEST(CatalogEngine, TimerEventsOccupyAtMostOneEventListSlot) {
  const auto result = engine::CatalogStreamingSystem(small_catalog(11)).run();
  EXPECT_GT(result.overall.overall.admissions, 0);
  EXPECT_GT(result.overall.suppliers_at_end, 20);
  EXPECT_LE(result.overall.peak_event_list_timers, 1);
  EXPECT_GT(result.overall.peak_event_list, result.overall.peak_event_list_timers);
}

// The catalog engine has no registered scenario, so the registry-wide
// telemetry parity test does not cover it: attaching a telemetry sink
// (snapshot at every sample) must leave every protocol result unchanged.
TEST(CatalogEngine, TelemetryLeavesEveryProtocolResultUnchanged) {
  const auto reference = engine::CatalogStreamingSystem(small_catalog(11)).run();
  obs::TelemetryOptions options;
  options.path = ::testing::TempDir() + "catalog_telemetry.jsonl";
  options.interval_ms = 0;
  options.heartbeat = false;
  obs::Telemetry telemetry(std::move(options));
  ASSERT_TRUE(telemetry.ok());
  auto config = small_catalog(11);
  config.telemetry = &telemetry;
  const auto instrumented = engine::CatalogStreamingSystem(config).run();
  expect_same_protocol_results(instrumented, reference);
  EXPECT_GT(telemetry.snapshots(), 0);
  EXPECT_GT(telemetry.registry().aggregate("timers_fired"), 0);
}

TEST(CatalogEngine, SingleFileDegeneratesToBaseSystem) {
  auto config = small_catalog();
  config.files = 1;
  const auto result = engine::CatalogStreamingSystem(config).run();
  ASSERT_EQ(result.per_file.size(), 1u);
  EXPECT_EQ(result.per_file[0].requests, 200);
  EXPECT_EQ(result.per_file[0].capacity, result.overall.final_capacity);
}

TEST(CatalogEngine, NdacModeRuns) {
  auto config = small_catalog();
  config.protocol.differentiated = false;
  const auto result = engine::CatalogStreamingSystem(config).run();
  EXPECT_GT(result.overall.overall.admissions, 0);
}

TEST(CatalogEngine, RunTwiceThrows) {
  engine::CatalogStreamingSystem system(small_catalog());
  (void)system.run();
  EXPECT_THROW((void)system.run(), util::ContractViolation);
}

TEST(CatalogEngine, ConfigValidation) {
  auto config = small_catalog();
  config.files = 0;
  EXPECT_THROW(engine::CatalogStreamingSystem{config}, util::ContractViolation);
  config = small_catalog();
  config.zipf_skew = -1.0;
  EXPECT_THROW(engine::CatalogStreamingSystem{config}, util::ContractViolation);
}

}  // namespace
}  // namespace p2ps
