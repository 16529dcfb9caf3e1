// Sharded scenario family — the conservative-parallel engine
// (engine::ShardedSystem over ShardRunner + ShardRouter) at and beyond
// paper scale.
//
// Parity contract (the family's reason to exist): a sharded scenario's
// payload is byte-identical for EVERY --shards and --shard-threads value,
// including --shards 1 — partitioning is an execution detail, never a
// workload parameter (docs/sharding.md). Everything partition- or
// machine-dependent (per-shard event counts, window/exchange counters,
// peak RSS) is emitted only behind --mechanics, the same gate the
// perf_messages mechanics use, so default payloads stay whole-document
// comparable in tests/shard_test.cpp and scripts/ci.sh.
#include <string>
#include <utility>

#include "core/bandwidth.hpp"
#include "engine/sharded_system.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::scenario {
namespace {

using util::SimTime;

/// Shared base: seed/backend/shard plumbing plus the latency model (each
/// scenario picks its default) and the loss axis. The sharded engine has no
/// TimerService and routes through its own ShardRouter, not the mailbox.
engine::ShardedConfig sharded_config(const ScenarioOptions& options,
                                     int default_shards,
                                     net::LatencyModelKind default_latency) {
  engine::ShardedConfig config;
  config.seed = options.seed;
  config.event_list = options.event_list;
  config.shards = options.shards.value_or(default_shards);
  config.threads = options.shard_threads;
  config.fusion = options.fusion.value_or(config.fusion);
  config.latency = net::LatencyModel::of(options.latency.value_or(default_latency));
  config.loss = options.loss.value_or(0.0);
  if (options.policy != nullptr) config.selection_policy = options.policy;
  config.telemetry = options.telemetry;
  return config;
}

Json sharded_class_json(const engine::ShardedClassTotals& totals) {
  Json out = Json::object();
  out.set("first_requests", totals.first_requests);
  out.set("attempts", totals.attempts);
  out.set("admissions", totals.admissions);
  out.set("rejections", totals.rejections);
  // Derived once from the merged integer sums (mirroring
  // metrics::ClassCounters) — no floating-point accumulation anywhere, so
  // shard structure cannot leak through non-associativity.
  out.set("admission_rate",
          totals.first_requests > 0
              ? Json(static_cast<double>(totals.admissions) /
                     static_cast<double>(totals.first_requests))
              : Json());
  out.set("mean_delay_dt",
          totals.admissions > 0
              ? Json(static_cast<double>(totals.delay_dt_sum) /
                     static_cast<double>(totals.admissions))
              : Json());
  out.set("mean_rejections",
          totals.admissions > 0
              ? Json(static_cast<double>(totals.rejections_at_admission_sum) /
                     static_cast<double>(totals.admissions))
              : Json());
  out.set("mean_waiting_minutes",
          totals.admissions > 0
              ? Json(static_cast<double>(totals.waiting_ms_sum) / 60'000.0 /
                     static_cast<double>(totals.admissions))
              : Json());
  return out;
}

/// Partition-invariant payload, plus the --mechanics block when asked.
Json sharded_result_to_json(const ScenarioOptions& options,
                            const engine::ShardedConfig& config,
                            const engine::ShardedResult& result,
                            int series_step_hours) {
  Json out = Json::object();
  out.set("final_capacity", result.final_capacity);
  out.set("max_capacity", result.max_capacity);
  out.set("suppliers_at_end", result.suppliers_at_end);
  out.set("sessions_completed", result.sessions_completed);
  out.set("sessions_active_at_end", result.sessions_active_at_end);
  out.set("hold_expirations", result.hold_expirations);
  out.set("watchdog_recoveries", result.watchdog_recoveries);
  out.set("overall", sharded_class_json(result.overall));
  Json per_class = Json::array();
  for (const auto& totals : result.totals) {
    per_class.push_back(sharded_class_json(totals));
  }
  out.set("per_class", std::move(per_class));
  Json messages = Json::object();
  messages.set("sent", result.messages_sent);
  messages.set("delivered", result.messages_delivered);
  messages.set("dropped", result.messages_dropped);
  out.set("messages", std::move(messages));
  if (!result.hourly.empty() && series_step_hours > 0) {
    Json series = Json::array();
    const int end_hour = static_cast<int>(result.hourly.back().t.as_hours());
    for (int h = 0; h <= end_hour; h += series_step_hours) {
      const auto& sample = result.hourly[static_cast<std::size_t>(h)];
      P2PS_CHECK(sample.t == SimTime::hours(h));
      Json point = Json::object();
      point.set("hour", h);
      // Whole-stream capacity floored once from the merged exact units.
      point.set("capacity", core::capacity(core::Bandwidth::from_units(
                                sample.capacity_units)));
      point.set("active_sessions", sample.active_sessions);
      point.set("suppliers", sample.suppliers);
      series.push_back(std::move(point));
    }
    out.set("capacity_series", std::move(series));
  }
  if (options.mechanics) {
    Json mechanics = Json::object();
    mechanics.set("shards", config.shards);
    mechanics.set("threads", config.threads);
    mechanics.set("fusion", config.fusion);
    mechanics.set("windows", result.windows);
    mechanics.set("windows_fused", result.windows_fused);
    mechanics.set("windows_idle_skipped", result.windows_idle_skipped);
    mechanics.set("lookahead_avg_ms", result.lookahead_avg_ms);
    mechanics.set("directory_flushes", result.directory_flushes);
    mechanics.set("cross_shard_messages", result.cross_shard_messages);
    mechanics.set("peak_rss_bytes", result.peak_rss_bytes);
    // The memory campaign's headline number: whole-process peak RSS over
    // the whole population (docs/memory.md). Includes every fixed cost
    // (binary, directory, arrival schedule), so it upper-bounds the
    // per-peer footprint honestly.
    const std::int64_t total_peers =
        config.population.seeds + config.population.requesters;
    mechanics.set("bytes_per_peer",
                  total_peers > 0 ? result.peak_rss_bytes / total_peers : 0);
    mechanics.set("pool_allocations", result.pool_allocations);
    mechanics.set("pool_reuses", result.pool_reuses);
    Json per_shard = Json::array();
    for (const auto& shard : result.per_shard) {
      Json one = Json::object();
      one.set("events_executed", shard.events_executed);
      one.set("peak_event_list", shard.peak_event_list);
      one.set("messages_sent", shard.messages_sent);
      per_shard.push_back(std::move(one));
    }
    mechanics.set("per_shard", std::move(per_shard));
    out.set("mechanics", std::move(mechanics));
  }
  return out;
}

// ---- msg_fig5_sharded: the paper's fig5 population on the sharded
// engine — the byte-parity reference workload for any --shards ----

Json msg_fig5_sharded(const ScenarioOptions& options) {
  auto config = sharded_config(options, /*default_shards=*/4,
                               net::LatencyModelKind::kTwoClass);
  config.pattern = workload::ArrivalPattern::kRampUpDown;
  config.arrival_window = SimTime::hours(72);
  config.horizon = SimTime::hours(144);
  workload::apply_population_divisor(config.population, options.scale);

  engine::ShardedSystem system(std::move(config));
  const auto result = system.run();
  Json out = Json::object();
  out.set("latency", std::string(net::to_string(system.config().latency.kind)));
  out.set("drop_probability", system.config().loss);
  out.set("run", sharded_result_to_json(options, system.config(), result, 12));
  return out;
}

// ---- perf_sharded_scale: the million-peer point — 1,000,000 requesters
// against 2,000 seeds under fixed 40 ms latency (maximal delivery
// batching), 10 shards by default. The BENCH_7 workload ----

Json perf_sharded_scale(const ScenarioOptions& options) {
  auto config = sharded_config(options, /*default_shards=*/10,
                               net::LatencyModelKind::kFixed);
  config.population.seeds = 2'000;
  config.population.requesters = 1'000'000;
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(2);
  config.horizon = SimTime::hours(4);
  workload::apply_population_divisor(config.population, options.scale);

  engine::ShardedSystem system(std::move(config));
  const auto result = system.run();
  Json out = Json::object();
  out.set("population", system.config().population.seeds +
                            system.config().population.requesters);
  out.set("latency", std::string(net::to_string(system.config().latency.kind)));
  out.set("drop_probability", system.config().loss);
  out.set("run", sharded_result_to_json(options, system.config(), result, 1));
  return out;
}

// ---- perf_sharded_10m: the ten-million-peer point — 10,000,000
// requesters against 20,000 seeds, same shape as perf_sharded_scale ×10.
// Only viable because per-peer state is the compact hot/cold split
// (docs/memory.md): ~21 hot bytes/peer plus activity-sized pools, so the
// whole 10,020,000-peer run fits a few hundred MB of RSS. The BENCH_8
// workload ----

Json perf_sharded_10m(const ScenarioOptions& options) {
  auto config = sharded_config(options, /*default_shards=*/10,
                               net::LatencyModelKind::kFixed);
  config.population.seeds = 20'000;
  config.population.requesters = 10'000'000;
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(2);
  config.horizon = SimTime::hours(4);
  workload::apply_population_divisor(config.population, options.scale);

  engine::ShardedSystem system(std::move(config));
  const auto result = system.run();
  Json out = Json::object();
  out.set("population", system.config().population.seeds +
                            system.config().population.requesters);
  out.set("latency", std::string(net::to_string(system.config().latency.kind)));
  out.set("drop_probability", system.config().loss);
  out.set("run", sharded_result_to_json(options, system.config(), result, 1));
  return out;
}

}  // namespace

void register_sharded_scenarios(Registry& registry) {
  registry.add({"msg_fig5_sharded",
                "Sharded fig5 — the 50,100-peer ramp-up-down population on "
                "the conservative-parallel engine; payload is byte-identical "
                "for every --shards/--shard-threads value",
                msg_fig5_sharded});
  registry.add({"perf_sharded_scale",
                "Perf — 1,002,000 peers across N shards (default 10) under "
                "fixed latency; per-shard throughput and memory mechanics "
                "behind --mechanics (BENCH_7)",
                perf_sharded_scale});
  registry.add({"perf_sharded_10m",
                "Perf — 10,020,000 peers across N shards (default 10) under "
                "fixed latency; the compact-peer-state memory campaign's "
                "headline run, bytes/peer behind --mechanics (BENCH_8)",
                perf_sharded_10m});
}

}  // namespace p2ps::scenario
