// Message-level scenario family — the distributed DAC_p2p engine
// (AsyncStreamingSystem over the batched MailboxRouter) at paper scale.
//
// Two contracts split the family:
//   * msg_* scenarios are parity-locked: their payloads carry protocol
//     results only (admissions, capacity growth, message totals), never
//     event-core mechanics, so a run must be byte-identical across both
//     event-list backends (tests/scenario_test.cpp, scripts/ci.sh).
//   * perf_messages deliberately exposes the mechanics (events executed,
//     peak event list, drains, batch sizes, pool reuse) — it is the
//     message-level workload scripts/bench.sh and perfbench/ time.
#include <string>
#include <utility>

#include "engine/async_system.hpp"
#include "metrics/collector.hpp"
#include "scenario/scenario.hpp"
#include "util/sim_time.hpp"

namespace p2ps::scenario {
namespace {

using util::SimTime;

/// Shared base: seed/backend plumbing plus the latency model (defaulting
/// to the paper-mirroring two-class split) and the loss axis (defaulting
/// to each scenario's own drop probability).
engine::AsyncSimulationConfig message_config(
    const ScenarioOptions& options,
    net::LatencyModelKind default_latency = net::LatencyModelKind::kTwoClass,
    double default_loss = 0.0) {
  engine::AsyncSimulationConfig config;
  config.seed = options.seed;
  config.event_list = options.event_list;
  config.transport.latency =
      net::LatencyModel::of(options.latency.value_or(default_latency));
  config.transport.drop_probability = options.loss.value_or(default_loss);
  if (options.policy != nullptr) config.selection_policy = options.policy;
  config.telemetry = options.telemetry;
  return config;
}

[[nodiscard]] std::string latency_label(
    const engine::AsyncSimulationConfig& config) {
  return std::string(net::to_string(config.transport.latency.kind));
}

Json class_counters_to_json(const metrics::ClassCounters& counters) {
  Json out = Json::object();
  out.set("first_requests", counters.first_requests);
  out.set("attempts", counters.attempts);
  out.set("admissions", counters.admissions);
  out.set("rejections", counters.rejections);
  out.set("admission_rate", opt_json(counters.admission_rate()));
  out.set("mean_delay_dt", opt_json(counters.mean_delay_dt()));
  out.set("mean_rejections", opt_json(counters.mean_rejections()));
  out.set("mean_waiting_minutes", opt_json(counters.mean_waiting_minutes()));
  return out;
}

/// Protocol-level summary of one message-level run. Unlike result_to_json
/// this deliberately omits events_executed and peak_event_list: msg_*
/// payloads carry protocol results only, never event-core mechanics.
Json msg_result_to_json(const engine::SimulationResult& result,
                        const net::MessageTransport& transport,
                        int series_step_hours) {
  Json out = Json::object();
  out.set("final_capacity", result.final_capacity);
  out.set("max_capacity", result.max_capacity);
  out.set("suppliers_at_end", result.suppliers_at_end);
  out.set("sessions_completed", result.sessions_completed);
  out.set("sessions_active_at_end", result.sessions_active_at_end);
  out.set("overall", class_counters_to_json(result.overall));
  Json per_class = Json::array();
  for (const auto& counters : result.totals) {
    per_class.push_back(class_counters_to_json(counters));
  }
  out.set("per_class", std::move(per_class));
  Json messages = Json::object();
  messages.set("sent", transport.sent());
  messages.set("delivered", transport.delivered());
  messages.set("dropped", transport.dropped());
  messages.set("undeliverable", transport.undeliverable());
  out.set("messages", std::move(messages));
  if (!result.hourly.empty() && series_step_hours > 0) {
    const int end_hour = static_cast<int>(result.hourly.back().t.as_hours());
    Json series = Json::array();
    for (int h = 0; h <= end_hour; h += series_step_hours) {
      const auto& sample = result.sample_at(util::SimTime::hours(h));
      Json point = Json::object();
      point.set("hour", h);
      point.set("capacity", sample.capacity);
      point.set("active_sessions", sample.active_sessions);
      point.set("suppliers", sample.suppliers);
      series.push_back(std::move(point));
    }
    out.set("capacity_series", std::move(series));
  }
  return out;
}

// ---- msg_fig5_scale: the paper's fig5 population (100 seeds + 50,000
// requesters, ramp-up-down arrivals) run message-by-message — the scale
// the batched mailbox transport exists to open ----

Json msg_fig5_scale(const ScenarioOptions& options) {
  auto config = message_config(options);
  config.pattern = workload::ArrivalPattern::kRampUpDown;
  config.arrival_window = SimTime::hours(72);
  config.horizon = SimTime::hours(144);
  workload::apply_population_divisor(config.population, options.scale);

  Json out = Json::object();
  out.set("latency", latency_label(config));
  out.set("drop_probability", config.transport.drop_probability);
  {
    engine::AsyncStreamingSystem dac(config);
    const auto result = dac.run();
    out.set("dac", msg_result_to_json(result, dac.transport(), 12));
  }
  {
    auto ndac_config = config;
    ndac_config.protocol.differentiated = false;
    engine::AsyncStreamingSystem ndac(ndac_config);
    const auto result = ndac.run();
    out.set("ndac", msg_result_to_json(result, ndac.transport(), 12));
  }
  return out;
}

// ---- msg_flash_crowd: a demand burst against 20 seeds with 2% message
// loss — retries, holds and watchdogs all under latency and loss ----

Json msg_flash_crowd(const ScenarioOptions& options) {
  auto config = message_config(options, net::LatencyModelKind::kTwoClass,
                               /*default_loss=*/0.02);
  config.population.seeds = 20;
  config.population.requesters = 20'000;
  config.pattern = workload::ArrivalPattern::kBurstThenConstant;
  config.arrival_window = SimTime::hours(24);
  config.horizon = SimTime::hours(48);
  workload::apply_population_divisor(config.population, options.scale);

  engine::AsyncStreamingSystem system(config);
  const auto result = system.run();
  Json out = Json::object();
  out.set("latency", latency_label(config));
  out.set("drop_probability", config.transport.drop_probability);
  out.set("run", msg_result_to_json(result, system.transport(), 6));
  return out;
}

// ---- perf_messages: the bench workload — a steady message-level load
// whose mechanics counters quantify what batching buys ----

Json perf_messages(const ScenarioOptions& options) {
  auto config = message_config(options);
  config.pattern = workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(24);
  config.horizon = SimTime::hours(48);
  workload::apply_population_divisor(config.population, options.scale);

  engine::AsyncStreamingSystem system(config);
  const auto result = system.run();
  const auto& transport = system.transport();

  Json out = Json::object();
  out.set("population",
          config.population.seeds + config.population.requesters);
  out.set("latency", latency_label(config));
  out.set("drop_probability", config.transport.drop_probability);
  // The mailbox has one delivery mode; the literal keeps the payload stable.
  out.set("transport", "batched");
  out.set("events_executed", result.events_executed);
  out.set("peak_event_list", result.peak_event_list);
  out.set("peak_event_list_timers", result.peak_event_list_timers);
  out.set("peak_event_list_other",
          result.peak_event_list - result.peak_event_list_timers);
  // Machine-dependent, so only behind --mechanics.
  if (options.mechanics) {
    out.set("peak_rss_bytes", engine::process_peak_rss_bytes());
  }
  out.set("admissions", result.overall.admissions);
  out.set("rejections", result.overall.rejections);
  out.set("sessions_completed", result.sessions_completed);
  out.set("final_capacity", result.final_capacity);
  out.set("suppliers_at_end", result.suppliers_at_end);
  Json messages = Json::object();
  messages.set("sent", transport.sent());
  messages.set("delivered", transport.delivered());
  messages.set("undeliverable", transport.undeliverable());
  messages.set("delivery_events_scheduled", transport.events_scheduled());
  messages.set("drains", transport.drains());
  messages.set("max_batch", static_cast<std::int64_t>(transport.max_batch()));
  messages.set("inboxes_allocated", transport.pool().created());
  messages.set("inboxes_reused", transport.pool().reused());
  out.set("messages", std::move(messages));
  Json timers = Json::object();
  // timers_fired follows the protocol; timer_events_scheduled counts the
  // wheel's notification events.
  timers.set("timers_fired", system.timer_service().fired());
  timers.set("timer_events_scheduled", system.timer_service().events_scheduled());
  out.set("timers", std::move(timers));
  return out;
}

}  // namespace

void register_message_scenarios(Registry& registry) {
  // Descriptions are echoed in every payload envelope, so these keep their
  // original wording (which predates the single delivery mode) to keep the
  // payloads byte-stable.
  registry.add({"msg_fig5_scale",
                "Message-level fig5 — the full 50,100-peer population with "
                "every control exchange as a routed message, DAC_p2p vs "
                "NDAC_p2p (payload is transport-mode parity-locked)",
                msg_fig5_scale});
  registry.add({"msg_flash_crowd",
                "Message-level flash crowd — 20,000 requesters burst onto 20 "
                "seeds with 2% message loss; holds, reminders and watchdogs "
                "under latency (payload is transport-mode parity-locked)",
                msg_flash_crowd});
  registry.add({"perf_messages",
                "Perf — steady 50,100-peer message-level load; reports event "
                "and batching mechanics for scripts/bench.sh (batched vs "
                "unbatched BENCH_4 comparison)",
                perf_messages});
}

}  // namespace p2ps::scenario
