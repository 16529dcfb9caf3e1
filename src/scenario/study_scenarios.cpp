// Parameter-study scenarios that cut across engine and policy axes:
//   * fig5_policy_lab — the fig5 workload re-run once per registered
//     supplier-selection policy (the strategy layer's headline study);
//   * msg_loss_latency_study — the message-level engine over the full
//     --losses x --latencies grid, recording admission rate and watchdog
//     self-recoveries per cell (the ROADMAP's loss x latency residual).
//
// msg_loss_latency_study carries the msg_ prefix on purpose: its payload is
// protocol results only (no event-core mechanics), so the backend parity
// tests hold it byte-identical across both event-list backends.
#include <string>
#include <utility>

#include "core/selection_policy.hpp"
#include "engine/async_system.hpp"
#include "engine/streaming_system.hpp"
#include "metrics/collector.hpp"
#include "scenario/scenario.hpp"
#include "util/sim_time.hpp"

namespace p2ps::scenario {
namespace {

using util::SimTime;

// ---- fig5_policy_lab: admission rate and startup/buffering delay of the
// fig5 workload under every registered selection policy ----
//
// Every policy admits exactly when an exact cover exists (the registry's
// completeness contract), so admission *counts* coincide across policies on
// identical candidate sets; what a policy changes is the chosen supplier
// set — and with it Theorem-1 buffering delay — plus, through supplier
// busy-time knock-on effects, the waiting-time trajectory.

Json fig5_policy_lab(const ScenarioOptions& options) {
  Json out = Json::object();
  Json policies = Json::array();
  for (const core::SelectionPolicy* policy : core::all_selection_policies()) {
    auto config =
        paper_config(options, workload::ArrivalPattern::kRampUpDown, true);
    config.selection_policy = policy;
    const auto result = engine::StreamingSystem(config).run();

    Json entry = Json::object();
    entry.set("policy", std::string(policy->name()));
    entry.set("randomized", policy->randomized());
    entry.set("admission_rate", opt_json(result.overall.admission_rate()));
    entry.set("mean_delay_dt", opt_json(result.overall.mean_delay_dt()));
    entry.set("mean_waiting_minutes",
              opt_json(result.overall.mean_waiting_minutes()));
    entry.set("mean_rejections", opt_json(result.overall.mean_rejections()));
    entry.set("final_capacity", result.final_capacity);
    Json per_class = Json::array();
    for (const auto& counters : result.totals) {
      Json row = Json::object();
      row.set("admission_rate", opt_json(counters.admission_rate()));
      row.set("mean_delay_dt", opt_json(counters.mean_delay_dt()));
      row.set("mean_waiting_minutes", opt_json(counters.mean_waiting_minutes()));
      per_class.push_back(std::move(row));
    }
    entry.set("per_class", std::move(per_class));
    policies.push_back(std::move(entry));
  }
  out.set("policies", std::move(policies));
  return out;
}

// ---- msg_loss_latency_study: admission rate and watchdog recoveries over
// the loss x latency grid ----

Json msg_loss_latency_study(const ScenarioOptions& options) {
  Json grid = Json::array();
  for (const double loss : {0.0, 0.02, 0.05}) {
    for (const net::LatencyModelKind latency :
         {net::LatencyModelKind::kFixed, net::LatencyModelKind::kTwoClass,
          net::LatencyModelKind::kLogNormal}) {
      engine::AsyncSimulationConfig config;
      config.seed = options.seed;
      config.event_list = options.event_list;
      // The grid axes themselves: --losses / --latencies sweep overrides
      // still apply per point, but inside one scenario run the study walks
      // its own fixed grid (that IS the recorded result).
      config.transport.latency = net::LatencyModel::of(latency);
      config.transport.drop_probability = loss;
      if (options.policy != nullptr) config.selection_policy = options.policy;
      config.population.seeds = 20;
      config.population.requesters = 10'000;
      config.pattern = workload::ArrivalPattern::kBurstThenConstant;
      config.arrival_window = SimTime::hours(24);
      config.horizon = SimTime::hours(48);
      workload::apply_population_divisor(config.population, options.scale);

      engine::AsyncStreamingSystem system(config);
      const auto result = system.run();
      Json cell = Json::object();
      cell.set("drop_probability", loss);
      cell.set("latency", std::string(net::to_string(latency)));
      cell.set("admissions", result.overall.admissions);
      cell.set("admission_rate", opt_json(result.overall.admission_rate()));
      cell.set("mean_waiting_minutes",
               opt_json(result.overall.mean_waiting_minutes()));
      // The lost-EndSession self-recovery count: zero on the lossless row,
      // growing with the drop probability — the watchdog at work.
      cell.set("watchdog_recoveries", result.watchdog_recoveries);
      cell.set("final_capacity", result.final_capacity);
      Json messages = Json::object();
      messages.set("sent", system.transport().sent());
      messages.set("dropped", system.transport().dropped());
      cell.set("messages", std::move(messages));
      grid.push_back(std::move(cell));
    }
  }
  Json out = Json::object();
  out.set("grid", std::move(grid));
  return out;
}

}  // namespace

void register_study_scenarios(Registry& registry) {
  registry.add({"fig5_policy_lab",
                "Policy lab — the fig5 workload under every registered "
                "supplier-selection policy (paper-dac baseline, ablation and "
                "BitTorrent-inspired rivals): admission rate, buffering "
                "delay, waiting time",
                fig5_policy_lab});
  // The description is echoed in every payload envelope; its wording
  // predates the single delivery mode and stays for byte-stable payloads.
  registry.add({"msg_loss_latency_study",
                "Loss x latency study — the message-level engine over the "
                "{0, 2, 5}% loss x {fixed, twoclass, lognormal} latency "
                "grid: admission rate and watchdog self-recoveries per cell "
                "(payload is transport-mode parity-locked)",
                msg_loss_latency_study});
}

}  // namespace p2ps::scenario
