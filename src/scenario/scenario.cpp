#include "scenario/scenario.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

#include "metrics/collector.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::scenario {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(Scenario scenario) {
  P2PS_REQUIRE_MSG(!scenario.name.empty(), "scenario name must not be empty");
  P2PS_REQUIRE_MSG(find(scenario.name) == nullptr,
                   "duplicate scenario name: " + scenario.name);
  P2PS_REQUIRE_MSG(static_cast<bool>(scenario.run),
                   "scenario '" + scenario.name + "' has no run function");
  scenarios_.push_back(std::move(scenario));
}

std::vector<const Scenario*> Registry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& scenario : scenarios_) out.push_back(&scenario);
  std::sort(out.begin(), out.end(), [](const Scenario* a, const Scenario* b) {
    return a->name < b->name;
  });
  return out;
}

const Scenario* Registry::find(std::string_view name) const {
  for (const auto& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

void register_all_scenarios() {
  Registry& registry = Registry::instance();
  if (registry.size() > 0) return;  // idempotent
  register_figure_scenarios(registry);
  register_workload_scenarios(registry);
  register_ablation_scenarios(registry);
  register_perf_scenarios(registry);
  register_message_scenarios(registry);
  register_study_scenarios(registry);
  register_sharded_scenarios(registry);
}

Json run_scenario(std::string_view name, const ScenarioOptions& options) {
  register_all_scenarios();
  const Scenario* scenario = Registry::instance().find(name);
  P2PS_REQUIRE_MSG(scenario != nullptr,
                   "unknown scenario: " + std::string(name) +
                       " (run with --list to enumerate)");
  Json envelope = Json::object();
  envelope.set("scenario", scenario->name);
  envelope.set("description", scenario->description);
  envelope.set("seed", static_cast<std::int64_t>(options.seed));
  envelope.set("scale", options.scale);
  envelope.set("results", scenario->run(options));
  return envelope;
}

engine::SimulationConfig paper_config(const ScenarioOptions& options,
                                      workload::ArrivalPattern pattern,
                                      bool differentiated) {
  auto config = engine::section51_config(pattern, differentiated, options.seed,
                                         options.scale);
  config.event_list = options.event_list;
  if (options.policy != nullptr) config.selection_policy = options.policy;
  config.telemetry = options.telemetry;
  return config;
}

void scale_population(const ScenarioOptions& options, engine::SimulationConfig& config) {
  config.seed = options.seed;
  config.validate_invariants = false;
  config.event_list = options.event_list;
  if (options.policy != nullptr) config.selection_policy = options.policy;
  config.telemetry = options.telemetry;
  workload::apply_population_divisor(config.population, options.scale);
}

namespace {

Json class_counters_to_json(const metrics::ClassCounters& counters) {
  Json out = Json::object();
  out.set("first_requests", counters.first_requests);
  out.set("attempts", counters.attempts);
  out.set("admissions", counters.admissions);
  out.set("rejections", counters.rejections);
  const auto rate = counters.admission_rate();
  out.set("admission_rate", opt_json(rate));
  const auto delay = counters.mean_delay_dt();
  out.set("mean_delay_dt", opt_json(delay));
  const auto rejections = counters.mean_rejections();
  out.set("mean_rejections", opt_json(rejections));
  const auto waiting = counters.mean_waiting_minutes();
  out.set("mean_waiting_minutes", opt_json(waiting));
  return out;
}

}  // namespace

Json result_to_json(const engine::SimulationResult& result, int series_step_hours) {
  Json out = Json::object();
  out.set("final_capacity", result.final_capacity);
  out.set("max_capacity", result.max_capacity);
  out.set("suppliers_at_end", result.suppliers_at_end);
  out.set("sessions_completed", result.sessions_completed);
  out.set("suppliers_departed", result.suppliers_departed);
  out.set("events_executed", result.events_executed);
  out.set("peak_event_list", result.peak_event_list);
  // The timer vs non-timer split of the pending population at the peak
  // instant (they sum to peak_event_list).
  out.set("peak_event_list_timers", result.peak_event_list_timers);
  out.set("peak_event_list_other",
          result.peak_event_list - result.peak_event_list_timers);
  // Machine-dependent, populated only behind --mechanics.
  if (result.peak_rss_bytes > 0) {
    out.set("peak_rss_bytes", result.peak_rss_bytes);
  }
  out.set("overall", class_counters_to_json(result.overall));
  Json per_class = Json::array();
  for (const auto& counters : result.totals) {
    per_class.push_back(class_counters_to_json(counters));
  }
  out.set("per_class", std::move(per_class));
  if (!result.hourly.empty() && series_step_hours > 0) {
    out.set("capacity_series",
            hourly_series(result, series_step_hours,
                          [](Json& point, const metrics::HourlySample& sample) {
                            point.set("capacity", sample.capacity);
                            point.set("active_sessions", sample.active_sessions);
                            point.set("suppliers", sample.suppliers);
                          }));
  }
  if (result.lookup_routed > 0) {
    out.set("lookup_routed", result.lookup_routed);
    out.set("lookup_mean_hops", result.lookup_mean_hops);
  }
  return out;
}

Json hourly_series(const engine::SimulationResult& result, int step_hours,
                   const SamplePointFn& fill) {
  P2PS_REQUIRE(step_hours > 0 && !result.hourly.empty());
  const int end_hour = static_cast<int>(result.hourly.back().t.as_hours());
  Json series = Json::array();
  for (int h = 0; h <= end_hour; h += step_hours) {
    Json point = Json::object();
    point.set("hour", h);
    fill(point, result.sample_at(util::SimTime::hours(h)));
    series.push_back(std::move(point));
  }
  return series;
}

}  // namespace p2ps::scenario
