// Tests for the scenario registry, the JSON writer, and the determinism
// contract of the unified runner.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/selection_policy.hpp"
#include "engine/streaming_system.hpp"
#include "golden_hash.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_list.hpp"
#include "util/assert.hpp"

namespace p2ps::scenario {
namespace {

// ---------- Json ----------

TEST(Json, ScalarsSerialise) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NumbersAreShortestRoundTrip) {
  EXPECT_EQ(json_number(4.0), "4");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_escape("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json object = Json::object();
  object.set("zebra", 1);
  object.set("apple", 2);
  Json array = Json::array();
  array.push_back(3);
  array.push_back("x");
  object.set("items", std::move(array));
  EXPECT_EQ(object.dump(), "{\"zebra\":1,\"apple\":2,\"items\":[3,\"x\"]}");
}

TEST(Json, SetOverwritesExistingKey) {
  Json object = Json::object();
  object.set("k", 1);
  object.set("k", 2);
  EXPECT_EQ(object.dump(), "{\"k\":2}");
}

TEST(Json, MutatorsRejectWrongKinds) {
  Json not_an_array = Json::object();
  EXPECT_THROW(not_an_array.push_back(1), util::ContractViolation);
  Json not_an_object = Json::array();
  EXPECT_THROW(not_an_object.set("k", 1), util::ContractViolation);
}

TEST(Json, PrettyAndCompactAgreeOnContent) {
  Json object = Json::object();
  object.set("a", 1);
  Json inner = Json::array();
  inner.push_back(2.5);
  object.set("b", std::move(inner));
  EXPECT_EQ(object.dump(), "{\"a\":1,\"b\":[2.5]}");
  EXPECT_EQ(object.dump_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    2.5\n  ]\n}");
}

// ---------- Registry ----------

TEST(Registry, RegistersAtLeastTenUniqueScenarios) {
  register_all_scenarios();
  const auto scenarios = Registry::instance().list();
  EXPECT_GE(scenarios.size(), 10u);
  std::set<std::string> names;
  for (const auto* scenario : scenarios) {
    EXPECT_FALSE(scenario->name.empty());
    EXPECT_FALSE(scenario->description.empty());
    names.insert(scenario->name);
  }
  EXPECT_EQ(names.size(), scenarios.size()) << "duplicate scenario names";
}

TEST(Registry, ListIsSortedByName) {
  register_all_scenarios();
  const auto scenarios = Registry::instance().list();
  for (std::size_t i = 1; i < scenarios.size(); ++i) {
    EXPECT_LT(scenarios[i - 1]->name, scenarios[i]->name);
  }
}

TEST(Registry, FindLocatesEveryFigureAndWorkload) {
  register_all_scenarios();
  const Registry& registry = Registry::instance();
  for (const char* name :
       {"fig1_assignment", "fig3_admission_order", "fig4_capacity",
        "fig5_admission_rate", "fig6_buffering_delay", "fig7_adaptivity",
        "fig8_parameters", "fig9_backoff", "table1_rejections",
        "thm1_delay_sweep", "flash_crowd", "churn_resilience", "incentive",
        "chord_lookup", "ablation_churn", "ablation_reminder",
        "ablation_selection", "fig5_policy_lab", "msg_loss_latency_study"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(Registry, RegisterAllIsIdempotent) {
  register_all_scenarios();
  const auto before = Registry::instance().size();
  register_all_scenarios();
  EXPECT_EQ(Registry::instance().size(), before);
}

TEST(Registry, RejectsDuplicateAndMalformedScenarios) {
  Registry registry;
  registry.add({"s", "d", [](const ScenarioOptions&) { return Json(); }});
  EXPECT_THROW(
      registry.add({"s", "again", [](const ScenarioOptions&) { return Json(); }}),
      util::ContractViolation);
  EXPECT_THROW(
      registry.add({"", "no name", [](const ScenarioOptions&) { return Json(); }}),
      util::ContractViolation);
  EXPECT_THROW(registry.add({"t", "no fn", ScenarioFn{}}), util::ContractViolation);
}

// ---------- run_scenario ----------

TEST(RunScenario, UnknownScenarioThrows) {
  EXPECT_THROW((void)run_scenario("no_such_scenario", {}), util::ContractViolation);
}

TEST(RunScenario, EnvelopeCarriesNameSeedAndScale) {
  ScenarioOptions options;
  options.seed = 7;
  options.scale = 3;
  const auto result = run_scenario("fig1_assignment", options);
  const std::string text = result.dump();
  EXPECT_NE(text.find("\"scenario\":\"fig1_assignment\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\":7"), std::string::npos);
  EXPECT_NE(text.find("\"scale\":3"), std::string::npos);
  EXPECT_NE(text.find("\"results\":"), std::string::npos);
}

TEST(RunScenario, AnalyticScenarioMatchesPaperNumbers) {
  const auto result = run_scenario("fig1_assignment", {});
  const std::string text = result.dump();
  // The worked example: contiguous needs 5dt, OTS achieves the Theorem-1
  // optimum of 4dt.
  EXPECT_NE(text.find("\"ots\":"), std::string::npos);
  EXPECT_NE(text.find("\"theorem1_optimum_dt\":4"), std::string::npos);
}

// The determinism regression test demanded by the runner's contract:
// same scenario + same seed => byte-identical JSON.
TEST(RunScenario, SameSeedYieldsByteIdenticalJson) {
  ScenarioOptions options;
  options.seed = 1234;
  options.scale = 100;  // keep the simulated population small and fast
  for (const char* name : {"fig1_assignment", "thm1_delay_sweep", "flash_crowd",
                           "churn_resilience", "chord_lookup"}) {
    const std::string first = run_scenario(name, options).dump();
    const std::string second = run_scenario(name, options).dump();
    EXPECT_EQ(first, second) << name;
    EXPECT_FALSE(first.empty());
  }
}

// The pluggable-event-list acceptance criterion: every registered scenario
// (the 17 pre-existing ones and the perf family) must emit byte-identical
// JSON whether the simulator runs on the binary heap or the calendar
// queue. The backend is deliberately absent from the envelope, so whole
// documents are comparable.
TEST(RunScenario, EveryScenarioIsByteIdenticalAcrossEventListBackends) {
  register_all_scenarios();
  ScenarioOptions heap;
  heap.seed = 2002;
  heap.scale = 100;  // keep the populations small and fast
  heap.event_list = sim::EventListKind::kBinaryHeap;
  ScenarioOptions calendar = heap;
  calendar.event_list = sim::EventListKind::kCalendarQueue;
  std::size_t checked = 0;
  for (const auto* scenario : Registry::instance().list()) {
    const std::string on_heap = run_scenario(scenario->name, heap).dump();
    const std::string on_calendar = run_scenario(scenario->name, calendar).dump();
    EXPECT_EQ(on_heap, on_calendar) << scenario->name;
    ++checked;
  }
  EXPECT_GE(checked, 24u);  // 22 pre-existing + the policy/study family
}

// The policy-lab acceptance criterion: a --policy override must preserve
// byte-determinism across event-list backends for every registered policy,
// session-level and message-level engines alike (randomized policies draw
// from their own named substream, so backend choice cannot perturb them).
TEST(RunScenario, EveryPolicyIsByteIdenticalAcrossEventListBackends) {
  for (const core::SelectionPolicy* policy : core::all_selection_policies()) {
    ScenarioOptions heap;
    heap.seed = 2002;
    heap.scale = 100;
    heap.policy = policy;
    heap.event_list = sim::EventListKind::kBinaryHeap;
    ScenarioOptions calendar = heap;
    calendar.event_list = sim::EventListKind::kCalendarQueue;
    for (const char* name : {"flash_crowd", "msg_flash_crowd"}) {
      EXPECT_EQ(run_scenario(name, heap).dump(),
                run_scenario(name, calendar).dump())
          << name << " under " << policy->name();
    }
  }
}

TEST(RunScenario, DifferentSeedsChangeSimulationOutput) {
  ScenarioOptions a;
  a.seed = 1;
  a.scale = 100;
  ScenarioOptions b = a;
  b.seed = 2;
  // The seed reshuffles the population and arrival draws, so some counter
  // in the flash-crowd run must differ (the envelope differs regardless;
  // compare payloads only).
  const std::string run_a = run_scenario("flash_crowd", a).dump();
  const std::string run_b = run_scenario("flash_crowd", b).dump();
  const auto payload = [](const std::string& text) {
    return text.substr(text.find("\"results\""));
  };
  EXPECT_NE(payload(run_a), payload(run_b));
}

// ---------- figure series against the engine ----------

// A reader for the compact JSON the runner emits, so the series tests can
// walk a payload's structure. Numbers parse back exactly: the writer
// emits the shortest round-trip form.
struct JsonValue {
  std::optional<double> number;  // empty for null, bools and strings
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue& operator[](std::string_view key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return value;
    }
    throw std::out_of_range("no key " + std::string(key));
  }
  const JsonValue& operator[](std::size_t i) const { return items.at(i); }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  JsonValue value() {
    JsonValue out;
    const char c = text_.at(pos_);
    if (c == '{' || c == '[') {
      ++pos_;
      const char close = c == '{' ? '}' : ']';
      while (text_.at(pos_) != close) {
        if (c == '{') {
          std::string key = string();
          ++pos_;  // ':'
          out.members.emplace_back(std::move(key), value());
        } else {
          out.items.push_back(value());
        }
        if (text_.at(pos_) == ',') ++pos_;
      }
      ++pos_;
    } else if (c == '"') {
      string();
    } else if (c == 'n' || c == 't' || c == 'f') {
      while (pos_ < text_.size() && std::isalpha(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    } else {
      char* end = nullptr;
      out.number = std::strtod(text_.c_str() + pos_, &end);
      pos_ = static_cast<std::size_t>(end - text_.c_str());
    }
    return out;
  }

 private:
  std::string string() {
    std::string out;
    for (++pos_; text_.at(pos_) != '"'; ++pos_) {
      if (text_[pos_] == '\\') ++pos_;
      out.push_back(text_[pos_]);
    }
    ++pos_;
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue run_and_read(const char* name, const ScenarioOptions& options) {
  const std::string text = run_scenario(name, options).dump();
  return JsonReader(text).value()["results"];
}

ScenarioOptions small_figure_run() {
  ScenarioOptions options;
  options.seed = 2002;
  options.scale = 50;
  return options;
}

engine::SimulationResult run_pattern2(
    const ScenarioOptions& options, bool differentiated,
    const std::function<void(engine::SimulationConfig&)>& tweak = {}) {
  auto config = paper_config(options, workload::ArrivalPattern::kRampUpDown,
                             differentiated);
  if (tweak) tweak(config);
  return engine::StreamingSystem(config).run();
}

// `series` holds one point every `step` hours from hour 0 through the
// run's last hourly sample; `check` compares each with sample_at(hour).
void expect_series(const JsonValue& series, const engine::SimulationResult& result,
                   int step,
                   const std::function<void(const JsonValue&, const metrics::HourlySample&)>&
                       check) {
  const int last_hour = static_cast<int>(result.hourly.back().t.as_hours());
  ASSERT_EQ(series.items.size(), static_cast<std::size_t>(last_hour / step + 1));
  for (std::size_t i = 0; i < series.items.size(); ++i) {
    const int hour = static_cast<int>(i) * step;
    EXPECT_EQ(series[i]["hour"].number, hour);
    check(series[i], result.sample_at(util::SimTime::hours(hour)));
  }
}

using ClassStat = std::optional<double> (metrics::ClassCounters::*)() const;

// One value per class, each `stat` of that class's counters (null where
// the statistic is undefined).
void expect_per_class(const JsonValue& values, const metrics::HourlySample& sample,
                      ClassStat stat) {
  ASSERT_EQ(sample.per_class.size(), 4u);
  ASSERT_EQ(values.items.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(values[c].number, (sample.per_class[c].*stat)()) << "class " << c + 1;
  }
}

TEST(FigureSeries, Fig5AdmissionRateSeriesMatchesTheEngine) {
  const ScenarioOptions options = small_figure_run();
  const JsonValue results = run_and_read("fig5_admission_rate", options);
  for (const bool differentiated : {true, false}) {
    SCOPED_TRACE(differentiated ? "dac" : "ndac");
    expect_series(results[differentiated ? "dac" : "ndac"]["admission_rate_series"],
                  run_pattern2(options, differentiated), 8,
                  [](const JsonValue& point, const metrics::HourlySample& sample) {
                    expect_per_class(point["admission_rate"], sample,
                                     &metrics::ClassCounters::admission_rate);
                  });
  }
}

TEST(FigureSeries, Fig6BufferingDelaySeriesMatchesTheEngine) {
  const ScenarioOptions options = small_figure_run();
  const JsonValue results = run_and_read("fig6_buffering_delay", options);
  for (const bool differentiated : {true, false}) {
    SCOPED_TRACE(differentiated ? "dac" : "ndac");
    expect_series(
        results[differentiated ? "dac_mean_delay_dt_series" : "ndac_mean_delay_dt_series"],
        run_pattern2(options, differentiated), 8,
        [](const JsonValue& point, const metrics::HourlySample& sample) {
          expect_per_class(point["mean_delay_dt"], sample,
                           &metrics::ClassCounters::mean_delay_dt);
        });
  }
}

TEST(FigureSeries, Fig8CapacitySeriesMatchTheEngine) {
  const ScenarioOptions options = small_figure_run();
  const JsonValue results = run_and_read("fig8_parameters", options);
  const auto capacity = [](const JsonValue& point, const metrics::HourlySample& sample) {
    EXPECT_EQ(point["capacity"].number, sample.capacity);
  };
  const std::size_t ms[] = {4, 8, 16, 32};
  for (std::size_t i = 0; i < std::size(ms); ++i) {
    const JsonValue& entry = results["m_sweep"][i];
    ASSERT_EQ(entry["m_candidates"].number, ms[i]);
    expect_series(entry["capacity_series"],
                  run_pattern2(options, true,
                               [&](engine::SimulationConfig& config) {
                                 config.protocol.m_candidates = ms[i];
                               }),
                  12, capacity);
  }
  const int t_outs[] = {1, 2, 20, 60, 120};
  for (std::size_t i = 0; i < std::size(t_outs); ++i) {
    const JsonValue& entry = results["t_out_sweep"][i];
    ASSERT_EQ(entry["t_out_minutes"].number, t_outs[i]);
    expect_series(entry["capacity_series"],
                  run_pattern2(options, true,
                               [&](engine::SimulationConfig& config) {
                                 config.protocol.t_out = util::SimTime::minutes(t_outs[i]);
                               }),
                  12, capacity);
  }
}

TEST(FigureSeries, Fig9AdmissionRateSeriesMatchTheEngine) {
  const ScenarioOptions options = small_figure_run();
  const JsonValue results = run_and_read("fig9_backoff", options);
  for (std::int64_t e_bkf = 1; e_bkf <= 4; ++e_bkf) {
    const JsonValue& entry = results["e_bkf_sweep"][static_cast<std::size_t>(e_bkf - 1)];
    ASSERT_EQ(entry["e_bkf"].number, e_bkf);
    expect_series(entry["admission_rate_series"],
                  run_pattern2(options, true,
                               [&](engine::SimulationConfig& config) {
                                 config.protocol.e_bkf = e_bkf;
                               }),
                  8, [](const JsonValue& point, const metrics::HourlySample& sample) {
                    metrics::ClassCounters all;
                    for (const auto& counters : sample.per_class) {
                      all.first_requests += counters.first_requests;
                      all.admissions += counters.admissions;
                    }
                    EXPECT_EQ(point["admission_rate"].number, all.admission_rate());
                  });
  }
}

// ---------- hourly_series ----------

// Hourly samples at `hours`, the one at hour h carrying capacity 100 + h,
// active_sessions h and suppliers 2h.
engine::SimulationResult sampled_at(std::initializer_list<int> hours) {
  engine::SimulationResult result;
  for (const int h : hours) {
    result.hourly.push_back({util::SimTime::hours(h), 100 + h, h, 2 * h, {}});
  }
  return result;
}

JsonValue read_series(const engine::SimulationResult& result, int step) {
  const auto fill = [](Json& point, const metrics::HourlySample& sample) {
    point.set("capacity", sample.capacity);
  };
  return JsonReader(hourly_series(result, step, fill).dump()).value();
}

TEST(HourlySeries, OnePointEveryStepThroughTheLastSample) {
  const auto result = sampled_at({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (const int step : {4, 5}) {  // 4: hour 12 is past the end; 5: hour 10 is the last
    const JsonValue series = read_series(result, step);
    ASSERT_EQ(series.items.size(), 3u) << "step " << step;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(series[i]["hour"].number, step * static_cast<double>(i));
      EXPECT_EQ(series[i]["capacity"].number, 100 + step * static_cast<double>(i));
    }
  }
}

TEST(HourlySeries, PointBetweenSamplesReadsTheLatestEarlierSample) {
  const JsonValue series = read_series(sampled_at({0, 3, 9}), 2);
  ASSERT_EQ(series.items.size(), 5u);  // hours 0, 2, 4, 6, 8
  EXPECT_EQ(series[1]["capacity"].number, 100);  // hour 2 reads hour 0
  EXPECT_EQ(series[2]["capacity"].number, 103);  // hour 4 reads hour 3
  EXPECT_EQ(series[4]["capacity"].number, 103);  // hour 8 reads hour 3, not 9
}

TEST(HourlySeries, RejectsNonPositiveStepAndEmptyResult) {
  const auto fill = [](Json&, const metrics::HourlySample&) {};
  EXPECT_THROW((void)hourly_series(sampled_at({0, 1}), 0, fill), util::ContractViolation);
  EXPECT_THROW((void)hourly_series(sampled_at({0, 1}), -8, fill), util::ContractViolation);
  EXPECT_THROW((void)hourly_series({}, 8, fill), util::ContractViolation);  // no samples
}

TEST(ResultToJson, CapacitySeriesFollowsTheStepAndIsOmittedAtZero) {
  const auto result = sampled_at({0, 4, 8, 12, 16});
  const JsonValue series = JsonReader(result_to_json(result, 8).dump()).value()["capacity_series"];
  ASSERT_EQ(series.items.size(), 3u);  // hours 0, 8, 16
  EXPECT_EQ(series[1]["hour"].number, 8);
  EXPECT_EQ(series[1]["capacity"].number, 108);
  EXPECT_EQ(series[1]["active_sessions"].number, 8);
  EXPECT_EQ(series[1]["suppliers"].number, 16);
  EXPECT_THROW((void)JsonReader(result_to_json(result, 0).dump()).value()["capacity_series"],
               std::out_of_range);
}

// ---------- golden output pins ----------

// Full-payload hashes of the two single-process engines, captured before
// the supplier state became a plain value and before StreamingSystem and
// AsyncStreamingSystem moved onto engine::RetryHeap. fig7_adaptivity pins
// the probability-vector dynamics, ablation_reminder the reminder rule
// (on and off), perf_steady the session-level engine's mechanics counters
// and msg_flash_crowd the message-level engine with loss. Any drift means
// a representation change altered simulated behaviour.
TEST(GoldenOutput, SingleProcessEnginesMatchTheirPinnedPayloads) {
  struct Pin {
    const char* name;
    std::int64_t scale;
    std::uint64_t hash;
  };
  for (const Pin& pin : {Pin{"fig7_adaptivity", 1, 0xd9dba489f5ec6a79ull},
                         Pin{"ablation_reminder", 4, 0xe7bb91d7ad7d7933ull},
                         Pin{"perf_steady", 10, 0xaabc134fdd4227e8ull},
                         Pin{"msg_flash_crowd", 10, 0xef774e6c440470e2ull}}) {
    ScenarioOptions options;
    options.seed = 2002;
    options.scale = pin.scale;
    EXPECT_EQ(fnv1a(run_scenario(pin.name, options).dump()), pin.hash)
        << pin.name << " --scale " << pin.scale;
  }
}

}  // namespace
}  // namespace p2ps::scenario
