#include "scenario/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "scenario/scenario.hpp"
#include "util/assert.hpp"

namespace p2ps::scenario {

std::vector<std::string> split_csv(std::string_view text) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? text.size() : comma;
    if (end > start) fields.emplace_back(text.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return fields;
}

std::vector<SweepPoint> SweepSpec::points() const {
  P2PS_REQUIRE_MSG(!scenarios.empty(), "sweep needs at least one scenario");
  P2PS_REQUIRE_MSG(!seeds.empty(), "sweep needs at least one seed");
  P2PS_REQUIRE_MSG(!scales.empty(), "sweep needs at least one scale");
  P2PS_REQUIRE_MSG(!event_lists.empty(), "sweep needs at least one event list");
  P2PS_REQUIRE_MSG(!latencies.empty(), "sweep needs at least one latency model");
  P2PS_REQUIRE_MSG(!losses.empty(), "sweep needs at least one loss value");
  P2PS_REQUIRE_MSG(!policies.empty(), "sweep needs at least one policy");
  for (const auto& loss : losses) {
    P2PS_REQUIRE_MSG(!loss || (*loss >= 0.0 && *loss <= 1.0),
                     "sweep losses must be probabilities in [0, 1]");
  }
  register_all_scenarios();
  for (const auto& name : scenarios) {
    P2PS_REQUIRE_MSG(Registry::instance().find(name) != nullptr,
                     "unknown scenario in sweep: " + name +
                         " (run with --list to enumerate)");
  }
  for (const std::int64_t scale : scales) {
    P2PS_REQUIRE_MSG(scale >= 1, "sweep scales must be >= 1");
  }
  std::vector<SweepPoint> out;
  out.reserve(scenarios.size() * seeds.size() * scales.size() *
              event_lists.size() * latencies.size() * losses.size() *
              policies.size());
  for (const auto& name : scenarios) {
    for (const std::uint64_t seed : seeds) {
      for (const std::int64_t scale : scales) {
        for (const sim::EventListKind kind : event_lists) {
          for (const auto& latency : latencies) {
            for (const auto& loss : losses) {
              for (const core::SelectionPolicy* policy : policies) {
                out.push_back(SweepPoint{name, seed, scale, kind, latency,
                                         loss, policy});
              }
            }
          }
        }
      }
    }
  }
  return out;
}

namespace {

Json run_one_point(const SweepPoint& point) {
  ScenarioOptions options;
  options.seed = point.seed;
  options.scale = point.scale;
  options.event_list = point.event_list;
  options.latency = point.latency;
  options.loss = point.loss;
  options.policy = point.policy;
  return run_scenario(point.scenario, options);
}

}  // namespace

Json run_sweep_points(const std::vector<SweepPoint>& points, int threads,
                      SweepStats* stats) {
  P2PS_REQUIRE_MSG(threads >= 1, "sweep needs at least one thread");
  P2PS_REQUIRE_MSG(!points.empty(), "sweep has no points");
  register_all_scenarios();  // once, before any worker touches the registry
  if (stats != nullptr) *stats = SweepStats{};

  std::vector<Json> runs(points.size());
  std::exception_ptr first_failure;

  const auto pool_size = static_cast<std::size_t>(threads) < points.size()
                             ? static_cast<std::size_t>(threads)
                             : points.size();
  if (pool_size == 1) {
    // Serial path: a plain indexed loop on the calling thread — no pool,
    // no atomic work queue, no mutex. The first failure ends the loop
    // (which is the lowest failing index by construction), matching the
    // parallel path's lowest-index-wins semantics.
    for (std::size_t index = 0; index < points.size(); ++index) {
      try {
        runs[index] = run_one_point(points[index]);
      } catch (...) {
        first_failure = std::current_exception();
        break;
      }
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex failure_mutex;
    std::size_t first_failure_index = points.size();

    const auto worker = [&] {
      for (;;) {
        const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
        // Fail fast: points already in flight finish, queued ones are
        // skipped — an early failure doesn't cost the rest of the study.
        if (index >= points.size() || failed.load(std::memory_order_relaxed)) {
          return;
        }
        try {
          runs[index] = run_one_point(points[index]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          // Lowest point index wins, so the surfaced error is deterministic
          // even when several points fail concurrently.
          if (index < first_failure_index) {
            first_failure_index = index;
            first_failure = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
    if (stats != nullptr) stats->pool_threads = pool_size;
  }
  if (first_failure) std::rethrow_exception(first_failure);

  // Merge in point order — and without echoing the thread count — so the
  // report is byte-identical for any --threads value.
  Json report = Json::object();
  Json header = Json::object();
  header.set("points", static_cast<std::int64_t>(points.size()));
  report.set("sweep", std::move(header));
  Json merged = Json::array();
  for (std::size_t index = 0; index < points.size(); ++index) {
    Json entry = Json::object();
    entry.set("index", static_cast<std::int64_t>(index));
    entry.set("event_list", std::string(to_string(points[index].event_list)));
    entry.set("latency",
              points[index].latency
                  ? std::string(net::to_string(*points[index].latency))
                  : std::string("default"));
    entry.set("loss", points[index].loss ? Json(*points[index].loss)
                                         : Json("default"));
    entry.set("policy", points[index].policy
                            ? std::string(points[index].policy->name())
                            : std::string("default"));
    entry.set("run", std::move(runs[index]));
    merged.push_back(std::move(entry));
  }
  report.set("runs", std::move(merged));
  return report;
}

Json run_sweep(const SweepSpec& spec, int threads) {
  return run_sweep_points(spec.points(), threads);
}

}  // namespace p2ps::scenario
