// p2ps_perfbench — one benchmark process.
//
//   p2ps_perfbench run --workload W --seed N --knob timed|reference|threads1
//                      [--construct-only 1] [--telemetry FILE.jsonl]
//   p2ps_perfbench layers --seed N [--<size> value]...
//
// `run` builds one of the three benchmark workloads through the engine's
// public constructor, times the constructor and run() from outside, and
// prints one JSON line: the deterministic result counters (the output
// check compares them across knobs), the timings, the process peak RSS,
// and the run-shape counts the layer drivers are sized from. With
// --telemetry an obs::Telemetry is attached and the counters, profiler
// phases and watchdog trips it collected are added. `layers` times calls
// into each layer's public functions at the sizes given (layers.cpp).
//
// The knob picks the execution mechanics, never the workload: `timed` is
// the measured configuration, `reference` a documented payload-invariant
// alternative (calendar event list for the session-level and message-level
// engines, --shards 1 --shard-threads 1 for the sharded one) and
// `threads1` the sharded workload's shards at one thread.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/async_system.hpp"
#include "engine/result.hpp"
#include "engine/sharded_system.hpp"
#include "engine/streaming_system.hpp"
#include "layers.hpp"
#include "obs/telemetry.hpp"
#include "scenario/json.hpp"
#include "util/sim_time.hpp"
#include "workload/population.hpp"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#error "p2ps_perfbench must be built optimised (Release or RelWithDebInfo)"
#endif

namespace {

using p2ps::scenario::Json;
using p2ps::util::SimTime;
using Args = std::map<std::string, std::string>;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (every thread).
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string arg(const Args& args, const std::string& key,
                const std::string& fallback = "") {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

// ---- the three workloads: the perf_steady, perf_messages and
// perf_sharded_scale scenario configurations ----

p2ps::engine::SimulationConfig session_config(std::uint64_t seed,
                                              const std::string& knob) {
  p2ps::engine::SimulationConfig config;
  config.population.seeds = 100;
  config.population.requesters = 150'000;
  config.pattern = p2ps::workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(48);
  config.horizon = SimTime::hours(96);
  config.seed = seed;
  config.validate_invariants = false;
  config.event_list = knob == "reference" ? p2ps::sim::EventListKind::kCalendarQueue
                                          : p2ps::sim::EventListKind::kBinaryHeap;
  return config;
}

p2ps::engine::AsyncSimulationConfig message_config(std::uint64_t seed,
                                                   const std::string& knob) {
  p2ps::engine::AsyncSimulationConfig config;
  config.seed = seed;
  config.transport.latency =
      p2ps::net::LatencyModel::of(p2ps::net::LatencyModelKind::kTwoClass);
  config.pattern = p2ps::workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(24);
  config.horizon = SimTime::hours(48);
  config.event_list = knob == "reference" ? p2ps::sim::EventListKind::kCalendarQueue
                                          : p2ps::sim::EventListKind::kBinaryHeap;
  return config;
}

constexpr int kShardedShards = 4;
constexpr int kShardedThreads = 4;
/// perf_sharded_scale scaled down so several runs fit in one invocation
/// and the reported median is not a single sample: a quarter of its
/// population (its `--scale 4`) over half its arrival window and horizon.
/// Synchronisation cost goes with the sub-window count, so the time span
/// has to shrink too; every sharded mechanism still runs, and one-hour
/// sessions still complete before the horizon.
constexpr std::int64_t kShardedScale = 4;

p2ps::engine::ShardedConfig sharded_config(std::uint64_t seed,
                                           const std::string& knob) {
  p2ps::engine::ShardedConfig config;
  config.seed = seed;
  config.latency = p2ps::net::LatencyModel::of(p2ps::net::LatencyModelKind::kFixed);
  config.population.seeds = 2'000;
  config.population.requesters = 1'000'000;
  p2ps::workload::apply_population_divisor(config.population, kShardedScale);
  config.pattern = p2ps::workload::ArrivalPattern::kConstant;
  config.arrival_window = SimTime::hours(1);
  config.horizon = SimTime::hours(2);
  config.shards = knob == "reference" ? 1 : kShardedShards;
  config.threads = knob == "timed" ? kShardedThreads : 1;
  return config;
}

/// Mean supplier count over the hourly samples (the directory size the
/// candidate lookups saw, on average).
template <typename Samples>
std::int64_t mean_suppliers(const Samples& hourly) {
  if (hourly.empty()) return 0;
  std::int64_t sum = 0;
  for (const auto& sample : hourly) sum += sample.suppliers;
  return sum / static_cast<std::int64_t>(hourly.size());
}

/// What one engine run leaves behind, engine-independently.
struct Measured {
  Json counters = Json::object();
  Json shape = Json::object();
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
};

/// Constructs and runs `System` once with the constructor and run()
/// timed from outside. Fills the counters and run shape every engine
/// shares; `describe` adds the engine-specific ones.
template <typename System, typename Config, typename Describe>
Measured measure(const Config& config, Describe&& describe) {
  Measured out;
  const double t0 = wall_seconds();
  System system(config);
  const double t1 = wall_seconds();
  const double cpu0 = cpu_seconds();
  const auto result = system.run();
  const double t2 = wall_seconds();
  out.cpu_s = cpu_seconds() - cpu0;
  out.setup_s = t1 - t0;
  out.run_s = t2 - t1;

  out.counters.set("attempts", result.overall.attempts);
  out.counters.set("admissions", result.overall.admissions);
  out.counters.set("rejections", result.overall.rejections);
  out.counters.set("sessions_completed", result.sessions_completed);
  out.counters.set("final_capacity", result.final_capacity);
  const auto& cfg = system.config();
  out.shape.set("first_requests", result.overall.first_requests);
  out.shape.set("mean_suppliers", mean_suppliers(result.hourly));
  out.shape.set("m_candidates", static_cast<std::int64_t>(cfg.protocol.m_candidates));
  out.shape.set("t_out_ms", cfg.protocol.t_out.as_millis());
  out.shape.set("requesters", cfg.population.requesters);
  out.shape.set("peers", cfg.population.seeds + cfg.population.requesters);
  out.shape.set("arrival_window_ms", cfg.arrival_window.as_millis());
  describe(system, result, out);
  return out;
}

/// One timed construction and nothing else: a cold set-up sample, the
/// cost a user pays once per process.
template <typename System, typename Config>
double time_setup(const Config& config) {
  const double t0 = wall_seconds();
  System system(config);
  return wall_seconds() - t0;
}

Measured run_session(const p2ps::engine::SimulationConfig& config) {
  return measure<p2ps::engine::StreamingSystem>(
      config, [](const p2ps::engine::StreamingSystem&,
                 const p2ps::engine::SimulationResult& r, Measured& out) {
        out.counters.set("messages_sent", 0);
        out.shape.set("events", static_cast<std::int64_t>(r.events_executed));
        out.shape.set("peak_pending", r.peak_event_list);
      });
}

Measured run_message(const p2ps::engine::AsyncSimulationConfig& config) {
  return measure<p2ps::engine::AsyncStreamingSystem>(
      config, [](const p2ps::engine::AsyncStreamingSystem& system,
                 const p2ps::engine::SimulationResult& r, Measured& out) {
        const auto& transport = system.transport();
        out.counters.set("messages_sent", static_cast<std::int64_t>(transport.sent()));
        out.shape.set("events", static_cast<std::int64_t>(r.events_executed));
        out.shape.set("peak_pending", r.peak_event_list);
        out.shape.set("messages", static_cast<std::int64_t>(transport.sent()));
        out.shape.set("drains", static_cast<std::int64_t>(transport.drains()));
        out.shape.set("pool_allocations",
                      static_cast<std::int64_t>(transport.pool().created()));
        out.shape.set("pool_reuses",
                      static_cast<std::int64_t>(transport.pool().reused()));
      });
}

Measured run_sharded(const p2ps::engine::ShardedConfig& config) {
  return measure<p2ps::engine::ShardedSystem>(
      config, [](const p2ps::engine::ShardedSystem& system,
                 const p2ps::engine::ShardedResult& r, Measured& out) {
        out.counters.set("messages_sent", static_cast<std::int64_t>(r.messages_sent));
        std::int64_t events = 0;
        std::int64_t peak = 0;
        for (const auto& shard : r.per_shard) {
          events += static_cast<std::int64_t>(shard.events_executed);
          peak = std::max(peak, shard.peak_event_list);
        }
        const auto& cfg = system.config();
        out.shape.set("events", events);
        out.shape.set("peak_pending", peak);
        out.shape.set("messages", static_cast<std::int64_t>(r.messages_sent));
        out.shape.set("cross_shard_messages",
                      static_cast<std::int64_t>(r.cross_shard_messages));
        out.shape.set("sub_windows", r.windows + r.windows_fused);
        out.shape.set("directory_flushes",
                      static_cast<std::int64_t>(r.directory_flushes));
        out.shape.set("pool_allocations",
                      static_cast<std::int64_t>(r.pool_allocations));
        out.shape.set("pool_reuses", static_cast<std::int64_t>(r.pool_reuses));
        out.shape.set("shards", cfg.shards);
        out.shape.set("threads", cfg.threads);
        out.shape.set("fusion", cfg.fusion);
        out.shape.set("lookahead_ms", cfg.latency.min_latency().as_millis());
      });
}

/// Registry counters, profiler phases and watchdog trips of a traced run.
Json telemetry_json(const p2ps::obs::Telemetry& telemetry) {
  Json out = Json::object();
  const auto& registry = telemetry.registry();
  out.set("timers_fired", registry.aggregate("timers_fired"));
  out.set("watchdog_trips", telemetry.watchdog().trips());
  return out;
}

Json phases_json(const p2ps::obs::PhaseProfiler& profiler) {
  using p2ps::obs::Phase;
  Json out = Json::object();
  const auto seconds = [&](Phase phase) {
    return static_cast<double>(profiler.phase_ns(phase)) / 1e9;
  };
  double step_max = 0.0;
  for (int s = 0; s < profiler.num_shards(); ++s) {
    step_max = std::max(step_max,
                        static_cast<double>(profiler.shard_step_ns(s)) / 1e9);
  }
  out.set("step_s", seconds(Phase::kStep));
  out.set("step_max_shard_s", step_max);
  out.set("route_drain_s", seconds(Phase::kRouteDrain));
  out.set("barrier_s", seconds(Phase::kBarrier));
  out.set("merge_s", seconds(Phase::kMerge));
  out.set("imbalance", profiler.imbalance());
  return out;
}

int cmd_run(const Args& args) {
  const std::string workload = arg(args, "--workload");
  const std::uint64_t seed = std::stoull(arg(args, "--seed", "2002"));
  const std::string knob = arg(args, "--knob", "timed");
  const bool construct_only = arg(args, "--construct-only", "0") == "1";
  const std::string telemetry_path = arg(args, "--telemetry");
  if (knob != "timed" && knob != "reference" && knob != "threads1") {
    std::cerr << "unknown --knob " << knob << "\n";
    return 2;
  }

  std::unique_ptr<p2ps::obs::Telemetry> telemetry;
  if (!telemetry_path.empty()) {
    p2ps::obs::TelemetryOptions options;
    options.path = telemetry_path;
    // Session engines poll hourly (a few dozen snapshots), so every poll
    // snapshots and the registry ends at the last sample; the sharded
    // engine polls at each of ~172k window barriers and publishes its
    // end-of-run levels itself, so it keeps the default cadence.
    options.interval_ms = workload == "sharded_parallel" ? 1000 : 0;
    options.heartbeat = false;
    options.watchdog.action = p2ps::obs::WatchdogAction::kWarn;
    telemetry = std::make_unique<p2ps::obs::Telemetry>(options);
    if (!telemetry->ok()) {
      std::cerr << "cannot open " << telemetry_path << "\n";
      return 1;
    }
  }

  // A construct-only process times one cold construction and exits.
  Measured measured;
  double construct_s = 0.0;
  if (workload == "session_steady") {
    auto config = session_config(seed, knob);
    config.telemetry = telemetry.get();
    if (construct_only) {
      construct_s = time_setup<p2ps::engine::StreamingSystem>(config);
    } else {
      measured = run_session(config);
    }
  } else if (workload == "message_steady") {
    auto config = message_config(seed, knob);
    config.telemetry = telemetry.get();
    if (construct_only) {
      construct_s = time_setup<p2ps::engine::AsyncStreamingSystem>(config);
    } else {
      measured = run_message(config);
    }
  } else if (workload == "sharded_parallel") {
    auto config = sharded_config(seed, knob);
    config.telemetry = telemetry.get();
    if (construct_only) {
      construct_s = time_setup<p2ps::engine::ShardedSystem>(config);
    } else {
      measured = run_sharded(config);
    }
  } else {
    std::cerr << "unknown --workload " << workload << "\n";
    return 2;
  }
  if (construct_only) {
    Json out = Json::object();
    out.set("workload", workload);
    out.set("setup_s", construct_s);
    std::cout << out.dump() << std::endl;
    return 0;
  }
  const std::int64_t peak_rss = p2ps::engine::process_peak_rss_bytes();

  Json out = Json::object();
  out.set("workload", workload);
  out.set("seed", static_cast<std::int64_t>(seed));
  out.set("knob", knob);
  out.set("counters", std::move(measured.counters));
  out.set("setup_s", measured.setup_s);
  out.set("run_s", measured.run_s);
  out.set("cpu_s", measured.cpu_s);
  out.set("peak_rss_bytes", peak_rss);
  out.set("shape", std::move(measured.shape));
  if (telemetry) {
    telemetry->finish();
    out.set("telemetry", telemetry_json(*telemetry));
    if (telemetry->profiler() != nullptr) {
      out.set("phases", phases_json(*telemetry->profiler()));
    }
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

int cmd_layers(const Args& args) {
  // Every size left out keeps its LayerSizes default.
  perfbench::LayerSizes sizes;
  const auto set = [&](const char* key, auto& field) {
    const std::string value = arg(args, key);
    if (value.empty()) return;
    if constexpr (std::is_floating_point_v<std::remove_reference_t<decltype(field)>>) {
      field = std::stod(value);
    } else {
      field = static_cast<std::remove_reference_t<decltype(field)>>(std::stoll(value));
    }
  };
  set("--seed", sizes.seed);
  set("--pending", sizes.pending);
  set("--timers", sizes.timers);
  set("--timer-span-ms", sizes.timer_span_ms);
  set("--batch-mean", sizes.batch_mean);
  set("--peers", sizes.peers);
  set("--shards", sizes.shards);
  set("--threads", sizes.threads);
  set("--fusion", sizes.fusion);
  set("--lookahead-ms", sizes.lookahead_ms);
  set("--sub-windows", sizes.sub_windows);
  set("--msgs-per-shard-window", sizes.msgs_per_shard_window);
  set("--suppliers", sizes.suppliers);
  set("--m", sizes.m);
  set("--attempts-per-requester", sizes.attempts_per_requester);
  set("--arrivals", sizes.arrivals);
  set("--arrival-window-ms", sizes.arrival_window_ms);
  std::cout << perfbench::run_layers(sizes).dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || (argc - 2) % 2 != 0) {
    std::cerr << "usage: p2ps_perfbench run|layers [--key value]...\n";
    return 2;
  }
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const std::string command = argv[1];
  try {
    if (command == "run") return cmd_run(args);
    if (command == "layers") return cmd_layers(args);
  } catch (const std::exception& e) {
    std::cerr << "p2ps_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command " << command << "\n";
  return 2;
}
