// Per-layer drivers (see layers.hpp). Every driver builds the layer's own
// objects through their public API, fills them to the workload's size
// untimed, then times a fixed batch of operations; it repeats the batch
// until its wall-clock budget is spent and reports the median batch.
#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/ids.hpp"
#include "core/selection_policy.hpp"
#include "lookup/directory.hpp"
#include "net/latency.hpp"
#include "net/mailbox.hpp"
#include "net/shard_router.hpp"
#include "obs/phase_profiler.hpp"
#include "sim/shard_runner.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"

namespace perfbench {
namespace {

using p2ps::core::PeerClass;
using p2ps::core::PeerId;
using p2ps::obs::PhaseProfiler;
using p2ps::util::Rng;
using p2ps::util::SimTime;

/// Keeps results observable so the optimiser cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

/// Wall-clock budget per driver.
constexpr std::uint64_t kBudgetNs = 400'000'000;

/// Runs `sample` (which returns the time per operation of one batch)
/// until kBudgetNs has passed, at least three times; returns the median.
double median_sample(const std::function<double()>& sample) {
  std::vector<double> values;
  const std::uint64_t start = PhaseProfiler::now_ns();
  while (values.size() < 3 || PhaseProfiler::now_ns() - start < kBudgetNs) {
    values.push_back(sample());
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double ns_per(std::uint64_t start_ns, std::int64_t ops) {
  return static_cast<double>(PhaseProfiler::now_ns() - start_ns) /
         static_cast<double>(std::max<std::int64_t>(ops, 1));
}

/// The paper's requester class mix (classes 1..4 at 10/10/40/40 %).
PeerClass draw_class(Rng& rng) {
  const std::uint64_t u = rng.uniform_below(10);
  return u == 0 ? 1 : u == 1 ? 2 : u < 6 ? 3 : 4;
}

// ---- sim: one event per step at a constant pending depth (hold model) ----

struct HoldModel {
  p2ps::sim::Simulator sim;
  Rng rng;
  std::uint64_t span_ms;

  HoldModel(std::uint64_t seed, std::int64_t pending)
      : rng(seed), span_ms(static_cast<std::uint64_t>(std::max<std::int64_t>(pending, 1))) {
    for (std::int64_t i = 0; i < pending; ++i) schedule_one();
  }
  void schedule_one() {
    sim.schedule_at(sim.now() + SimTime::millis(static_cast<std::int64_t>(
                                    1 + rng.uniform_below(span_ms))),
                    [this] { schedule_one(); });
  }
};

double event_ns(const LayerSizes& sizes) {
  HoldModel model(sizes.seed, std::max<std::int64_t>(sizes.pending, 1));
  constexpr std::int64_t kSteps = 100'000;
  return median_sample([&] {
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    for (std::int64_t i = 0; i < kSteps; ++i) model.sim.step();
    return ns_per(t0, kSteps);
  });
}

// ---- sim: TimerService (wheel) arm_at + rearm_at + fire per timer ----

double timer_ns(const LayerSizes& sizes) {
  p2ps::sim::Simulator sim;
  p2ps::sim::TimerService timers(sim, p2ps::sim::TimerConfig{});
  Rng rng(sizes.seed);
  const std::int64_t population = std::max<std::int64_t>(sizes.timers, 1);
  const auto span = static_cast<std::uint64_t>(std::max<std::int64_t>(sizes.timer_span_ms, 1));
  std::vector<p2ps::sim::TimerId> ids(static_cast<std::size_t>(population));
  std::uint64_t fired = 0;
  const std::int64_t rounds = std::max<std::int64_t>(1, 50'000 / population);
  return median_sample([&] {
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    for (std::int64_t round = 0; round < rounds; ++round) {
      const SimTime now = sim.now();
      for (auto& id : ids) {
        id = timers.arm_at(now + SimTime::millis(static_cast<std::int64_t>(
                                     1 + rng.uniform_below(span))),
                           [&fired](SimTime) { ++fired; });
      }
      for (const auto& id : ids) {
        timers.rearm_at(id, now + SimTime::millis(static_cast<std::int64_t>(
                                      1 + rng.uniform_below(span))));
      }
      sim.run();
    }
    g_sink = g_sink + fired;
    return ns_per(t0, rounds * population);
  });
}

// ---- sim: ShardRunner window synchronisation with trivial callbacks ----

/// Sub-windows per ShardRunner run: the workload's count, capped so one
/// run stays short at 4 threads (~15 us each).
std::int64_t sub_windows_per_run(const LayerSizes& sizes) {
  return std::clamp<std::int64_t>(sizes.sub_windows, 1, 20'000);
}

double window_sync_us(const LayerSizes& sizes) {
  struct alignas(64) Clock {
    std::int64_t ms = 0;
  };
  const int shards = std::max(sizes.shards, 1);
  const std::int64_t per_run = sub_windows_per_run(sizes);
  return median_sample([&] {
    std::int64_t subs = 0;
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    // Short runs (one thread, tiny windows) repeat until the batch is
    // long enough to time; thread start-up is part of each run.
    do {
      std::vector<Clock> clocks(static_cast<std::size_t>(shards));
      p2ps::sim::ShardRunner runner(shards, SimTime::millis(sizes.lookahead_ms),
                                    sizes.threads, std::max(sizes.fusion, 1));
      p2ps::sim::ShardRunner::Callbacks callbacks;
      // Every shard always has an event 1 ms after its clock, so every
      // sub-window executes and none is skipped as idle.
      callbacks.next_event_time = [&clocks](int shard) -> std::optional<SimTime> {
        return SimTime::millis(clocks[static_cast<std::size_t>(shard)].ms + 1);
      };
      callbacks.run_to = [&clocks](int shard, SimTime t) {
        clocks[static_cast<std::size_t>(shard)].ms = t.as_millis();
      };
      callbacks.at_barrier = [](SimTime) {};
      runner.run(SimTime::millis(per_run * sizes.lookahead_ms), callbacks);
      subs += runner.sub_windows();
    } while (PhaseProfiler::now_ns() - t0 < 20'000'000u);
    return ns_per(t0, subs) / 1e3;
  });
}

// ---- net: MailboxRouter send + drain per message at the batch mean ----

/// Delivery groups sent per round: the workload's event-list depth, so the
/// drain events sit in a list of the size the engine saw.
std::int64_t groups_in_flight(const LayerSizes& sizes) {
  return std::clamp<std::int64_t>(sizes.pending, 1, 4096);
}

double mailbox_ns(const LayerSizes& sizes) {
  using Router = p2ps::net::MailboxRouter<std::uint32_t>;
  p2ps::sim::Simulator sim;
  p2ps::net::MailboxConfig config;
  config.latency = p2ps::net::LatencyModel::of(p2ps::net::LatencyModelKind::kFixed);
  Router router(sim, config, Rng(sizes.seed).substream("mailbox"));
  const auto peers = static_cast<std::uint64_t>(std::max<std::int64_t>(sizes.peers, 2));
  std::uint64_t delivered = 0;
  for (std::uint64_t p = 0; p < peers; ++p) {
    router.attach(PeerId{p}, [&delivered](const p2ps::net::Envelope<std::uint32_t>&) {
      ++delivered;
    });
  }
  Rng rng(sizes.seed);
  const double mean = std::max(sizes.batch_mean, 1.0);
  const auto whole = static_cast<std::uint64_t>(std::floor(mean));
  const double frac = mean - std::floor(mean);
  const std::int64_t groups = groups_in_flight(sizes);
  constexpr std::int64_t kMessages = 100'000;
  return median_sample([&] {
    std::int64_t sent = 0;
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    while (sent < kMessages) {
      for (std::int64_t g = 0; g < groups; ++g) {
        const PeerId to{rng.uniform_below(peers)};
        const std::uint64_t batch = whole + (rng.uniform01() < frac ? 1 : 0);
        for (std::uint64_t j = 0; j < batch; ++j) {
          router.send(PeerId{rng.uniform_below(peers)}, to,
                      static_cast<std::uint32_t>(j));
        }
        sent += static_cast<std::int64_t>(batch);
      }
      sim.run();
    }
    g_sink = g_sink + delivered;
    return ns_per(t0, sent);
  });
}

// ---- net: ShardRouter send + exchange + drain per message ----

void count_delivery(void* context, const p2ps::net::ShardRouter<std::uint32_t>::Envelope&) {
  ++*static_cast<std::uint64_t*>(context);
}

double exchange_ns(const LayerSizes& sizes) {
  using Router = p2ps::net::ShardRouter<std::uint32_t>;
  const int shards = std::max(sizes.shards, 1);
  const std::int64_t window = std::max<std::int64_t>(sizes.lookahead_ms, 1);
  Router router(shards, SimTime::millis(window));
  std::vector<std::unique_ptr<p2ps::sim::Simulator>> sims;
  std::uint64_t delivered = 0;
  for (int s = 0; s < shards; ++s) {
    sims.push_back(std::make_unique<p2ps::sim::Simulator>());
    router.bind(s, *sims.back(), &delivered, count_delivery);
  }
  Rng rng(sizes.seed);
  const auto per_shard_peers =
      static_cast<std::uint64_t>(std::max<std::int64_t>(sizes.peers / shards, 1));
  const double mean = std::max(sizes.msgs_per_shard_window, 0.0);
  const auto whole = static_cast<std::uint64_t>(std::floor(mean));
  const double frac = mean - std::floor(mean);
  std::uint32_t seq = 0;
  std::int64_t now_ms = 0;
  constexpr std::int64_t kMessages = 100'000;
  return median_sample([&] {
    std::int64_t sent = 0;
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    while (sent < kMessages) {
      for (int s = 0; s < shards; ++s) {
        const std::uint64_t count = whole + (rng.uniform01() < frac ? 1 : 0);
        for (std::uint64_t i = 0; i < count; ++i) {
          Router::Envelope envelope;
          envelope.from = static_cast<std::uint32_t>(
              static_cast<std::uint64_t>(s) +
              static_cast<std::uint64_t>(shards) * rng.uniform_below(per_shard_peers));
          envelope.to = static_cast<std::uint32_t>(
              rng.uniform_below(per_shard_peers * static_cast<std::uint64_t>(shards)));
          envelope.sent_at = static_cast<std::uint32_t>(now_ms);
          envelope.deliver_at = static_cast<std::uint32_t>(now_ms + window);
          envelope.seq = seq++;
          router.send(s, envelope);
        }
        sent += static_cast<std::int64_t>(count);
      }
      router.exchange();
      now_ms += window;
      for (auto& sim : sims) sim->run_until(SimTime::millis(now_ms));
      if (whole == 0 && frac == 0.0) break;  // nothing to send at all
    }
    g_sink = g_sink + delivered;
    return ns_per(t0, sent);
  });
}

// ---- lookup: Directory candidates_into at the supplier count and M ----

double candidates_ns(const LayerSizes& sizes) {
  p2ps::lookup::DirectoryService directory;
  Rng rng(sizes.seed);
  const std::int64_t suppliers = std::max<std::int64_t>(sizes.suppliers, 1);
  for (std::int64_t i = 0; i < suppliers; ++i) {
    directory.register_supplier(PeerId{static_cast<std::uint64_t>(i)}, draw_class(rng));
  }
  const PeerId requester{static_cast<std::uint64_t>(suppliers)};
  std::vector<p2ps::lookup::CandidateInfo> out;
  constexpr std::int64_t kLookups = 100'000;
  return median_sample([&] {
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    for (std::int64_t i = 0; i < kLookups; ++i) {
      directory.candidates_into(out, static_cast<std::size_t>(sizes.m), rng, requester);
      g_sink = g_sink + out.size();
    }
    return ns_per(t0, kLookups);
  });
}

// ---- core: the paper-dac SelectionPolicy::select_into over M offers ----

double select_ns(const LayerSizes& sizes) {
  const p2ps::core::SelectionPolicy& policy = p2ps::core::paper_dac_policy();
  Rng rng(sizes.seed);
  constexpr std::size_t kSets = 4096;
  const auto m = static_cast<std::size_t>(std::max<std::int64_t>(sizes.m, 1));
  std::vector<std::vector<PeerClass>> sets(kSets);
  for (auto& set : sets) {
    for (std::size_t i = 0; i < m; ++i) set.push_back(draw_class(rng));
  }
  p2ps::core::SelectionResult result;
  Rng selection_rng = rng.substream("selection");
  p2ps::core::SelectionContext context;
  context.rng = &selection_rng;
  constexpr std::int64_t kCalls = 200'000;
  return median_sample([&] {
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    for (std::int64_t i = 0; i < kCalls; ++i) {
      const auto& set = sets[static_cast<std::size_t>(i) % kSets];
      context.requester_class = set.front();
      policy.select_into(result, set, p2ps::core::Bandwidth::playback_rate(), context);
      g_sink = g_sink + result.chosen.size();
    }
    return ns_per(t0, kCalls);
  });
}

// ---- util: Rng::substream + discard(n), a lazy stream rehydration ----

/// Draws one candidate lookup (sample M of the suppliers) costs a stream.
double draws_per_lookup(const LayerSizes& sizes) {
  Rng probe(sizes.seed);
  std::vector<std::size_t> picks;
  constexpr int kLookups = 1'000;
  for (int i = 0; i < kLookups; ++i) {
    probe.sample_indices_into(picks, static_cast<std::size_t>(std::max<std::int64_t>(sizes.suppliers, 1)),
                              static_cast<std::size_t>(sizes.m), /*clamp=*/true);
  }
  return static_cast<double>(probe.draws()) / kLookups;
}

/// A requester's stream is rehydrated at each retry, replaying every draw
/// of its earlier attempts: on average half of its attempts' worth.
std::uint64_t rehydration_draws(const LayerSizes& sizes) {
  return static_cast<std::uint64_t>(
      std::llround(draws_per_lookup(sizes) * sizes.attempts_per_requester / 2.0));
}

double rehydrate_ns(const LayerSizes& sizes) {
  const Rng master(sizes.seed);
  const std::uint64_t draws = rehydration_draws(sizes);
  const std::int64_t ops =
      std::max<std::int64_t>(1'000, 2'000'000 / static_cast<std::int64_t>(draws + 1));
  std::uint64_t peer = 0;
  return median_sample([&] {
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    for (std::int64_t i = 0; i < ops; ++i) {
      Rng stream = master.substream("peer", peer++);
      stream.discard(draws);
      g_sink = g_sink ^ stream();
    }
    return ns_per(t0, ops);
  });
}

// ---- workload: lazy ArrivalSchedule::arrival_at ----

double arrival_ns(const LayerSizes& sizes) {
  const std::int64_t total = std::max<std::int64_t>(sizes.arrivals, 1);
  const auto schedule = p2ps::workload::ArrivalSchedule::make_lazy(
      p2ps::workload::ArrivalPattern::kConstant, total,
      SimTime::millis(sizes.arrival_window_ms));
  constexpr std::int64_t kCalls = 1'000'000;
  std::int64_t index = 0;
  return median_sample([&] {
    const std::uint64_t t0 = PhaseProfiler::now_ns();
    for (std::int64_t i = 0; i < kCalls; ++i) {
      g_sink = g_sink + static_cast<std::uint64_t>(schedule.arrival_at(index).as_millis());
      if (++index == total) index = 0;
    }
    return ns_per(t0, kCalls);
  });
}

}  // namespace

p2ps::scenario::Json run_layers(const LayerSizes& sizes) {
  using p2ps::scenario::Json;
  Json metrics = Json::object();
  metrics.set("sim.event_ns", event_ns(sizes));
  metrics.set("sim.timer_ns", timer_ns(sizes));
  metrics.set("sim.window_sync_us", window_sync_us(sizes));
  metrics.set("net.mailbox_ns", mailbox_ns(sizes));
  metrics.set("net.exchange_ns", exchange_ns(sizes));
  metrics.set("lookup.candidates_ns", candidates_ns(sizes));
  metrics.set("core.select_ns", select_ns(sizes));
  metrics.set("util.rehydrate_ns", rehydrate_ns(sizes));
  metrics.set("workload.arrival_ns", arrival_ns(sizes));
  Json used = Json::object();
  used.set("pending", sizes.pending);
  used.set("timers", sizes.timers);
  used.set("timer_span_ms", sizes.timer_span_ms);
  used.set("batch_mean", sizes.batch_mean);
  used.set("peers", sizes.peers);
  used.set("shards", sizes.shards);
  used.set("threads", sizes.threads);
  used.set("fusion", sizes.fusion);
  used.set("lookahead_ms", sizes.lookahead_ms);
  used.set("msgs_per_shard_window", sizes.msgs_per_shard_window);
  used.set("suppliers", sizes.suppliers);
  used.set("m", sizes.m);
  used.set("attempts_per_requester", sizes.attempts_per_requester);
  used.set("arrivals", sizes.arrivals);
  used.set("arrival_window_ms", sizes.arrival_window_ms);
  Json derived = Json::object();
  derived.set("draws_per_lookup", draws_per_lookup(sizes));
  derived.set("rehydration_draws", static_cast<std::int64_t>(rehydration_draws(sizes)));
  derived.set("sub_windows_per_run", sub_windows_per_run(sizes));
  derived.set("groups_in_flight", groups_in_flight(sizes));
  Json out = Json::object();
  out.set("metrics", std::move(metrics));
  out.set("sizes", std::move(used));
  out.set("derived_sizes", std::move(derived));
  return out;
}

}  // namespace perfbench
