// Tests for the conservative-parallel sharding layer: the ShardRunner's
// lockstep windows, the ShardRouter's lookahead contract and canonical
// drain order (randomized differential vs the unsharded baseline), the
// monotone SessionEndCalendar, Simulator::next_event_time on both event
// list backends, and the ShardedSystem / sharded-scenario byte-parity
// contract — merged output identical for any --shards and --shard-threads.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "engine/retry_heap.hpp"
#include "engine/retry_source.hpp"
#include "engine/session_end_calendar.hpp"
#include "engine/sharded_system.hpp"
#include "net/latency.hpp"
#include "net/shard_router.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_list.hpp"
#include "sim/shard_runner.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"
#include "workload/arrival_pattern.hpp"

namespace p2ps {
namespace {

using core::PeerId;
using util::SimTime;

// ---------- Simulator::next_event_time (the runner's window probe) ----------

class NextEventTimeTest : public ::testing::TestWithParam<sim::EventListKind> {};

TEST_P(NextEventTimeTest, ReportsEarliestLiveEventAndSkipsCancelledResidue) {
  sim::Simulator simulator(GetParam());
  EXPECT_FALSE(simulator.next_event_time().has_value());
  const sim::EventId early = simulator.schedule_at(SimTime::millis(3), [] {});
  simulator.schedule_at(SimTime::millis(5), [] {});
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(3));
  simulator.cancel(early);
  // The cancelled head is residue, not the next event.
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(5));
  simulator.run_until(SimTime::millis(5));
  EXPECT_FALSE(simulator.next_event_time().has_value());
}

TEST_P(NextEventTimeTest, ProbingDoesNotPerturbSameTickFifoOrder) {
  sim::Simulator simulator(GetParam());
  std::vector<int> order;
  simulator.schedule_at(SimTime::millis(7), [&order] { order.push_back(1); });
  simulator.schedule_at(SimTime::millis(7), [&order] { order.push_back(2); });
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(7));
  EXPECT_EQ(simulator.next_event_time(), SimTime::millis(7));  // idempotent
  simulator.run_until(SimTime::millis(7));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

INSTANTIATE_TEST_SUITE_P(BothBackends, NextEventTimeTest,
                         ::testing::Values(sim::EventListKind::kBinaryHeap,
                                           sim::EventListKind::kCalendarQueue));

// ---------- SessionEndCalendar ----------

TEST(SessionEndCalendar, FiresAtExactTicksInFifoOrderThroughOneEvent) {
  sim::Simulator simulator;
  std::vector<std::pair<std::int64_t, int>> fired;
  engine::SessionEndCalendar<int> calendar(simulator, [&](int&& id) {
    fired.emplace_back(simulator.now().as_millis(), id);
  });
  calendar.schedule(SimTime::millis(5), 1);
  calendar.schedule(SimTime::millis(5), 2);
  calendar.schedule(SimTime::millis(9), 3);
  EXPECT_EQ(calendar.pending(), 3u);
  EXPECT_EQ(simulator.pending_count(), 1u);  // one armed event for all three
  simulator.run_until(SimTime::millis(10));
  const std::vector<std::pair<std::int64_t, int>> expected = {
      {5, 1}, {5, 2}, {9, 3}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(calendar.pending(), 0u);
  EXPECT_EQ(simulator.pending_count(), 0u);  // disarmed when drained
}

TEST(SessionEndCalendar, RejectsOutOfOrderAndPastScheduling) {
  sim::Simulator simulator;
  engine::SessionEndCalendar<int> calendar(simulator, [](int&&) {});
  calendar.schedule(SimTime::millis(10), 1);
  EXPECT_THROW(calendar.schedule(SimTime::millis(5), 2),
               util::ContractViolation);
}

// The deadline-check-on-drain rule the sharded engine leans on: a reader
// event scheduled BEFORE the calendar entry was armed would win a
// same-tick seq race; poll() at the reader's top makes every due end
// happen deterministically before the read, independent of arming order.
TEST(SessionEndCalendar, PollDrainsDueEntriesBeforeASameTickReader) {
  sim::Simulator simulator;
  std::vector<std::string> order;
  engine::SessionEndCalendar<int> calendar(
      simulator, [&order](int&&) { order.push_back("end"); });
  simulator.schedule_at(SimTime::millis(4), [&] {
    calendar.poll();
    order.push_back("read");
  });
  calendar.schedule(SimTime::millis(4), 1);  // armed after the reader
  simulator.run_until(SimTime::millis(4));
  EXPECT_EQ(order, (std::vector<std::string>{"end", "read"}));
}

TEST(SessionEndCalendar, HandlersMayReentrantlyScheduleLaterEnds) {
  sim::Simulator simulator;
  std::vector<std::int64_t> ticks;
  engine::SessionEndCalendar<int>* self = nullptr;
  engine::SessionEndCalendar<int> calendar(simulator, [&](int&& generation) {
    ticks.push_back(simulator.now().as_millis());
    if (generation < 3) {
      self->schedule(simulator.now() + SimTime::millis(2), generation + 1);
    }
  });
  self = &calendar;
  calendar.schedule(SimTime::millis(2), 1);
  simulator.run_until(SimTime::millis(20));
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{2, 4, 6}));
}

/// splitmix64 finalizer — a deterministic hash, not a shared RNG stream,
/// so every draw is a pure function of its inputs: a property of the
/// traffic itself, never of the partitioning.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------- RetryHeap (the compact RetrySource) ----------

// The compact heap must be a drop-in for RetrySource: identical firing
// times and identical order under same-tick ties, driven by the same
// pseudo-random retry traffic (including reentrant rescheduling from the
// handler, the engine's actual usage pattern).
TEST(RetryHeap, FiringLogMatchesRetrySourceDifferentially) {
  constexpr std::uint32_t kPeers = 19;
  constexpr int kRounds = 5;
  const auto delay_of = [](std::uint32_t peer, int round) {
    return SimTime::millis(static_cast<std::int64_t>(
        mix(peer * 7919u + static_cast<std::uint64_t>(round) * 104729u) % 50));
  };

  std::vector<std::pair<std::int64_t, std::uint32_t>> source_log;
  {
    sim::Simulator simulator;
    std::array<int, kPeers> round{};
    engine::RetrySource* self = nullptr;
    engine::RetrySource source(simulator, [&](PeerId peer) {
      const auto local = static_cast<std::uint32_t>(peer.value());
      source_log.emplace_back(simulator.now().as_millis(), local);
      if (++round[local] < kRounds) {
        self->schedule(delay_of(local, round[local]), peer);
      }
    });
    self = &source;
    for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
      source.schedule(delay_of(peer, 0), PeerId{peer});
    }
    simulator.run_until(SimTime::hours(1));
    EXPECT_EQ(source.waiting(), 0u);
  }

  std::vector<std::pair<std::int64_t, std::uint32_t>> heap_log;
  {
    sim::Simulator simulator;
    std::array<int, kPeers> round{};
    engine::RetryHeap* self = nullptr;
    engine::RetryHeap heap(simulator, SimTime::hours(2),
                           [&](std::uint32_t local) {
                             heap_log.emplace_back(simulator.now().as_millis(),
                                                   local);
                             if (++round[local] < kRounds) {
                               self->schedule(delay_of(local, round[local]),
                                              local);
                             }
                           });
    self = &heap;
    for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
      heap.schedule(delay_of(peer, 0), peer);
    }
    simulator.run_until(SimTime::hours(1));
    EXPECT_EQ(heap.waiting(), 0u);
    EXPECT_EQ(heap.dropped_beyond_horizon(), 0u);
  }

  EXPECT_EQ(heap_log.size(), kPeers * kRounds);
  EXPECT_EQ(heap_log, source_log);
}

// A retry due past the horizon can never fire (the runner stops at the
// horizon), so the heap drops it at schedule() instead of parking a dead
// 12-byte entry for the rest of the run.
TEST(RetryHeap, DropsRetriesDueBeyondTheHorizon) {
  sim::Simulator simulator;
  std::vector<std::uint32_t> fired;
  engine::RetryHeap heap(simulator, SimTime::millis(100),
                         [&](std::uint32_t local) { fired.push_back(local); });
  heap.schedule(SimTime::millis(100), 1);  // exactly at the horizon: kept
  heap.schedule(SimTime::millis(101), 2);  // past it: dropped
  EXPECT_EQ(heap.waiting(), 1u);
  EXPECT_EQ(heap.dropped_beyond_horizon(), 1u);
  simulator.run_until(SimTime::millis(500));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1}));
}

// ---------- ShardRouter ----------

using IntRouter = net::ShardRouter<int>;

/// The router's Handler is a raw (context, envelope) function pointer; this
/// adapter lets tests keep using capturing lambdas. The std::function must
/// outlive every delivery.
using TestHandler = std::function<void(const IntRouter::Envelope&)>;
void bind_fn(IntRouter& router, int shard, sim::Simulator& simulator,
             TestHandler* handler) {
  router.bind(shard, simulator, handler,
              [](void* context, const IntRouter::Envelope& envelope) {
                (*static_cast<TestHandler*>(context))(envelope);
              });
}

TEST(ShardRouter, RejectsSendsBelowTheLookaheadWindow) {
  sim::Simulator simulator;
  IntRouter router(2, SimTime::millis(10));
  router.bind(0, simulator, nullptr, [](void*, const IntRouter::Envelope&) {});
  IntRouter::Envelope envelope;
  envelope.from = 0;
  envelope.to = 1;
  envelope.sent_at = 0;
  envelope.deliver_at = 9;  // one tick under the window
  EXPECT_THROW(router.send(0, std::move(envelope)), util::ContractViolation);
}

TEST(ShardRouter, RejectsSendsFromAShardThatDoesNotOwnTheSender) {
  sim::Simulator simulator;
  IntRouter router(2, SimTime::millis(10));
  router.bind(0, simulator, nullptr, [](void*, const IntRouter::Envelope&) {});
  IntRouter::Envelope envelope;
  envelope.from = 1;  // peer 1 lives on shard 1
  envelope.to = 0;
  envelope.sent_at = 0;
  envelope.deliver_at = 10;
  EXPECT_THROW(router.send(0, std::move(envelope)), util::ContractViolation);
}

/// What the runner did while driving a router: the window end passed to
/// every at_window_start and at_barrier call, its counters, and whether a
/// serial callback ever ran while a shard was mid-pull or mid-step.
struct DriveLog {
  std::vector<std::int64_t> window_starts;
  std::vector<std::int64_t> barriers;
  std::int64_t windows = 0;
  std::int64_t windows_fused = 0;
  std::int64_t sub_windows = 0;
  bool serial_overlapped_a_shard = false;
};

/// Drives `num_shards` simulators through the ShardRunner with the given
/// router and horizon — the exact window wiring the ShardedSystem uses,
/// minus the engine: each shard pulls right before it steps, the serial
/// step seals the window, and a shard's next event counts what it sent.
DriveLog drive(std::vector<std::unique_ptr<sim::Simulator>>& simulators,
               IntRouter& router, SimTime horizon, int threads = 1,
               int fusion = 1) {
  sim::ShardRunner runner(router.num_shards(), router.window(), threads, fusion);
  DriveLog log;
  // Shards currently inside pull or run_to; the serial callbacks must
  // only ever see zero.
  std::atomic<int> in_flight{0};
  const auto check_serial = [&] {
    if (in_flight.load() != 0) log.serial_overlapped_a_shard = true;
  };
  sim::ShardRunner::Callbacks callbacks;
  callbacks.next_event_time = [&](int shard) {
    auto next = simulators[static_cast<std::size_t>(shard)]->next_event_time();
    const auto sent = router.earliest_sent(shard);
    if (sent && (!next || *sent < *next)) next = sent;
    return next;
  };
  callbacks.at_window_start = [&](SimTime t) {
    check_serial();
    log.window_starts.push_back(t.as_millis());
  };
  callbacks.pull = [&](int shard) {
    ++in_flight;
    router.pull(shard);
    --in_flight;
  };
  callbacks.run_to = [&](int shard, SimTime t) {
    ++in_flight;
    simulators[static_cast<std::size_t>(shard)]->run_until(t);
    if (threads > 1) std::this_thread::yield();  // widen the step
    --in_flight;
  };
  callbacks.at_barrier = [&](SimTime t) {
    check_serial();
    log.barriers.push_back(t.as_millis());
    router.seal_window();
  };
  runner.run(horizon, callbacks);
  log.windows = runner.windows();
  log.windows_fused = runner.windows_fused();
  log.sub_windows = runner.sub_windows();
  return log;
}

// The window-boundary tie: a local envelope (enqueued at send time) and a
// cross-shard envelope (enqueued only at the barrier) land on the same
// destination tick. Arrival order into the batch is partition-dependent;
// the drain must follow the canonical (to, sent_at, from, seq) order, so
// the remote sender with the smaller peer id delivers first.
TEST(ShardRouter, SameTickDeliveriesDrainInCanonicalOrderNotArrivalOrder) {
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  simulators.push_back(std::make_unique<sim::Simulator>());
  simulators.push_back(std::make_unique<sim::Simulator>());
  IntRouter router(2, SimTime::millis(10));
  std::vector<std::pair<std::int64_t, std::uint64_t>> deliveries;  // (tick, from)
  TestHandler log_deliveries = [&](const IntRouter::Envelope& envelope) {
    deliveries.emplace_back(simulators[0]->now().as_millis(), envelope.from);
  };
  bind_fn(router, 0, *simulators[0], &log_deliveries);
  router.bind(1, *simulators[1], nullptr, [](void*, const IntRouter::Envelope&) {});
  const auto send = [&](int shard, std::uint64_t from) {
    IntRouter::Envelope envelope;
    envelope.from = static_cast<std::uint32_t>(from);
    envelope.to = 0;
    envelope.sent_at = static_cast<std::uint32_t>(
        simulators[static_cast<std::size_t>(shard)]->now().as_millis());
    envelope.deliver_at = envelope.sent_at + 10;
    router.send(shard, std::move(envelope));
  };
  // Shard 0's peer 4 sends locally, shard 1's peer 1 cross-shard, both at
  // t=0 with latency 10 — the local one reaches the batch a whole window
  // earlier than the remote one.
  simulators[0]->schedule_at(SimTime::zero(), [&] { send(0, 4); });
  simulators[1]->schedule_at(SimTime::zero(), [&] { send(1, 1); });
  drive(simulators, router, SimTime::millis(15));
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {10, 1}, {10, 4}};
  EXPECT_EQ(deliveries, expected);
  EXPECT_EQ(router.cross_shard_total(), 1u);
}

// ---- randomized differential: cascading traffic, any shard count ----

// (deliver tick, from, sent_at, seq, hops-remaining) — one per delivery.
using Delivery = std::tuple<std::int64_t, std::uint64_t, std::int64_t,
                            std::uint64_t, int>;

constexpr int kCascadePeers = 23;
constexpr std::int64_t kCascadeWindowMs = 5;

/// Runs the cascade on `num_shards` shards: every peer opens with a burst
/// of sends, and each delivery spawns a follow-up from the receiver until
/// its hop budget runs out. Destinations and latencies are hashed from
/// (sender, seq), so the per-destination delivery log is the partition-
/// independent ground truth.
std::array<std::vector<Delivery>, kCascadePeers> run_cascade(
    int num_shards, int threads = 1, int fusion = 1, DriveLog* log = nullptr) {
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  for (int s = 0; s < num_shards; ++s) {
    simulators.push_back(std::make_unique<sim::Simulator>());
  }
  IntRouter router(num_shards, SimTime::millis(kCascadeWindowMs));
  std::array<std::uint64_t, kCascadePeers> send_seq{};
  std::array<std::vector<Delivery>, kCascadePeers> logs;

  const auto send_from = [&](int shard, std::uint64_t from, int hops) {
    const std::uint64_t seq = send_seq[from]++;
    const std::uint64_t hash = mix(from * 1'000'003 + seq);
    IntRouter::Envelope envelope;
    envelope.from = static_cast<std::uint32_t>(from);
    envelope.to = static_cast<std::uint32_t>(hash % kCascadePeers);
    envelope.sent_at = static_cast<std::uint32_t>(
        simulators[static_cast<std::size_t>(shard)]->now().as_millis());
    envelope.deliver_at =
        envelope.sent_at +
        static_cast<std::uint32_t>(kCascadeWindowMs +
                                   static_cast<std::int64_t>((hash >> 8) % 20));
    envelope.seq = static_cast<std::uint32_t>(seq);
    envelope.payload = hops;
    router.send(shard, std::move(envelope));
  };
  std::vector<TestHandler> handlers(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    handlers[static_cast<std::size_t>(s)] =
        [&, s](const IntRouter::Envelope& envelope) {
          const std::uint64_t to = envelope.to;
          logs[to].emplace_back(
              simulators[static_cast<std::size_t>(s)]->now().as_millis(),
              envelope.from, envelope.sent_at, envelope.seq, envelope.payload);
          if (envelope.payload > 0) send_from(s, to, envelope.payload - 1);
        };
    bind_fn(router, s, *simulators[s], &handlers[static_cast<std::size_t>(s)]);
  }
  // Initial bursts fire at ticks 1..3 — strictly before the earliest
  // possible delivery (1 + window), so pre-scheduled sends never race a
  // drain event on their own tick.
  for (std::uint64_t peer = 0; peer < kCascadePeers; ++peer) {
    const int shard = router.shard_of(PeerId{peer});
    simulators[static_cast<std::size_t>(shard)]->schedule_at(
        SimTime::millis(1 + static_cast<std::int64_t>(peer % 3)),
        [&, shard, peer] { send_from(shard, peer, /*hops=*/3); });
  }
  const DriveLog driven =
      drive(simulators, router, SimTime::millis(400), threads, fusion);
  if (log != nullptr) *log = driven;
  return logs;
}

TEST(ShardRouter, CascadeDeliveryLogsMatchTheUnshardedBaseline) {
  const auto baseline = run_cascade(1);
  std::size_t total = 0;
  for (const auto& log : baseline) total += log.size();
  EXPECT_GT(total, 50u);  // the cascade actually cascaded
  for (const int num_shards : {2, 4, 7}) {
    const auto sharded = run_cascade(num_shards);
    for (int peer = 0; peer < kCascadePeers; ++peer) {
      EXPECT_EQ(sharded[static_cast<std::size_t>(peer)],
                baseline[static_cast<std::size_t>(peer)])
          << "peer " << peer << " with " << num_shards << " shards";
    }
  }
}

// The tick -> group index is an open-addressed power-of-two ring: it
// doubles until the live tick span fits, then every tick owns its slot
// uniquely, and drained groups recycle through the free list (entry
// capacity kept) — the steady state neither allocates nor rehashes.
TEST(ShardRouter, TickRingGrowsToSpanLiveTicksAndRecyclesGroups) {
  sim::Simulator simulator;
  IntRouter router(1, SimTime::millis(10));
  int delivered = 0;
  router.bind(0, simulator, &delivered,
              [](void* context, const IntRouter::Envelope&) {
                ++*static_cast<int*>(context);
              });
  const auto send_at = [&](std::int64_t deliver_ms) {
    IntRouter::Envelope envelope;
    envelope.from = 0;
    envelope.to = 0;
    envelope.sent_at = static_cast<std::uint32_t>(simulator.now().as_millis());
    envelope.deliver_at = static_cast<std::uint32_t>(deliver_ms);
    router.send(0, std::move(envelope));
  };
  EXPECT_EQ(router.ring_slots(0), 64u);
  // 191 distinct live ticks force two doublings (64 -> 256 > the span).
  for (std::int64_t d = 10; d <= 200; ++d) send_at(d);
  EXPECT_EQ(router.pending_groups(0), 191u);
  EXPECT_EQ(router.ring_slots(0), 256u);
  EXPECT_EQ(router.pool_allocations(), 191u);
  EXPECT_EQ(router.pool_reuses(), 0u);
  simulator.run_until(SimTime::millis(200));
  EXPECT_EQ(delivered, 191);
  EXPECT_EQ(router.pending_groups(0), 0u);
  // A second wave on fresh ticks: every group comes off the free list and
  // the ring never grows again.
  for (std::int64_t d = 210; d <= 300; ++d) send_at(d);
  EXPECT_EQ(router.pool_allocations(), 191u);
  EXPECT_EQ(router.pool_reuses(), 91u);
  EXPECT_EQ(router.ring_slots(0), 256u);
  simulator.run_until(SimTime::millis(300));
  EXPECT_EQ(delivered, 191 + 91);
}

// ---- destination pull vs serial exchange: randomized differential ----

/// One delivery in a shard's execution order: (tick, from, to, sent_at,
/// seq).
using ShardDelivery = std::tuple<std::int64_t, std::uint32_t, std::uint32_t,
                                 std::uint32_t, std::uint32_t>;

struct ExchangeRun {
  std::vector<std::vector<ShardDelivery>> per_shard;
  std::uint64_t cross_shard = 0;
  std::uint64_t pool_allocations = 0;
  std::uint64_t pool_reuses = 0;
  std::size_t max_ring_slots = 0;
  /// (shard, tick) batches that held both a local and a remote envelope.
  int mixed_ticks = 0;
};

/// Random cascading traffic through fixed windows of the lookahead width.
/// With `pull`, every destination pulls its own rows before it steps and
/// each window ends with seal_window(); otherwise every window ends with
/// the serial exchange(). Latencies cluster on a few ticks (so local and
/// remote envelopes share delivery ticks) with a long tail (so the tick
/// ring has to grow).
ExchangeRun run_exchange_traffic(int num_shards, bool pull, std::uint64_t seed) {
  constexpr std::uint32_t kPeers = 29;
  constexpr std::int64_t kWindowMs = 4;
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  for (int s = 0; s < num_shards; ++s) {
    simulators.push_back(std::make_unique<sim::Simulator>());
  }
  IntRouter router(num_shards, SimTime::millis(kWindowMs));
  std::array<std::uint32_t, kPeers> send_seq{};
  ExchangeRun run;
  run.per_shard.resize(static_cast<std::size_t>(num_shards));
  // (shard, tick) -> bit 0: local envelope seen, bit 1: remote seen.
  std::map<std::pair<int, std::int64_t>, int> tick_sources;

  const auto send_from = [&](int shard, std::uint32_t from, int hops) {
    const std::uint32_t seq = send_seq[from]++;
    const std::uint64_t hash = mix(seed * 7'777'777 + from * 1'000'003 + seq);
    IntRouter::Envelope envelope;
    envelope.from = from;
    envelope.to = static_cast<std::uint32_t>(hash % kPeers);
    envelope.sent_at = static_cast<std::uint32_t>(
        simulators[static_cast<std::size_t>(shard)]->now().as_millis());
    const std::uint64_t spread = (hash >> 16) % 8 == 0 ? 250 : 3;
    envelope.deliver_at = envelope.sent_at +
                          static_cast<std::uint32_t>(kWindowMs) +
                          static_cast<std::uint32_t>((hash >> 24) % spread);
    envelope.seq = seq;
    envelope.payload = hops;
    router.send(shard, std::move(envelope));
  };
  std::vector<TestHandler> handlers(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    handlers[static_cast<std::size_t>(s)] = [&, s](const IntRouter::Envelope& e) {
      const std::int64_t now = simulators[static_cast<std::size_t>(s)]->now().as_millis();
      run.per_shard[static_cast<std::size_t>(s)].emplace_back(now, e.from, e.to,
                                                              e.sent_at, e.seq);
      const bool local = router.shard_of(std::uint64_t{e.from}) == s;
      tick_sources[{s, now}] |= local ? 1 : 2;
      if (e.payload > 0) send_from(s, e.to, e.payload - 1);
    };
    bind_fn(router, s, *simulators[static_cast<std::size_t>(s)],
            &handlers[static_cast<std::size_t>(s)]);
  }
  for (std::uint32_t peer = 0; peer < kPeers; ++peer) {
    const int shard = router.shard_of(std::uint64_t{peer});
    for (int burst = 0; burst < 6; ++burst) {
      simulators[static_cast<std::size_t>(shard)]->schedule_at(
          SimTime::millis(1 + (peer + static_cast<std::uint32_t>(burst)) % kWindowMs),
          [&, shard, peer] { send_from(shard, peer, /*hops=*/4); });
    }
  }
  for (std::int64_t end = kWindowMs; end <= 2000; end += kWindowMs) {
    for (int s = 0; s < num_shards; ++s) {
      if (pull) router.pull(s);
      simulators[static_cast<std::size_t>(s)]->run_until(SimTime::millis(end));
    }
    if (pull) {
      router.seal_window();
    } else {
      router.exchange();
    }
  }
  for (const auto& [key, sources] : tick_sources) {
    if (sources == 3) ++run.mixed_ticks;
  }
  run.cross_shard = router.cross_shard_total();
  run.pool_allocations = router.pool_allocations();
  run.pool_reuses = router.pool_reuses();
  for (int s = 0; s < num_shards; ++s) {
    run.max_ring_slots = std::max(run.max_ring_slots, router.ring_slots(s));
  }
  return run;
}

// Destination pull must hand every shard exactly the enqueue sequence the
// serial exchange produces: same deliveries in the same execution order,
// same pool traffic — including same-tick local/remote mixes and ticks
// that force the ring to grow.
TEST(ShardRouter, DestinationPullMatchesTheSerialExchangeDifferentially) {
  for (const int num_shards : {2, 3, 5}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const ExchangeRun serial = run_exchange_traffic(num_shards, false, seed);
      const ExchangeRun pulled = run_exchange_traffic(num_shards, true, seed);
      std::size_t delivered = 0;
      for (const auto& log : serial.per_shard) delivered += log.size();
      EXPECT_EQ(delivered, 29u * 6u * 5u);  // peers x bursts x (hops + 1)
      EXPECT_GT(serial.mixed_ticks, 0);          // same-tick local + remote
      EXPECT_GT(serial.max_ring_slots, 64u);     // the tick ring grew
      EXPECT_EQ(pulled.per_shard, serial.per_shard)
          << num_shards << " shards, seed " << seed;
      EXPECT_EQ(pulled.cross_shard, serial.cross_shard);
      EXPECT_EQ(pulled.pool_allocations, serial.pool_allocations);
      EXPECT_EQ(pulled.pool_reuses, serial.pool_reuses);
      EXPECT_EQ(pulled.max_ring_slots, serial.max_ring_slots);
    }
  }
}

// ---------- ShardRunner ----------

TEST(ShardRunner, SkipsIdleStretchesBetweenEventClusters) {
  sim::Simulator simulator;
  std::vector<std::int64_t> fired;
  simulator.schedule_at(SimTime::millis(100), [&] { fired.push_back(100); });
  simulator.schedule_at(SimTime::millis(2000), [&] { fired.push_back(2000); });
  sim::ShardRunner runner(1, SimTime::millis(10));
  sim::ShardRunner::Callbacks callbacks;
  callbacks.next_event_time = [&](int) { return simulator.next_event_time(); };
  callbacks.at_window_start = [](SimTime) {};
  callbacks.run_to = [&](int, SimTime t) { simulator.run_until(t); };
  callbacks.at_barrier = [](SimTime) {};
  runner.run(SimTime::millis(5000), callbacks);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{100, 2000}));
  // One window per cluster (plus at most a final horizon park) — not one
  // per 10 ms stretch of idle time.
  EXPECT_GE(runner.windows(), 2);
  EXPECT_LE(runner.windows(), 3);
  // Both clusters sat past the previous window's end, and the stat says so.
  EXPECT_EQ(runner.idle_skips(), 2);
}

// ---- window fusion: dispatch accounting and byte-invariance ----

/// Drives one simulator with pre-scheduled events at exact `spacing`
/// intervals through a ShardRunner with the given fusion factor; returns
/// (fired ticks, runner) stats via out-params.
std::vector<std::int64_t> run_fused(int fusion, std::int64_t* windows,
                                    std::int64_t* windows_fused,
                                    std::int64_t* sub_windows,
                                    double* lookahead_avg_ms) {
  sim::Simulator simulator;
  std::vector<std::int64_t> fired;
  // Events at 1, 11, ..., 71 — one per unit sub-window under lookahead 10.
  for (std::int64_t t = 1; t <= 71; t += 10) {
    simulator.schedule_at(SimTime::millis(t),
                          [&fired, t] { fired.push_back(t); });
  }
  sim::ShardRunner runner(1, SimTime::millis(10), /*threads=*/1, fusion);
  sim::ShardRunner::Callbacks callbacks;
  callbacks.next_event_time = [&](int) { return simulator.next_event_time(); };
  callbacks.at_window_start = [](SimTime) {};
  callbacks.run_to = [&](int, SimTime t) { simulator.run_until(t); };
  callbacks.at_barrier = [](SimTime) {};
  runner.run(SimTime::millis(80), callbacks);
  *windows = runner.windows();
  *windows_fused = runner.windows_fused();
  *sub_windows = runner.sub_windows();
  *lookahead_avg_ms = runner.lookahead_avg_ms();
  return fired;
}

TEST(ShardRunner, FusionAbsorbsSubWindowsWithoutChangingTheEventSequence) {
  std::int64_t unit_windows = 0, unit_fused = 0, unit_subs = 0;
  double unit_avg = 0;
  const auto unit_fired =
      run_fused(1, &unit_windows, &unit_fused, &unit_subs, &unit_avg);
  EXPECT_EQ(unit_fired.size(), 8u);
  EXPECT_EQ(unit_windows, 8);   // one dispatch per unit sub-window
  EXPECT_EQ(unit_fused, 0);
  EXPECT_EQ(unit_subs, 8);
  EXPECT_DOUBLE_EQ(unit_avg, 10.0);  // 80 ms of horizon over 8 sub-windows

  std::int64_t fused_windows = 0, fused_fused = 0, fused_subs = 0;
  double fused_avg = 0;
  const auto fused_fired =
      run_fused(4, &fused_windows, &fused_fused, &fused_subs, &fused_avg);
  // Same executed sub-window sequence — fusion only moves the dispatch
  // boundaries, so the fired events are identical...
  EXPECT_EQ(fused_fired, unit_fired);
  // ...but 8 sub-windows now ride 2 dispatches of 4.
  EXPECT_EQ(fused_windows, 2);
  EXPECT_EQ(fused_fused, 6);
  EXPECT_EQ(fused_subs, 8);
  EXPECT_DOUBLE_EQ(fused_avg, unit_avg);
}

// The runner's schedule is a function of the traffic alone: for every
// thread count and fusion factor it passes the same window ends, calls
// at_barrier exactly once per sub-window (with at_window_start announcing
// each of those ends first), and never runs a serial callback while any
// shard is pulling or stepping.
TEST(ShardRunner, WindowSequenceIsIdenticalForAnyThreadCountAndFusion) {
  DriveLog reference;
  const auto reference_logs = run_cascade(4, 1, 1, &reference);
  EXPECT_GT(reference.sub_windows, 10);
  for (const int fusion : {1, 32}) {
    for (int threads = 1; threads <= 4; ++threads) {
      DriveLog log;
      const auto logs = run_cascade(4, threads, fusion, &log);
      EXPECT_EQ(logs, reference_logs) << threads << " threads, fusion " << fusion;
      EXPECT_EQ(log.barriers, reference.barriers)
          << threads << " threads, fusion " << fusion;
      EXPECT_EQ(log.window_starts, log.barriers);
      EXPECT_EQ(static_cast<std::int64_t>(log.barriers.size()), log.sub_windows);
      EXPECT_EQ(log.windows + log.windows_fused, log.sub_windows);
      if (fusion == 1) {
        EXPECT_EQ(log.windows, log.sub_windows);
      }
      EXPECT_FALSE(log.serial_overlapped_a_shard)
          << threads << " threads, fusion " << fusion;
    }
  }
}

// A worker that is busy elsewhere does not hold its other shards hostage:
// with 3 shards on 2 workers the caller (worker 0) owns shards 0 and 2,
// and while shard 0 sleeps through a few windows the helper, done with
// shard 1, runs shard 2 — with the same window sequence as one thread.
TEST(ShardRunner, IdleWorkersRunTheShardsOfABusyOne) {
  const auto run = [](int threads, std::vector<std::int64_t>* barriers) {
    sim::ShardRunner runner(3, SimTime::millis(10), threads);
    std::array<std::int64_t, 3> clocks{};
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> shard2_left_its_home{false};
    sim::ShardRunner::Callbacks callbacks;
    callbacks.next_event_time = [&](int shard) {
      return std::optional<SimTime>(
          SimTime::millis(clocks[static_cast<std::size_t>(shard)] + 1));
    };
    callbacks.run_to = [&](int shard, SimTime t) {
      if (shard == 0 && t <= SimTime::millis(50)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (shard == 2 && std::this_thread::get_id() != caller) {
        shard2_left_its_home = true;
      }
      clocks[static_cast<std::size_t>(shard)] = t.as_millis();
    };
    callbacks.at_barrier = [&](SimTime t) { barriers->push_back(t.as_millis()); };
    runner.run(SimTime::millis(100), callbacks);
    return shard2_left_its_home.load();
  };
  std::vector<std::int64_t> serial;
  std::vector<std::int64_t> threaded;
  EXPECT_FALSE(run(1, &serial));
  EXPECT_TRUE(run(2, &threaded));
  EXPECT_EQ(threaded, serial);
}

// A callback failure on any worker stops the run at the next barrier and
// resurfaces on the calling thread.
TEST(ShardRunner, RethrowsAWorkerFailureOnTheCaller) {
  for (int threads = 1; threads <= 3; ++threads) {
    sim::ShardRunner runner(3, SimTime::millis(10), threads);
    std::array<std::int64_t, 3> clocks{};
    int barriers = 0;
    sim::ShardRunner::Callbacks callbacks;
    // Every shard always has an event 1 ms after its clock: windows end at
    // 10, 20, 30, ... and shard 2 fails in the third.
    callbacks.next_event_time = [&](int shard) {
      return std::optional<SimTime>(
          SimTime::millis(clocks[static_cast<std::size_t>(shard)] + 1));
    };
    callbacks.run_to = [&](int shard, SimTime t) {
      if (shard == 2 && t >= SimTime::millis(30)) {
        throw util::ContractViolation("shard 2 failed");
      }
      clocks[static_cast<std::size_t>(shard)] = t.as_millis();
    };
    callbacks.at_barrier = [&](SimTime) { ++barriers; };
    EXPECT_THROW(runner.run(SimTime::millis(100), callbacks),
                 util::ContractViolation)
        << threads << " threads";
    // The failed window never reaches its serial step.
    EXPECT_EQ(barriers, 2) << threads << " threads";
  }
}

TEST(ShardRunner, RejectsANonPositiveFusionFactor) {
  EXPECT_THROW(sim::ShardRunner(1, SimTime::millis(10), 1, 0),
               util::ContractViolation);
  EXPECT_THROW(sim::ShardRunner(1, SimTime::millis(10), 1, -4),
               util::ContractViolation);
}

// The conservative guarantee the fusion layer must never break: if a
// window is stretched past a cross-shard envelope's due tick (the
// destination simulator runs beyond deliver_at before the barrier), the
// exchange detects the violation and aborts instead of delivering late.
TEST(ShardRouter, ExchangeThrowsWhenAWindowStretchedPastADueCrossShardTick) {
  std::vector<std::unique_ptr<sim::Simulator>> simulators;
  simulators.push_back(std::make_unique<sim::Simulator>());
  simulators.push_back(std::make_unique<sim::Simulator>());
  IntRouter router(2, SimTime::millis(10));
  router.bind(0, *simulators[0], nullptr, [](void*, const IntRouter::Envelope&) {});
  router.bind(1, *simulators[1], nullptr, [](void*, const IntRouter::Envelope&) {});
  IntRouter::Envelope envelope;
  envelope.from = 1;  // shard 1 -> shard 0, due at tick 10
  envelope.to = 0;
  envelope.sent_at = 0;
  envelope.deliver_at = 10;
  router.send(1, std::move(envelope));
  // A correct runner would barrier at tick <= 9. Stretch the destination
  // past the due tick instead — an over-wide fused window.
  simulators[0]->run_until(SimTime::millis(10));
  simulators[1]->run_until(SimTime::millis(10));
  EXPECT_THROW(router.exchange(), util::ContractViolation);
}

// ---------- ShardedSystem: the any-shard-count parity contract ----------

engine::ShardedConfig small_sharded_config(int shards, int threads = 1) {
  engine::ShardedConfig config;
  config.population.seeds = 8;
  config.population.requesters = 400;
  config.pattern = workload::ArrivalPattern::kRampUpDown;
  config.arrival_window = SimTime::minutes(30);
  config.horizon = SimTime::hours(2);
  config.session_duration = SimTime::minutes(10);
  config.latency = net::LatencyModel::of(net::LatencyModelKind::kUniform);
  config.loss = 0.02;
  config.shards = shards;
  config.threads = threads;
  config.seed = 77;
  return config;
}

/// Every partition-invariant field of a ShardedResult, flattened — two
/// runs agree iff their fingerprints are string-equal (mechanics fields
/// are deliberately excluded; they are allowed to vary with partitioning).
std::string fingerprint(const engine::ShardedResult& result) {
  std::ostringstream os;
  const auto totals = [&os](const engine::ShardedClassTotals& t) {
    os << t.first_requests << ',' << t.attempts << ',' << t.admissions << ','
       << t.rejections << ',' << t.delay_dt_sum << ','
       << t.rejections_at_admission_sum << ',' << t.waiting_ms_sum << ';';
  };
  totals(result.overall);
  for (const auto& t : result.totals) totals(t);
  for (const auto& sample : result.hourly) {
    os << sample.t.as_millis() << ':' << sample.capacity_units << ':'
       << sample.active_sessions << ':' << sample.suppliers << ';';
  }
  os << result.final_capacity << '|' << result.max_capacity << '|'
     << result.suppliers_at_end << '|' << result.sessions_completed << '|'
     << result.sessions_active_at_end << '|' << result.hold_expirations << '|'
     << result.watchdog_recoveries << '|' << result.messages_sent << '|'
     << result.messages_delivered << '|' << result.messages_dropped;
  return os.str();
}

TEST(ShardedSystem, SmallLossyRunExercisesTheWholeProtocol) {
  engine::ShardedSystem system(small_sharded_config(4));
  const auto result = system.run();
  EXPECT_GT(result.overall.first_requests, 0);
  EXPECT_GT(result.overall.admissions, 0);
  EXPECT_GT(result.sessions_completed, 0);
  EXPECT_GT(result.messages_sent, 0u);
  EXPECT_GT(result.messages_dropped, 0u);  // loss = 0.02
  EXPECT_LE(result.messages_delivered + result.messages_dropped,
            result.messages_sent);
  EXPECT_GT(result.final_capacity, 0);
  EXPECT_LE(result.final_capacity, result.max_capacity);
  ASSERT_FALSE(result.hourly.empty());
  EXPECT_EQ(result.hourly.front().t, SimTime::zero());
  EXPECT_EQ(result.per_shard.size(), 4u);
  EXPECT_GT(result.windows, 0);
  EXPECT_GT(result.cross_shard_messages, 0u);
  EXPECT_GT(result.peak_rss_bytes, 0);
}

// The cold-state pools must actually pool: in a draw-free send regime
// (zero loss, deterministic latency) admitted peers release their RNG
// slots, finished attempts release their reply buffers, and drained
// delivery groups recycle — so steady-state reuses dominate allocations,
// which stay proportional to *concurrent* activity, not population.
TEST(ShardedSystem, ColdStatePoolsRecycleInSteadyState) {
  auto config = small_sharded_config(3);
  config.loss = 0.0;
  config.latency = net::LatencyModel::of(net::LatencyModelKind::kFixed);
  const std::int64_t requesters = config.population.requesters;
  engine::ShardedSystem system(std::move(config));
  const auto result = system.run();
  EXPECT_GT(result.overall.admissions, 0);
  EXPECT_GT(result.pool_allocations, 0u);
  EXPECT_GT(result.pool_reuses, result.pool_allocations);
  // Draw-free sends demote rejected requesters' streams to a draw count
  // between attempts, so live pool slots track concurrent activity, not
  // the population: allocations must stay well below one per requester.
  EXPECT_LT(result.pool_allocations,
            static_cast<std::uint64_t>(requesters) / 2);
}

TEST(ShardedSystem, ResultIsIdenticalForAnyShardCount) {
  engine::ShardedSystem baseline(small_sharded_config(1));
  const std::string reference = fingerprint(baseline.run());
  for (const int shards : {2, 4, 7}) {
    engine::ShardedSystem system(small_sharded_config(shards));
    EXPECT_EQ(fingerprint(system.run()), reference) << shards << " shards";
  }
}

TEST(ShardedSystem, ResultIsIdenticalForAnyThreadCount) {
  engine::ShardedSystem serial(small_sharded_config(4, /*threads=*/1));
  engine::ShardedSystem pooled(small_sharded_config(4, /*threads=*/3));
  EXPECT_EQ(fingerprint(serial.run()), fingerprint(pooled.run()));
}

/// Every mechanics field of a ShardedResult except peak_rss_bytes, which
/// measures the process rather than the run.
std::string mechanics_fingerprint(const engine::ShardedResult& result) {
  std::ostringstream os;
  os << result.cross_shard_messages << '|' << result.pool_allocations << '|'
     << result.pool_reuses << '|' << result.windows << '|'
     << result.windows_fused << '|' << result.windows_idle_skipped << '|'
     << result.directory_flushes << '|' << result.lookahead_avg_ms << '|';
  for (const engine::ShardMechanics& shard : result.per_shard) {
    os << shard.events_executed << ',' << shard.peak_event_list << ','
       << shard.messages_sent << ';';
  }
  return os.str();
}

// For a fixed shard count the mechanics counters are a property of the
// run, not of the thread schedule: shared router counters that workers
// raced on would show up here as drift.
TEST(ShardedSystem, MechanicsAreIdenticalForAnyThreadCount) {
  const auto config = [](int threads) {
    auto config = small_sharded_config(4, threads);
    config.population.requesters = 4000;
    return config;
  };
  engine::ShardedSystem serial(config(1));
  const engine::ShardedResult reference = serial.run();
  EXPECT_GT(reference.cross_shard_messages, 10'000u);
  for (const int threads : {2, 4}) {
    engine::ShardedSystem threaded(config(threads));
    EXPECT_EQ(mechanics_fingerprint(threaded.run()),
              mechanics_fingerprint(reference))
        << threads << " threads";
  }
}

TEST(ShardedSystem, ResultIsIdenticalAcrossEventListBackends) {
  auto on_heap = small_sharded_config(3);
  on_heap.event_list = sim::EventListKind::kBinaryHeap;
  auto on_calendar = small_sharded_config(3);
  on_calendar.event_list = sim::EventListKind::kCalendarQueue;
  engine::ShardedSystem heap_system(std::move(on_heap));
  engine::ShardedSystem calendar_system(std::move(on_calendar));
  EXPECT_EQ(fingerprint(heap_system.run()), fingerprint(calendar_system.run()));
}

TEST(ShardedSystem, ConfigValidationCatchesUnsafeParameters) {
  {
    auto config = small_sharded_config(2);
    config.response_timeout = SimTime::millis(100);  // < 2 * max_latency
    EXPECT_THROW(engine::ShardedSystem{std::move(config)},
                 util::ContractViolation);
  }
  {
    auto config = small_sharded_config(2);
    config.hold_timeout = config.response_timeout;  // no commit headroom
    EXPECT_THROW(engine::ShardedSystem{std::move(config)},
                 util::ContractViolation);
  }
  {
    auto config = small_sharded_config(0);  // at least one shard
    EXPECT_THROW(engine::ShardedSystem{std::move(config)},
                 util::ContractViolation);
  }
}

// ---------- sharded scenarios: whole-payload byte parity ----------

TEST(ShardedScenarios, PayloadIsByteIdenticalForAnyShardsAndThreads) {
  scenario::ScenarioOptions base;
  base.seed = 2002;
  base.scale = 500;  // keep the populations small and fast
  for (const char* name :
       {"msg_fig5_sharded", "perf_sharded_scale", "perf_sharded_10m"}) {
    std::string reference;
    for (const int shards : {1, 2, 5}) {
      scenario::ScenarioOptions options = base;
      options.shards = shards;
      options.shard_threads = shards == 5 ? 2 : 1;
      const std::string run = scenario::run_scenario(name, options).dump();
      if (reference.empty()) {
        reference = run;
      } else {
        EXPECT_EQ(reference, run) << name << " with " << shards << " shards";
      }
    }
    EXPECT_FALSE(reference.empty());
  }
}

// The adaptive-lookahead contract (docs/sharding.md): the fusion factor
// is byte-invisible across every shard count and both event-list
// backends — randomized-ish differential over the fig5 workload.
TEST(ShardedScenarios, PayloadIsByteIdenticalForAnyFusionShardsAndBackend) {
  scenario::ScenarioOptions base;
  base.seed = 2002;
  base.scale = 500;
  std::string reference;
  for (const int shards : {1, 4, 8}) {
    for (const auto backend : {sim::EventListKind::kBinaryHeap,
                               sim::EventListKind::kCalendarQueue}) {
      for (const std::optional<int> fusion : {std::optional<int>{1},
                                              std::optional<int>{},
                                              std::optional<int>{32}}) {
        scenario::ScenarioOptions options = base;
        options.shards = shards;
        options.event_list = backend;
        options.fusion = fusion;  // 1 = unfused reference, unset = default
        const std::string run =
            scenario::run_scenario("msg_fig5_sharded", options).dump();
        if (reference.empty()) {
          reference = run;
        } else {
          EXPECT_EQ(reference, run)
              << shards << " shards, backend "
              << static_cast<int>(backend) << ", fusion "
              << (fusion ? *fusion : -1);
        }
      }
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ShardedScenarios, MechanicsBlockAppearsOnlyBehindTheFlag) {
  scenario::ScenarioOptions options;
  options.seed = 3;
  options.scale = 2000;
  options.shards = 3;
  const std::string plain =
      scenario::run_scenario("msg_fig5_sharded", options).dump();
  EXPECT_EQ(plain.find("\"mechanics\""), std::string::npos);
  EXPECT_EQ(plain.find("\"peak_rss_bytes\""), std::string::npos);
  options.mechanics = true;
  const std::string with_mechanics =
      scenario::run_scenario("msg_fig5_sharded", options).dump();
  EXPECT_NE(with_mechanics.find("\"mechanics\""), std::string::npos);
  EXPECT_NE(with_mechanics.find("\"shards\":3"), std::string::npos);
  EXPECT_NE(with_mechanics.find("\"peak_rss_bytes\""), std::string::npos);
  EXPECT_NE(with_mechanics.find("\"per_shard\""), std::string::npos);
  // The memory-campaign counters ride the same gate.
  for (const char* key : {"\"bytes_per_peer\"", "\"pool_allocations\"",
                          "\"pool_reuses\"", "\"windows_idle_skipped\""}) {
    EXPECT_EQ(plain.find(key), std::string::npos) << key;
    EXPECT_NE(with_mechanics.find(key), std::string::npos) << key;
  }
}

// ---------- golden output pins ----------

/// FNV-1a over the full scenario payload dump — one 64-bit fingerprint
/// per pinned workload.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Full-payload hashes captured from the engine BEFORE the compact
// peer-state rewrite (hot/cold SoA split, lazy RNG hydration, RetryHeap,
// tick-ring router, dense Chord ring). Any drift here means one of those
// memory optimizations changed simulated behaviour — which the whole
// campaign promises never to do. The third pin exercises the loss path
// (per-message bernoulli draws) and a non-default shard count.
TEST(ShardedScenarios, GoldenOutputHashesMatchThePreCompactionEngine) {
  {
    scenario::ScenarioOptions options;
    options.seed = 2002;
    options.scale = 10;
    EXPECT_EQ(fnv1a(scenario::run_scenario("msg_fig5_sharded", options).dump()),
              0xc124306815bb08dbull);
  }
  {
    scenario::ScenarioOptions options;
    options.seed = 2002;
    options.scale = 500;
    EXPECT_EQ(
        fnv1a(scenario::run_scenario("perf_sharded_scale", options).dump()),
        0x4bf13ca4a549b0fbull);
  }
  {
    scenario::ScenarioOptions options;
    options.seed = 7;
    options.scale = 25;
    options.shards = 3;
    options.loss = 0.05;
    EXPECT_EQ(fnv1a(scenario::run_scenario("msg_fig5_sharded", options).dump()),
              0x6bfe660c7d8b970aull);
  }
  // The unfused reference mode hits the very same pre-fusion hash — window
  // fusion is byte-invisible even against the golden pins.
  {
    scenario::ScenarioOptions options;
    options.seed = 2002;
    options.scale = 10;
    options.fusion = 1;
    EXPECT_EQ(fnv1a(scenario::run_scenario("msg_fig5_sharded", options).dump()),
              0xc124306815bb08dbull);
  }
}

}  // namespace
}  // namespace p2ps
