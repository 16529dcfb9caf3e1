// Cross-shard envelope transport for the conservative-parallel runner.
//
// The MailboxRouter idea lifted one level up: instead of batching messages
// per (destination peer, tick) inside one simulator, the ShardRouter
// batches envelopes per (destination *shard*, delivery tick) across N
// simulators stepping in lockstep windows (sim/shard_runner.hpp). Peers
// are assigned round-robin — shard_of(p) = p mod N — so seed peers and
// arrival indices spread evenly for every shard count.
//
// Determinism contract (docs/sharding.md carries the full argument):
//   * Lookahead. Every envelope must satisfy deliver_at - sent_at >=
//     `window` (the minimum latency of the active latency model). A send
//     below the lookahead is a hard contract violation — it would have to
//     be delivered inside the window that produced it, which the barrier
//     protocol cannot do, so it aborts rather than silently reorders.
//   * Canonical drain order. All envelopes delivered on one (shard, tick)
//     drain through ONE pooled event, sorted by (to, sent_at, from, seq)
//     with seq a per-*sender* counter. Every component of that key is a
//     property of the traffic itself, never of the partitioning — unlike
//     arrival order into the batch (local sends append at send time,
//     remote sends at the destination's next pull), which is why the
//     batch is sorted rather than drained FIFO. Merged output is
//     therefore byte-identical for any shard count.
//   * Destination pull. Cross-shard envelopes accumulate in per-(source,
//     destination) outbox rows during a window. The rows are double-
//     buffered by window parity: while window k writes one set, each
//     destination shard pulls its own rows of the other set (written in
//     window k-1) on the thread about to step it — so the exchange is
//     parallel and off the serial barrier step. A destination pulls its
//     sources in ascending order, which is exactly the per-destination
//     enqueue order a serial source-major sweep produces; delivery groups,
//     drain events and pool traffic are therefore identical for any
//     thread count. seal_window() flips the parity in the serial step, and
//     earliest_sent() lets the next-window reduction see a window's
//     earliest cross-shard delivery before anyone has pulled it.
//
// Steady state is allocation-free: delivery groups come off a free list
// (entry vectors keep their capacity across reuse), outbox rows keep
// theirs, and the tick -> group index is an open-addressed power-of-two
// ring rather than a hash map. The ring works because live delivery ticks
// always span less than the model's maximum latency: two distinct ticks
// t1 != t2 with |t1 - t2| < ring size cannot share tick mod ring size, so
// once the ring outgrows the live span every live tick owns its slot
// uniquely. On a collision the ring doubles and every live group rehashes
// — a handful of doublings early in a run, then never again.
//
// Thread-safety: during a window, the one thread running shard s may
// call send(s, ...) and pull(s). Both touch only shard s's Port — its
// write-parity outbox rows, its delivery groups and its counters — plus,
// for pull, the sealed-parity rows addressed to s in every other Port,
// which no one else touches until the next seal. Ports and outbox rows
// are padded to cache lines so neighbouring shards never share one.
// Counters live in the Ports and are summed on read. bind(),
// seal_window(), exchange() and the counter reads are serial-only
// (between windows).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::net {

template <typename Payload>
class ShardRouter {
 public:
  /// Compact wire format: ids and ticks are 32-bit on purpose. The engine
  /// validates every schedulable tick below 2^32 ms (~49.7 simulated days,
  /// ShardedConfig::validate) and peer ids are array indexes far below
  /// 2^32, while tens of millions of envelopes are copied
  /// outbox -> group -> drain per perf run — the 56 -> 40 byte shrink is a
  /// measured throughput win on exactly that path.
  struct Envelope {
    std::uint32_t from = 0;        ///< sender PeerId value
    std::uint32_t to = 0;          ///< destination PeerId value
    std::uint32_t sent_at = 0;     ///< send tick in ms (source sim's now)
    std::uint32_t deliver_at = 0;  ///< sent_at + engine-sampled latency, ms
    std::uint32_t seq = 0;         ///< per-sender send counter (partition-free)
    Payload payload;
  };
  /// Delivery handler: a raw function pointer plus an opaque context,
  /// NOT a std::function — the router invokes it once per delivered
  /// envelope (tens of millions per perf run), and the direct call
  /// through a pointer pair is measurably cheaper than std::function's
  /// double indirection. Capture state behind `context`.
  using Handler = void (*)(void* context, const Envelope& envelope);

  ShardRouter(int num_shards, util::SimTime window)
      : num_shards_(num_shards),
        window_(window),
        window_ms_(static_cast<std::uint64_t>(window.as_millis())),
        ports_(static_cast<std::size_t>(num_shards)) {
    P2PS_REQUIRE_MSG(num_shards_ >= 1, "ShardRouter needs at least one shard");
    P2PS_REQUIRE_MSG(window_ >= util::SimTime::millis(1),
                     "conservative lookahead must be at least one tick");
    for (Port& port : ports_) {
      for (auto& rows : port.outbox) rows.resize(static_cast<std::size_t>(num_shards_));
      port.ring.assign(kInitialRingSlots, kNoGroup);
    }
  }
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] int num_shards() const { return num_shards_; }
  [[nodiscard]] util::SimTime window() const { return window_; }

  /// Round-robin peer ownership: seeds (ids 0..S-1) and arrival indices
  /// spread evenly across shards for every shard count.
  [[nodiscard]] int shard_of(core::PeerId peer) const {
    return static_cast<int>(peer.value() % static_cast<std::uint64_t>(num_shards_));
  }
  [[nodiscard]] int shard_of(std::uint64_t peer_value) const {
    return static_cast<int>(peer_value % static_cast<std::uint64_t>(num_shards_));
  }

  /// Attaches shard `shard`'s simulator and delivery handler. Must be
  /// called exactly once per shard, before any send. `context` is handed
  /// back verbatim on every delivery (it may be null if the handler
  /// ignores it).
  void bind(int shard, sim::Simulator& simulator, void* context,
            Handler on_deliver) {
    Port& port = port_at(shard);
    P2PS_REQUIRE_MSG(port.simulator == nullptr, "shard bound twice");
    P2PS_REQUIRE(on_deliver != nullptr);
    port.simulator = &simulator;
    port.context = context;
    port.on_deliver = on_deliver;
  }

  /// Sends one envelope from shard `from_shard` (which must own
  /// envelope.from and whose simulator's now() must equal sent_at).
  /// Local deliveries join the source shard's own groups immediately;
  /// cross-shard deliveries park in the current window's outbox row until
  /// the destination pulls it (pull() after seal_window(), or exchange()).
  void send(int from_shard, Envelope envelope) {
    Port& source = port_at(from_shard);
    P2PS_REQUIRE_MSG(source.simulator != nullptr, "send before bind");
    P2PS_CHECK_MSG(shard_of(std::uint64_t{envelope.from}) == from_shard,
                   "envelope sent from a shard that does not own the sender");
    P2PS_CHECK_MSG(std::uint64_t{envelope.deliver_at} >=
                       std::uint64_t{envelope.sent_at} + window_ms_,
                   "lookahead violation: message latency below the shard "
                   "window width (see docs/sharding.md)");
    ++source.sent;
    const int to_shard = shard_of(std::uint64_t{envelope.to});
    if (to_shard == from_shard) {
      enqueue(source, std::move(envelope));
      return;
    }
    ++source.cross_shard;
    std::uint32_t& earliest = source.earliest[parity_];
    earliest = std::min(earliest, envelope.deliver_at);
    source.outbox[parity_][static_cast<std::size_t>(to_shard)].envelopes.push_back(
        std::move(envelope));
  }

  /// Serial step after every shard finished a window: the outbox rows
  /// written in it become the rows destinations pull before the next
  /// window, and the rows pulled during it (empty again) take the next
  /// window's sends.
  void seal_window() { parity_ ^= 1; }

  /// Earliest deliver_at among the cross-shard envelopes shard `source`
  /// sent since its last pull() (or the last exchange()); nullopt when it
  /// sent none. Read by the thread that just stepped `source`: none of
  /// these envelopes sits in a destination simulator yet, so the
  /// next-window reduction needs this next to every simulator's next
  /// event.
  [[nodiscard]] std::optional<util::SimTime> earliest_sent(int source) const {
    const std::uint32_t earliest = port_at(source).earliest[parity_];
    if (earliest == kNoTick) return std::nullopt;
    return util::SimTime::millis(earliest);
  }

  /// Opens shard `shard`'s window: moves the sealed window's envelopes
  /// addressed to it into its delivery groups, in ascending source order,
  /// and resets its earliest_sent(). Runs on the thread about to step
  /// the shard; its simulator must sit at the previous window end, which
  /// the lookahead puts strictly before every pulled delivery.
  void pull(int shard) {
    Port& destination = port_at(shard);
    destination.earliest[parity_] = kNoTick;
    const auto column = static_cast<std::size_t>(shard);
    const std::size_t sealed = parity_ ^ 1;
    for (Port& source : ports_) pull_row(source.outbox[sealed][column], destination);
  }

  /// Serial: pulls every destination now, from both outbox sets (sealed
  /// first, then the current one), so every envelope sent so far sits in
  /// its destination's delivery groups. Every destination simulator must
  /// already sit at or past the last send tick, which the lookahead
  /// guarantees is strictly before any batched delivery. Per destination
  /// the order is the same as pull()'s: ascending source.
  void exchange() {
    for (int shard = 0; shard < num_shards_; ++shard) {
      Port& destination = port_at(shard);
      for (const std::size_t parity : {parity_ ^ 1, parity_}) {
        for (Port& source : ports_) {
          pull_row(source.outbox[parity][static_cast<std::size_t>(shard)],
                   destination);
        }
      }
    }
    for (Port& port : ports_) port.earliest = {kNoTick, kNoTick};
  }

  /// Total envelopes accepted / envelopes that crossed a shard boundary.
  [[nodiscard]] std::uint64_t sent_total() const { return sum(&Port::sent); }
  [[nodiscard]] std::uint64_t cross_shard_total() const {
    return sum(&Port::cross_shard);
  }

  /// Delivery-group pool traffic: groups constructed fresh vs recycled off
  /// a free list (entry capacity kept). A healthy steady state reuses far
  /// more than it allocates.
  [[nodiscard]] std::uint64_t pool_allocations() const {
    return sum(&Port::pool_allocations);
  }
  [[nodiscard]] std::uint64_t pool_reuses() const { return sum(&Port::pool_reuses); }

  /// Delivery groups currently pending on one shard (tests/diagnostics).
  [[nodiscard]] std::size_t pending_groups(int shard) const {
    return port_at(shard).live_groups;
  }
  /// Current tick-ring capacity of one shard (tests/diagnostics).
  [[nodiscard]] std::size_t ring_slots(int shard) const {
    return port_at(shard).ring.size();
  }

 private:
  /// One per-(shard, tick) delivery batch behind one pooled drain event.
  struct Group {
    std::vector<Envelope> entries;
    std::int64_t tick_ms = 0;
    std::uint32_t next_free = kNoGroup;
  };

  /// One (source, destination) outbox row. Padded: destinations clear
  /// their rows of one source concurrently.
  struct alignas(64) OutboxRow {
    std::vector<Envelope> envelopes;
  };

  /// Everything one shard owns, padded so no two shards share a line.
  struct alignas(64) Port {
    /// Pending cross-shard envelopes by window parity, one row per
    /// destination shard. The only Port member other shards' workers read
    /// (when they pull), so it keeps its cache line to itself.
    std::array<std::vector<OutboxRow>, 2> outbox;
    /// Everything below is touched by this shard's worker alone.
    alignas(64) sim::Simulator* simulator = nullptr;
    Handler on_deliver = nullptr;
    void* context = nullptr;
    /// Earliest deliver_at in each parity's rows (kNoTick when empty).
    std::array<std::uint32_t, 2> earliest{kNoTick, kNoTick};
    std::uint64_t sent = 0;         ///< envelopes this shard sent
    std::uint64_t cross_shard = 0;  ///< ...of which crossed a boundary
    std::uint64_t pool_allocations = 0;
    std::uint64_t pool_reuses = 0;
    /// Open-addressed tick -> group index: slot = tick mod ring size
    /// (power of two). Uniqueness holds because live ticks span less than
    /// the ring size (see file header); a collision doubles the ring.
    std::vector<std::uint32_t> ring;
    std::vector<Group> groups;
    std::uint32_t free_head = kNoGroup;
    std::size_t live_groups = 0;
    /// Drain scratch, swapped with a group's entries so reentrant sends
    /// from handlers can grow `groups` safely mid-drain.
    std::vector<Envelope> drain_scratch;
  };

  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoTick = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialRingSlots = 64;

  Port& port_at(int shard) {
    P2PS_REQUIRE(shard >= 0 && shard < num_shards_);
    return ports_[static_cast<std::size_t>(shard)];
  }
  const Port& port_at(int shard) const {
    P2PS_REQUIRE(shard >= 0 && shard < num_shards_);
    return ports_[static_cast<std::size_t>(shard)];
  }

  [[nodiscard]] std::uint64_t sum(std::uint64_t Port::*counter) const {
    std::uint64_t total = 0;
    for (const Port& port : ports_) total += port.*counter;
    return total;
  }

  /// Moves one outbox row into `destination`'s delivery groups, in send
  /// order, and clears it (capacity kept — the row is pooled).
  void pull_row(OutboxRow& row, Port& destination) {
    if (row.envelopes.empty()) return;
    for (Envelope& envelope : row.envelopes) {
      P2PS_CHECK_MSG(static_cast<std::int64_t>(envelope.deliver_at) >
                         destination.simulator->now().as_millis(),
                     "cross-shard envelope due before the barrier tick");
      enqueue(destination, std::move(envelope));
    }
    row.envelopes.clear();
  }

  [[nodiscard]] static std::size_t slot_of(const Port& port, std::int64_t tick_ms) {
    return static_cast<std::size_t>(tick_ms) & (port.ring.size() - 1);
  }

  /// Doubles the ring until every live group owns a unique slot. Each
  /// doubling is attempted whole; a collision mid-rehash just doubles
  /// again. Terminates because live ticks span less than the model's
  /// maximum latency: once the ring size exceeds that span, distinct live
  /// ticks cannot share tick mod ring size.
  void grow_ring(Port& port) {
    for (;;) {
      std::vector<std::uint32_t> next(port.ring.size() * 2, kNoGroup);
      bool clean = true;
      for (const std::uint32_t index : port.ring) {
        if (index == kNoGroup) continue;
        const std::size_t slot = static_cast<std::size_t>(port.groups[index].tick_ms) &
                                 (next.size() - 1);
        if (next[slot] != kNoGroup) {
          clean = false;
          break;
        }
        next[slot] = index;
      }
      port.ring.swap(next);
      if (clean) return;
    }
  }

  void enqueue(Port& port, Envelope envelope) {
    const std::int64_t tick_ms = envelope.deliver_at;
    std::size_t slot = slot_of(port, tick_ms);
    while (port.ring[slot] != kNoGroup &&
           port.groups[port.ring[slot]].tick_ms != tick_ms) {
      grow_ring(port);
      slot = slot_of(port, tick_ms);
    }
    std::uint32_t index = port.ring[slot];
    if (index == kNoGroup) {
      index = acquire_group(port, tick_ms);
      port.ring[slot] = index;
      ++port.live_groups;
      const int port_index = static_cast<int>(&port - ports_.data());
      port.simulator->schedule_at(
          util::SimTime::millis(tick_ms),
          [this, port_index, index] { drain(port_at(port_index), index); });
    }
    port.groups[index].entries.push_back(std::move(envelope));
  }

  std::uint32_t acquire_group(Port& port, std::int64_t tick_ms) {
    std::uint32_t index;
    if (port.free_head != kNoGroup) {
      index = port.free_head;
      port.free_head = port.groups[index].next_free;
      ++port.pool_reuses;
    } else {
      P2PS_CHECK_MSG(port.groups.size() < kNoGroup, "delivery group pool exhausted");
      port.groups.emplace_back();
      index = static_cast<std::uint32_t>(port.groups.size() - 1);
      ++port.pool_allocations;
    }
    port.groups[index].tick_ms = tick_ms;
    return index;
  }

  void drain(Port& port, std::uint32_t index) {
    Group& group = port.groups[index];
    const std::size_t slot = slot_of(port, group.tick_ms);
    P2PS_CHECK(port.ring[slot] == index);
    port.ring[slot] = kNoGroup;
    --port.live_groups;
    if (group.entries.size() == 1) {
      // Singleton fast path — the common case at scale (most delivery
      // ticks carry exactly one envelope): no sort, no scratch swap. The
      // envelope moves to the stack and the group is fully released
      // BEFORE the handler runs, because a reentrant send may grow
      // `groups` and invalidate the reference.
      Envelope envelope = std::move(group.entries.front());
      group.entries.clear();  // capacity kept — the group is pooled
      group.next_free = port.free_head;
      port.free_head = index;
      port.on_deliver(port.context, envelope);
      return;
    }
    P2PS_CHECK(port.drain_scratch.empty());
    port.drain_scratch.swap(group.entries);
    group.next_free = port.free_head;
    port.free_head = index;
    // The canonical (to, sent_at, from, seq) order: every key component is
    // a property of the traffic, not of the partitioning (docs/sharding.md).
    // The four u32 keys pack into two u64 compares — same lexicographic
    // order, roughly half the branches per comparison.
    std::sort(port.drain_scratch.begin(), port.drain_scratch.end(),
              [](const Envelope& a, const Envelope& b) {
                const std::uint64_t a_dst =
                    (std::uint64_t{a.to} << 32) | a.sent_at;
                const std::uint64_t b_dst =
                    (std::uint64_t{b.to} << 32) | b.sent_at;
                if (a_dst != b_dst) return a_dst < b_dst;
                const std::uint64_t a_src =
                    (std::uint64_t{a.from} << 32) | a.seq;
                const std::uint64_t b_src =
                    (std::uint64_t{b.from} << 32) | b.seq;
                return a_src < b_src;
              });
    for (const Envelope& envelope : port.drain_scratch) {
      port.on_deliver(port.context, envelope);
    }
    port.drain_scratch.clear();  // capacity kept — the scratch is pooled
  }

  int num_shards_;
  util::SimTime window_;
  std::uint64_t window_ms_;
  std::vector<Port> ports_;
  std::size_t parity_ = 0;  ///< outbox set written this window; serial writes only
};

}  // namespace p2ps::net
