// Discrete-event simulation core.
//
// This is the substrate on which the whole reproduction runs: peers,
// sessions, timers and (in the message-level engine) network deliveries are
// all events on one totally-ordered timeline. Determinism guarantees:
//   * events fire in nondecreasing time order;
//   * events scheduled for the same instant fire in FIFO scheduling order;
//   * cancellation is O(1) and safe from inside callbacks.
//
// The engine is allocation-free on the hot path: pending callbacks live in
// a slab with an intrusive free list (no per-event heap allocation for
// small callbacks, no hashing), addressed by generation-tagged EventIds so
// schedule / cancel / pending are all O(1). The event list itself is
// pluggable — a binary heap by default, or the Brown-1988 calendar queue
// for very large event populations — with identical ordering semantics
// either way (see sim/event_list.hpp).
//
// Delivery feed. A simulator may carry at most one attached Feed: an
// outside queue of work keyed by tick (the sharded engine's ShardRouter
// port) that the run loops merge with the event list without one event
// per tick. The tie rule is fixed: at tick t, every event due at t fires
// first (including zero-delay events those events schedule), then the
// feed drains its tick t, then the events its handlers scheduled at t.
// Feed ticks are not events: executed_count(), pending_count() and
// peak_pending_count() never count them. A simulator with no feed pays one
// predictable null check per event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event_list.hpp"
#include "sim/inplace_function.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"
#include "util/strong_id.hpp"

namespace p2ps::sim {

struct EventIdTag {};

/// Generation-tagged event handle: the low 32 bits address a slab slot, the
/// high 32 bits carry that slot's generation at scheduling time. The
/// generation bumps every time a slot is released (fire, cancel, clear), so
/// a stale id can never alias a newer event occupying the same slot.
using EventId = util::StrongId<EventIdTag>;

/// Single-threaded discrete-event simulator with a virtual clock.
class Simulator {
 public:
  using Callback = InplaceCallback;

  /// A delivery feed: two raw function pointers and their context (the
  /// ShardRouter::Handler idiom — no std::function on a per-tick path).
  /// `next_due` returns the earliest tick the feed holds work for, or
  /// SimTime::max() when it holds none; it must never report a tick before
  /// now(). `drain` consumes all of that tick's work; it runs with now()
  /// set to the tick and may schedule events and feed more work, but only
  /// at later ticks of the feed.
  struct Feed {
    util::SimTime (*next_due)(void* context) = nullptr;
    void (*drain)(void* context, util::SimTime tick) = nullptr;
    void* context = nullptr;
  };

  explicit Simulator(EventListKind event_list = EventListKind::kBinaryHeap);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Which event-list backend this simulator runs on.
  [[nodiscard]] EventListKind event_list_kind() const { return queue_->kind(); }

  /// Current simulated time. Starts at zero.
  [[nodiscard]] util::SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must not be in the past).
  EventId schedule_at(util::SimTime t, Callback cb);

  /// Schedules `cb` after `delay` (must be non-negative).
  EventId schedule_after(util::SimTime delay, Callback cb);

  /// schedule_at for events owned by the timer subsystem (TimerService
  /// dedicated events, wheel notifications, lazy sweep ticks). Identical
  /// semantics; the tag only feeds the timer/non-timer split of the
  /// pending-event accounting below.
  EventId schedule_timer_at(util::SimTime t, Callback cb);

  /// Attaches the simulator's one delivery feed (see the file header for
  /// the tie rule). It stays attached for the simulator's lifetime, across
  /// clear(), and must outlive every later run call.
  void attach_feed(const Feed& feed);

  /// Cancels a pending event. Returns true if the event was still pending.
  /// Safe to call with already-fired, already-cancelled or pre-clear() ids.
  bool cancel(EventId id);

  /// Returns true if the event is still pending.
  [[nodiscard]] bool pending(EventId id) const;

  /// Number of pending (non-cancelled) events. Feed work is not counted.
  [[nodiscard]] std::size_t pending_count() const { return live_; }

  /// Largest pending_count() ever reached over the simulator's lifetime
  /// (not reset by clear()). The headline lazy-arrival metric: the eager
  /// arrival build made this ~population-sized at t=0.
  [[nodiscard]] std::size_t peak_pending_count() const { return peak_live_; }

  /// How many of the events pending at the peak_pending_count() instant
  /// were timer-tagged (schedule_timer_at) — the timer vs non-timer split
  /// of the peak (the timer wheel keeps at most one per TimerService).
  [[nodiscard]] std::size_t peak_pending_timers() const {
    return peak_live_timers_;
  }

  /// Executes the next event or drains the feed's next tick, whichever
  /// the tie rule puts first. Returns false when neither remains.
  bool step();

  /// Runs until no events and no feed work remain (or `max_events` events
  /// fired). Returns the number of events executed; feed ticks drained on
  /// the way are not counted.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events and feed ticks with time <= `t`, then advances the
  /// clock to exactly `t`. Returns the number of events executed.
  std::size_t run_until(util::SimTime t);

  /// Earliest time at which an event fires or the feed drains, or nullopt
  /// when neither remains. Exact on both backends: cancelled residue is
  /// popped and discarded until a live entry surfaces, which is then
  /// *staged* in a one-entry buffer in front of the backend — not pushed
  /// back — so the conservative-lookahead probe the shard runner issues
  /// once per shard per window (sim/shard_runner.hpp) costs zero backend
  /// operations when repeated, and run_until's beyond-horizon stop costs
  /// no re-push.
  [[nodiscard]] std::optional<util::SimTime> next_event_time();

  /// Total events executed over the simulator's lifetime (feed ticks are
  /// not events).
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }

  /// Drops all pending events without executing them and resets the event
  /// list (including any backend dequeue-cursor state). Every EventId
  /// issued before clear() is invalidated: cancel() and pending() on such
  /// ids safely return false. The clock, executed_count() and the feed
  /// (with whatever work it holds) are kept.
  void clear();

 private:
  /// One slab slot: the callback of a pending event, or a free-list link.
  struct Slot {
    Callback cb;                     // engaged iff the slot holds a pending event
    std::uint32_t generation = 0;    // bumped on every release
    std::uint32_t next_free = kNoSlot;
    bool timer = false;              // scheduled via schedule_timer_at
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  static EventId pack(std::uint32_t slot, std::uint32_t generation) {
    return EventId{(static_cast<std::uint64_t>(generation) << 32) | slot};
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id.value());
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id.value() >> 32);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Returns the least live entry without consuming it, staging it in
  /// `staged_` (skipping cancelled residue); nullptr when exhausted. The
  /// staging invariant: whenever `staged_` is engaged it compares <= every
  /// entry in `queue_`, so the staged entry IS the queue minimum and
  /// repeated peeks are backend-free.
  const CalendarEntry* peek_live();

  /// Fires `entry`, whose slot has already been verified live.
  void execute(const CalendarEntry& entry);

  EventId schedule_impl(util::SimTime t, Callback cb, bool timer);

  /// The feed's earliest due tick (SimTime::max() when it is empty or no
  /// feed is attached).
  [[nodiscard]] util::SimTime feed_due() const {
    return feed_.drain != nullptr ? feed_.next_due(feed_.context)
                                  : util::SimTime::max();
  }

  /// The tie rule, in its one place: the feed goes before the least live
  /// event `entry` only when its tick `due` is strictly earlier, so every
  /// event due at a tick fires before the feed drains that tick.
  static bool feed_goes_next(const CalendarEntry* entry, util::SimTime due) {
    return due != util::SimTime::max() && (entry == nullptr || due < entry->time);
  }

  /// Drains the feed's tick `due`, the earliest work left in the run.
  void drain_feed(util::SimTime due);

  util::SimTime now_ = util::SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t live_timers_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t peak_live_timers_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  /// One-entry stage in front of the backend (see peek_live). Lets the
  /// shard runner's per-window next_event_time probe and run_until's
  /// beyond-horizon stop avoid the pop-then-push round trip that used to
  /// dominate window mechanics at hundreds of thousands of windows.
  std::optional<CalendarEntry> staged_;
  std::unique_ptr<EventList> queue_;
  Feed feed_;  ///< drain == nullptr while no feed is attached
};

/// Self-rescheduling periodic callback, e.g. hourly metric sampling.
///
/// The callback fires first at `start`, then every `period` until `stop()`
/// is called or the simulator runs out of other events and `run_until`'s
/// horizon passes.
class Periodic {
 public:
  /// Ties the timer to `simulator`, which must outlive this object.
  Periodic(Simulator& simulator, util::SimTime start, util::SimTime period,
           std::function<void(util::SimTime)> on_tick);
  ~Periodic() { stop(); }
  Periodic(const Periodic&) = delete;
  Periodic& operator=(const Periodic&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm(util::SimTime at);

  Simulator& simulator_;
  util::SimTime period_;
  std::function<void(util::SimTime)> on_tick_;
  EventId current_ = EventId::invalid();
  bool running_ = true;
};

}  // namespace p2ps::sim
