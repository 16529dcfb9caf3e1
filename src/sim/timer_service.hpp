// Timer subsystem: one handle-based API over a hierarchical timing wheel.
//
// The engines' timers are per-supplier idle elevation timers (the paper's
// T_out) plus the message-level engine's grant holds and session
// watchdogs: tens of thousands armed at once at paper scale. One simulator
// event per armed timer would put that whole population on the event list.
// The wheel (64-slot levels, one occupancy bitmap per level) makes arm and
// cancel O(1), and the simulator carries ONE "next wheel tick"
// notification event per non-empty horizon instead of one event per timer.
//
// Ordering contract (argued in full in docs/timers.md):
//   1. due timers always fire in (deadline, arm-seq) order;
//   2. every engine event handler calls poll() on entry. The notification
//      event for instant T can sit behind other events at T in the event
//      list, so without the poll a handler at T could observe a timer
//      whose deadline has passed (pending() already false) with its
//      callback not yet run. Polling on entry makes the protocol state a
//      handler reads a pure function of simulated time;
//   3. timer callbacks are "message-silent": they mutate engine state and
//      may re-arm timers, but must not send transport messages, schedule
//      non-timer simulator events, or read Simulator::now(). They receive
//      their own deadline instead, so a firing delivered by a handler's
//      poll() runs exactly like one delivered by the notification event.
// Timers whose firing must emit messages (the async engine's response
// timeout) deliberately stay plain simulator events.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"
#include "util/strong_id.hpp"

namespace p2ps::sim {

/// Carries no settings: the wheel is the only timer structure. Kept so
/// that callers passing `TimerConfig{}` (perfbench/layers.cpp) still
/// compile.
struct TimerConfig {};

struct TimerIdTag {};

/// Generation-tagged timer handle, exactly like sim::EventId: low 32 bits
/// address a slab slot, high 32 bits carry the slot's generation at arm
/// time, so a stale id can never alias a newer timer reusing the slot.
using TimerId = util::StrongId<TimerIdTag>;

class TimerService {
 public:
  /// Fired with the timer's own deadline (which a handler's poll() may
  /// reach after other events at that instant — never read now() here).
  using Callback = std::function<void(util::SimTime deadline)>;

  /// Ties the service to `simulator`, which must outlive it.
  explicit TimerService(Simulator& simulator, TimerConfig = {});
  ~TimerService();
  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// The simulator clock, for callers that anchor deadlines without
  /// holding the simulator themselves.
  [[nodiscard]] util::SimTime now() const { return simulator_.now(); }

  /// Arms a one-shot timer at absolute `deadline`. The callback is
  /// consumed on firing; cancel() or rearm_at() before then to keep it.
  /// A deadline at or before now is legal and means "already due": the
  /// timer fires at the next poll (immediately, when armed from inside a
  /// firing callback) carrying its own logical deadline — this is how
  /// deadline-anchored timer chains catch up after a quiet stretch.
  TimerId arm_at(util::SimTime deadline, Callback cb);

  /// Arms a one-shot timer `delay` (>= 0) after now.
  TimerId arm_after(util::SimTime delay, Callback cb);

  /// Moves a pending timer to a new deadline, keeping its id and callback
  /// (the cheap path for the idle-elevation rearm-on-every-request
  /// pattern). Returns false when the id is stale (fired/cancelled).
  bool rearm_at(TimerId id, util::SimTime deadline);

  /// Cancels a pending timer. Returns true if it was still pending. Safe on
  /// stale ids.
  bool cancel(TimerId id);

  /// True while the timer is armed with a deadline in the future.
  /// Deadline-aware: a timer whose deadline has been reached counts as
  /// fired even if its callback has not run yet — the poll-on-entry
  /// discipline guarantees the callback runs before any engine read that
  /// could tell the difference.
  [[nodiscard]] bool pending(TimerId id) const;

  /// Fires every timer with deadline <= now, in (deadline, arm-seq) order.
  /// Engines call this on entry to every event handler; the wheel's
  /// notification event funnels into the same call. Cheap when nothing is
  /// due: one comparison.
  void poll() {
    if (next_due_ > simulator_.now()) return;
    dispatch();
  }

  /// Timers currently armed.
  [[nodiscard]] std::size_t armed() const { return armed_; }
  /// Timers fired over the service's lifetime.
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  /// Timer-tagged simulator events scheduled by this service: the wheel's
  /// notification events.
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return events_scheduled_;
  }

 private:
  struct Slot {
    Callback cb;
    util::SimTime deadline = util::SimTime::zero();
    std::uint64_t seq = 0;  ///< bumped on every arm/rearm; keys staleness
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool armed = false;
  };

  /// One reference to a (possibly stale) timer inside a wheel slot, the due
  /// heap or a scratch list; authoritative iff the slab slot still carries
  /// `seq`.
  struct Entry {
    util::SimTime deadline;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // Hierarchical wheel geometry: 64-slot levels of width 64^k ms, one
  // 64-bit occupancy bitmap per level. Five levels span ~12.4 simulated
  // days; rarer deadlines go to the overflow list.
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 64;
  static constexpr int kLevels = 5;
  [[nodiscard]] static constexpr std::int64_t level_width(int level) {
    return std::int64_t{1} << (kSlotBits * level);
  }
  [[nodiscard]] static constexpr std::int64_t level_span(int level) {
    return std::int64_t{1} << (kSlotBits * (level + 1));
  }

  static TimerId pack(std::uint32_t slot, std::uint32_t generation) {
    return TimerId{(static_cast<std::uint64_t>(generation) << 32) | slot};
  }
  static std::uint32_t slot_of(TimerId id) {
    return static_cast<std::uint32_t>(id.value());
  }
  static std::uint32_t generation_of(TimerId id) {
    return static_cast<std::uint32_t>(id.value() >> 32);
  }

  [[nodiscard]] Slot* live_slot(TimerId id);
  [[nodiscard]] const Slot* live_slot(TimerId id) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Files an armed slot into the wheel (or the running drain) and
  /// maintains next_due_.
  void index_timer(std::uint32_t slot_index);
  /// Fires every due timer; loops until nothing with deadline <= now
  /// remains (callbacks may arm new timers).
  void dispatch();
  /// Recomputes next_due_ (a lower bound on the earliest live deadline)
  /// and re-arms the notification event when needed.
  void refresh_notification();

  // -- wheel internals --
  void wheel_file(const Entry& entry);
  /// Moves every live entry with deadline <= now into `out` (unsorted;
  /// stale entries already dropped).
  void wheel_collect_due(std::int64_t now_ms, std::vector<Entry>& out);
  /// Refiles every live entry of `from` into the wheel (stale ones drop),
  /// handing the vector's capacity back when it ends up empty.
  void wheel_refile_live(std::vector<Entry>& from);
  /// Moves the entries of wheel level `level`, slot `slot` down one level
  /// (dropping stale ones), clearing its occupancy bit.
  void wheel_cascade(int level, int slot);
  /// Advances the cursor to `t`, cascading any slot window the move enters
  /// mid-window (the scans assume entered windows were cascaded at entry).
  void wheel_advance_to(std::int64_t t);
  /// Runs every cascade owed when wheel time reaches `t` (a multiple of 64).
  void wheel_cascade_at(std::int64_t t);
  /// Next instant >= wheel_time_ at which a filed entry can surface: the
  /// first occupied slot start past the cursor (exact for level 0), a
  /// rotation boundary owed to wrapped bits, or the overflow refile
  /// boundary; max() when the wheel is empty. Shared by the due-collect
  /// jump and the notification hint so the two walks cannot diverge.
  [[nodiscard]] std::int64_t wheel_next_surfacing() const;
  /// wheel_next_surfacing() combined with any immediately-due arms — the
  /// lower bound the notification event is scheduled at.
  [[nodiscard]] std::int64_t wheel_next_due_hint() const;

  [[nodiscard]] bool entry_live(const Entry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return slot.armed && slot.seq == entry.seq;
  }

  Simulator& simulator_;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t armed_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t events_scheduled_ = 0;

  /// Lower bound on the earliest live deadline (max() when none): the
  /// poll() fast path.
  util::SimTime next_due_ = util::SimTime::max();

  // Per-level slot lists + occupancy bitmaps. wheel_time_ is the
  // instant up to which dues have been collected (entries with deadline <
  // wheel_time_ are gone); due_now_ catches arms at the current instant.
  std::vector<std::vector<Entry>> wheel_;  // kLevels * kSlots, flattened
  std::uint64_t bitmap_[kLevels] = {};
  std::int64_t wheel_time_ = 0;
  std::vector<Entry> overflow_;
  std::vector<Entry> due_now_;

  // The one notification event, kept at next_due_ while timers are armed.
  EventId notify_event_ = EventId::invalid();
  util::SimTime notify_time_ = util::SimTime::max();

  std::vector<Entry> scratch_;  ///< due-collection buffer (reused)
  /// Due set under dispatch, drained in (deadline, seq) order. Callbacks
  /// that arm already-due timers (deadline-anchored chain catch-up) feed
  /// them straight in here, so they still fire in global deadline order.
  std::priority_queue<Entry, std::vector<Entry>, Later> due_heap_;
  bool dispatching_ = false;
  util::SimTime dispatch_now_ = util::SimTime::zero();
};

}  // namespace p2ps::sim
