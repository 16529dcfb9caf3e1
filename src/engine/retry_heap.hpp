// Lazy backoff-retry heap — the ArrivalSource trick applied to the
// rejection/backoff stream, and the only retry source: the session-level,
// message-level and sharded engines all park their waiting peers here.
//
// Every rejected requester waits out a backoff before its next attempt.
// Parking one simulator event per waiting peer would make the event list
// O(waiting population) — tens of thousands mid-ramp at paper scale. This
// heap keeps the due retries in an engine-local min-heap ordered by (due,
// insertion seq) and exposes them to the simulator through a single
// in-flight event, so the event list carries O(1) entries for the whole
// waiting population.
//
// Ordering: among retries, (due, seq) reproduces the simulator's own
// (time, FIFO) semantics exactly — seq is assigned at schedule() time just
// as the simulator assigns event seqs at schedule_after() time. Relative to
// *other* same-millisecond events the in-flight event's seq is its own
// (docs/lazy_arrivals.md); it is backend-independent, so heap/calendar
// byte-parity holds by construction.
//
// Entries are {u32 due_ms, u32 seq, u32 local} — 12 bytes per waiting peer
// — and retries due strictly after the horizon are dropped at schedule()
// time instead of being parked forever. Both compactions are
// byte-invisible:
//   * u32 millisecond deadlines: the constructor requires the horizon to
//     fit (below 2^32 ms ≈ 49.7 days), and every kept entry is due by it;
//     `local` is the caller's peer index, which each engine bounds below
//     2^32 when it validates its config;
//   * a beyond-horizon retry's armed event would never execute, and
//     skipping its schedule_at only skips simulator event seqs — the
//     relative order of all surviving events is unchanged, which is the
//     only thing (time, FIFO-by-seq) draining depends on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/sim_time.hpp"

namespace p2ps::engine {

class RetryHeap {
 public:
  using OnDue = std::function<void(std::uint32_t)>;

  /// One pending entry: 12 bytes (the static_assert below is part of the
  /// memory-campaign contract, docs/memory.md).
  struct Entry {
    std::uint32_t due_ms = 0;
    std::uint32_t seq = 0;  // FIFO tie-break, mirroring simulator seqs
    std::uint32_t local = 0;
  };
  static_assert(sizeof(Entry) == 12, "retry entries must stay 12 bytes");

  /// `on_due(local)` fires at the peer's retry time; retries due strictly
  /// after `horizon` are dropped (they could never fire — the runner stops
  /// at the horizon). The simulator must outlive this object.
  RetryHeap(sim::Simulator& simulator, util::SimTime horizon, OnDue on_due)
      : simulator_(simulator),
        horizon_ms_(horizon.as_millis()),
        on_due_(std::move(on_due)) {
    P2PS_REQUIRE(on_due_ != nullptr);
    P2PS_REQUIRE_MSG(horizon_ms_ >= 0 && horizon_ms_ < 0xFFFFFFFFll,
                     "retry deadlines are 32-bit milliseconds: the horizon "
                     "must be below 2^32 ms (~49.7 days)");
  }

  ~RetryHeap() {
    if (in_flight_.valid()) simulator_.cancel(in_flight_);
  }
  RetryHeap(const RetryHeap&) = delete;
  RetryHeap& operator=(const RetryHeap&) = delete;

  /// Schedules `local`'s retry after `delay` (non-negative, from now).
  void schedule(util::SimTime delay, std::uint32_t local) {
    P2PS_REQUIRE(delay >= util::SimTime::zero());
    const std::int64_t due_ms = simulator_.now().as_millis() + delay.as_millis();
    if (due_ms > horizon_ms_) {
      ++dropped_beyond_horizon_;
      return;
    }
    P2PS_CHECK_MSG(next_seq_ != 0xFFFFFFFFu, "retry seq overflow");
    const Entry entry{static_cast<std::uint32_t>(due_ms), next_seq_++, local};
    heap_push(entry);
    // Only a new earliest entry preempts the in-flight event; otherwise
    // the armed event still fires first and re-arms from the heap.
    if (heap_.front().seq == entry.seq) arm();
  }

  /// Peers currently waiting on an in-horizon retry.
  [[nodiscard]] std::size_t waiting() const { return heap_.size(); }
  /// Retries dropped because their backoff reached past the horizon.
  [[nodiscard]] std::uint64_t dropped_beyond_horizon() const {
    return dropped_beyond_horizon_;
  }

 private:
  // Flat 8-ary min-heap on (due_ms, seq) rather than std::priority_queue's
  // binary layout. Under admission collapse the waiting population — and
  // so this heap — reaches hundreds of thousands of entries, and every
  // retry pays one sift-down; a binary sift touches ~log2(N) ≈ 17
  // scattered cache lines where the 8-ary tree touches ~6 levels whose 8
  // children (96 bytes) sit in two adjacent lines. Pop order is the exact
  // (due, seq) order any min-heap yields (seq is unique — the order is
  // total), so the layout is byte-invisible.
  [[nodiscard]] static std::uint64_t key(const Entry& e) {
    return (static_cast<std::uint64_t>(e.due_ms) << 32) | e.seq;
  }

  void heap_push(const Entry& entry) {
    std::size_t hole = heap_.size();
    heap_.push_back(entry);
    const std::uint64_t k = key(entry);
    while (hole != 0) {
      const std::size_t parent = (hole - 1) / 8;
      if (k >= key(heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  void heap_pop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    const std::uint64_t k = key(last);
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * 8 + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + 8, n);
      std::size_t best = first;
      std::uint64_t best_key = key(heap_[first]);
      for (std::size_t child = first + 1; child < end; ++child) {
        const std::uint64_t child_key = key(heap_[child]);
        if (child_key < best_key) {
          best = child;
          best_key = child_key;
        }
      }
      if (best_key >= k) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }

  void arm() {
    if (in_flight_.valid()) simulator_.cancel(in_flight_);
    in_flight_ = simulator_.schedule_at(
        util::SimTime::millis(heap_.front().due_ms), [this] { fire(); });
  }

  void fire() {
    in_flight_ = sim::EventId::invalid();
    P2PS_CHECK(!heap_.empty());
    const Entry entry = heap_.front();
    heap_pop();
    // Re-arm before invoking — same-due retries fire back-to-back ahead of
    // whatever the handler schedules at this instant (the ArrivalSource
    // ordering argument).
    if (!heap_.empty()) arm();
    on_due_(entry.local);
  }

  sim::Simulator& simulator_;
  std::int64_t horizon_ms_;
  OnDue on_due_;
  std::vector<Entry> heap_;
  std::uint32_t next_seq_ = 0;
  std::uint64_t dropped_beyond_horizon_ = 0;
  sim::EventId in_flight_ = sim::EventId::invalid();
};

}  // namespace p2ps::engine
