// Lockstep window driver for conservative-parallel sharded simulation.
//
// N shards — each a whole sim::Simulator with its own event population —
// step together through half-open windows (t0, t1] whose end is
//
//     t1 = min(min_next + lookahead - 1, horizon)
//
// where min_next is the earliest pending event across all shards and
// `lookahead` is the minimum cross-peer message latency (classic
// conservative lookahead, Chandy–Misra style but with a global barrier
// instead of null messages). The -1 is load-bearing: Simulator::run_until
// is *inclusive* of its bound, and a message sent at the earliest possible
// tick min_next arrives no sooner than min_next + lookahead — strictly
// after t1 — so no envelope produced inside a window can be due inside it,
// and the next window's inbound pull (net/shard_router.hpp) always
// schedules into every destination shard's strict future.
// docs/sharding.md carries the full argument.
//
// Idle windows are skipped entirely (min_next jumps the window forward),
// so sparse phases cost one barrier per event cluster, not one per tick.
//
// Window fusion (`fusion > 1`) is dispatch accounting only: consecutive
// sub-windows are grouped into dispatches of up to `fusion`, which
// windows() / windows_fused() report. Every sub-window still recomputes
// min_next, applies the idle skip and passes through at_window_start /
// pull / run_to / at_barrier, so the executed sequence is identical for
// every fusion factor.
//
// Threading: `threads` workers (clamped to [1, num_shards]); the calling
// thread is worker 0, and the others are started by run(), never by the
// constructor. A sub-window costs ONE crossing of a spin-then-park
// barrier whose parties are the shards: a worker claims a shard, pulls and
// steps it, and marks it finished; whoever finishes the last shard runs
// the serial step (at_barrier, the next-window reduction over the
// per-shard next-event times recorded after each step, at_window_start)
// and opens the next sub-window. Each worker claims its own stripe
// {w, w + T, w + 2T, ...} first and then any shard still unclaimed, so a
// worker the host has descheduled does not stall the others. `threads ==
// 1` runs the same loop alone. The (sub-window, shard) schedule is
// identical for every thread count, a shard is run by one thread at a time
// with barrier ordering between sub-windows, and serial callbacks run
// only while no shard is running — so output is byte-identical for any
// thread count and the thread knob only changes wall-clock.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "util/sim_time.hpp"

namespace p2ps::obs {
class PhaseProfiler;
}

namespace p2ps::sim {

class ShardRunner {
 public:
  struct Callbacks {
    /// Earliest pending event time on shard `s`, including anything the
    /// shard has sent that will become an event elsewhere before the next
    /// window's pull. Called once per shard before the first window, then
    /// by the thread running shard `s` right after each of its run_to
    /// calls; the serial step reduces these answers, so at_barrier and
    /// at_window_start must not change them.
    std::function<std::optional<util::SimTime>(int shard)> next_event_time;
    /// Optional serial hook before each window's shards run, with the
    /// window's end tick: publish state that must be visible to every
    /// shard during the window (e.g. directory joins whose visibility
    /// tick falls inside it).
    std::function<void(util::SimTime window_end)> at_window_start;
    /// Optional per-shard hook, run by the thread running shard `s` right
    /// before its run_to in every sub-window: pull the envelopes other
    /// shards sent it during the previous sub-window (ShardRouter::pull).
    std::function<void(int shard)> pull;
    /// Runs shard `s` to `t` inclusive (run_until semantics). Any worker
    /// may run a given shard, but only one at a time.
    std::function<void(int shard, util::SimTime t)> run_to;
    /// Serial step at `window_end`, after every shard reached window_end
    /// and before any shard runs again: seal the router's window, publish
    /// directory joins, poll telemetry. Must not schedule shard events.
    std::function<void(util::SimTime window_end)> at_barrier;

    /// Optional wall-clock phase profiler (obs/phase_profiler.hpp): when
    /// set, the runner times each shard's pull into the shard's route-drain
    /// cell and its run_to into the shard's step cell (written only by the
    /// thread running the shard), and the whole serial step into the
    /// barrier phase. Pure observation — the (window, shard) schedule is
    /// identical with or without it.
    obs::PhaseProfiler* profiler = nullptr;
  };

  /// `lookahead` must be >= 1 ms (the tick granularity); `threads` is
  /// clamped to [1, num_shards]; `fusion` >= 1 is the maximum number of
  /// sub-windows counted per dispatch (1 = one dispatch per sub-window).
  ShardRunner(int num_shards, util::SimTime lookahead, int threads = 1,
              int fusion = 1);

  /// Steps every shard to `horizon` (inclusive, run_until semantics),
  /// calling at_barrier after each window. May be called once. An
  /// exception from any callback stops every worker at the next barrier
  /// and is rethrown here.
  void run(util::SimTime horizon, const Callbacks& callbacks);

  /// Dispatches counted by run(), each covering 1..fusion sub-windows.
  /// With fusion == 1 this equals the number of barriers passed.
  [[nodiscard]] std::int64_t windows() const { return windows_; }

  /// Sub-windows grouped into a prior dispatch beyond its first — i.e.
  /// sub_windows() - windows(). Zero when fusion == 1.
  [[nodiscard]] std::int64_t windows_fused() const { return windows_fused_; }

  /// Total sub-windows executed (= barriers passed), independent of the
  /// fusion factor.
  [[nodiscard]] std::int64_t sub_windows() const {
    return windows_ + windows_fused_;
  }

  /// Mean simulated span covered per sub-window, in ms (idle skips
  /// included, so sparse phases push this well above the lookahead).
  /// 0 before run().
  [[nodiscard]] double lookahead_avg_ms() const {
    const std::int64_t subs = sub_windows();
    return subs > 0 ? static_cast<double>(span_ms_sum_) /
                          static_cast<double>(subs)
                    : 0.0;
  }

  /// Windows whose start jumped past idle time: the earliest pending event
  /// lay strictly beyond the previous window's end, so the runner skipped
  /// the gap instead of barriering through it tick by tick. High values
  /// mean sparse phases (backoff tails) are being crossed cheaply.
  [[nodiscard]] std::int64_t idle_skips() const { return idle_skips_; }

 private:
  int num_shards_;
  util::SimTime lookahead_;
  int threads_;
  int fusion_;
  std::int64_t windows_ = 0;
  std::int64_t windows_fused_ = 0;
  std::int64_t span_ms_sum_ = 0;
  std::int64_t idle_skips_ = 0;
  bool ran_ = false;
};

}  // namespace p2ps::sim
