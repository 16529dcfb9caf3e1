// Wall-clock phase profiler for the sharded lookahead-window runner.
//
// Each sub-window splits into disjoint phases. On the thread running it,
// every shard first ROUTE-DRAINs (pulls the cross-shard envelopes sent to
// it in the previous sub-window) and then STEPs its events to the window
// end; the worker that finishes the last shard runs the serial BARRIER
// step (router seal, directory publish, next-window reduction, telemetry
// poll); at end of run the per-shard results MERGE. The imbalance ratio
// (max/mean shard step time) bounds the speedup the barrier design can
// reach on any core count.
//
// Threading: add_shard_step(s, ·) and add_shard_drain(s, ·) are called
// only by the thread running shard s in that sub-window (cells are
// cache-line padded so neighbouring shards don't false-share), add() only
// by the serial step or after the run, and reads happen in the serial
// step or after the run — the runner's barrier provides every needed
// happens-before edge, so cells are plain integers. Time a worker spends
// waiting at the barrier lies in no phase, so for any shard s,
// step(s) + drain(s) + barrier + merge never exceeds the run's wall clock.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace p2ps::obs {

enum class Phase : std::uint8_t { kStep = 0, kRouteDrain, kBarrier, kMerge };
inline constexpr int kNumPhases = 4;

[[nodiscard]] std::string_view to_string(Phase phase);

class PhaseProfiler {
 public:
  explicit PhaseProfiler(int num_shards);

  /// Monotonic nanosecond clock for interval timing (never used for
  /// simulation decisions — telemetry is out-of-band by contract). On
  /// x86-64 this reads the invariant TSC (calibrated once per process
  /// against steady_clock) — roughly half the cost of a steady_clock
  /// read, and the profiler makes ~a dozen reads per lookahead window
  /// at hundreds of thousands of windows per run, so the clock itself
  /// is the profiler's dominant overhead. Portable fallback elsewhere.
  [[nodiscard]] static std::uint64_t now_ns();

  /// The thread running shard s accumulates its window step time.
  void add_shard_step(int shard, std::uint64_t ns) {
    shard_step_[static_cast<std::size_t>(shard)].ns += ns;
  }
  /// The thread running shard s accumulates its inbound-pull time.
  void add_shard_drain(int shard, std::uint64_t ns) {
    shard_step_[static_cast<std::size_t>(shard)].drain_ns += ns;
  }
  /// Serial phase accumulation (barrier, merge).
  void add(Phase phase, std::uint64_t ns) {
    phase_ns_[static_cast<std::size_t>(phase)] += ns;
  }

  /// Serial step only: one runner dispatch covering `sub_windows` unit
  /// lookahead windows (>= 1). Splits the window population into unit
  /// dispatches (no fusion happened) and fused dispatches — the
  /// fused-vs-unit breakdown the telemetry phases record reports.
  void record_dispatch(int sub_windows) {
    if (sub_windows > 1) {
      ++fused_dispatches_;
      fused_sub_windows_ += static_cast<std::uint64_t>(sub_windows);
    } else {
      ++unit_dispatches_;
    }
  }
  [[nodiscard]] std::uint64_t unit_dispatches() const {
    return unit_dispatches_;
  }
  [[nodiscard]] std::uint64_t fused_dispatches() const {
    return fused_dispatches_;
  }
  /// Unit sub-windows absorbed by the fused dispatches (each counts all
  /// of its sub-windows, including the first).
  [[nodiscard]] std::uint64_t fused_sub_windows() const {
    return fused_sub_windows_;
  }

  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shard_step_.size());
  }
  [[nodiscard]] std::uint64_t shard_step_ns(int shard) const {
    return shard_step_[static_cast<std::size_t>(shard)].ns;
  }
  [[nodiscard]] std::uint64_t shard_drain_ns(int shard) const {
    return shard_step_[static_cast<std::size_t>(shard)].drain_ns;
  }
  /// Phase::kStep and Phase::kRouteDrain report the SUM of the per-shard
  /// cells (total busy work); a window's wall-clock share is the max over
  /// workers, not the sum.
  [[nodiscard]] std::uint64_t phase_ns(Phase phase) const;

  /// max/mean per-shard step (busy) time: 1.0 = perfectly balanced, N for
  /// one hot shard among N idle ones; 0 before any timing data.
  [[nodiscard]] double imbalance() const;

 private:
  struct alignas(64) Cell {  // one cache line per shard: no false sharing
    std::uint64_t ns = 0;        ///< step time
    std::uint64_t drain_ns = 0;  ///< inbound-pull time
  };
  std::vector<Cell> shard_step_;
  std::array<std::uint64_t, kNumPhases> phase_ns_{};
  std::uint64_t unit_dispatches_ = 0;
  std::uint64_t fused_dispatches_ = 0;
  std::uint64_t fused_sub_windows_ = 0;
};

/// RAII interval: adds the elapsed time to a profiler phase (or, with a
/// shard, to that shard's step or route-drain cell) on destruction; no-op
/// when the profiler is null.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase, int shard = -1)
      : profiler_(profiler),
        phase_(phase),
        shard_(shard),
        start_ns_(profiler ? PhaseProfiler::now_ns() : 0) {}
  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    const std::uint64_t elapsed = PhaseProfiler::now_ns() - start_ns_;
    if (shard_ >= 0 && phase_ == Phase::kRouteDrain) {
      profiler_->add_shard_drain(shard_, elapsed);
    } else if (shard_ >= 0) {
      profiler_->add_shard_step(shard_, elapsed);
    } else {
      profiler_->add(phase_, elapsed);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_;
  Phase phase_;
  int shard_;
  std::uint64_t start_ns_;
};

}  // namespace p2ps::obs
