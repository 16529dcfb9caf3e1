#include "sim/shard_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "obs/phase_profiler.hpp"
#include "util/assert.hpp"

namespace p2ps::sim {

ShardRunner::ShardRunner(int num_shards, util::SimTime lookahead, int threads,
                         int fusion)
    : num_shards_(num_shards),
      lookahead_(lookahead),
      threads_(std::clamp(threads, 1, num_shards)),
      fusion_(fusion) {
  P2PS_REQUIRE_MSG(num_shards_ >= 1, "ShardRunner needs at least one shard");
  P2PS_REQUIRE_MSG(lookahead_ >= util::SimTime::millis(1),
                   "conservative lookahead must be at least one tick");
  P2PS_REQUIRE_MSG(fusion_ >= 1, "window fusion factor must be at least 1");
}

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// The runner's only synchronisation: a barrier whose parties are the
/// shards of one sub-window rather than the threads. Each sub-window has a
/// generation number. A worker claims a shard for the open generation
/// with one CAS, pulls and steps it, and marks it finished; whoever
/// finishes the last shard runs the serial step and opens the next
/// generation. A worker with nothing left to claim spins on the generation
/// for a fixed budget, then parks on std::atomic::wait. A sub-window's
/// shard work is a few microseconds, so workers almost never park and
/// nobody enters the kernel.
///
/// Ordering: everything a worker writes while running a shard
/// happens-before the serial step (the finish() RMWs form one release
/// sequence on `finished_`), and everything the serial step writes
/// happens-before every claim in the next generation (the release store
/// and acquire loads of `generation_`). A claim can only succeed for the
/// open generation, and that generation cannot close before the claimed
/// shard is finished — so a worker holding a claim reads serial state
/// that nobody is writing.
class WindowGate {
 public:
  explicit WindowGate(int num_shards)
      : num_shards_(num_shards), claims_(static_cast<std::size_t>(num_shards)) {}

  [[nodiscard]] std::uint32_t open_generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Claims `shard` for sub-window `generation`: false when another worker
  /// holds it, or when `generation` is no longer the open one.
  bool claim(int shard, std::uint32_t generation) {
    std::atomic<std::uint32_t>& last =
        claims_[static_cast<std::size_t>(shard)].generation;
    std::uint32_t expected = generation - 1;
    // Look before the CAS: a failed CAS still takes the cache line away
    // from the shard's usual claimer, and most steal attempts fail.
    return last.load(std::memory_order_relaxed) == expected &&
           last.compare_exchange_strong(expected, generation,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
  }

  /// Marks one claimed shard finished; true for the sub-window's last.
  bool finish() {
    return finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == num_shards_;
  }

  /// Opens sub-window `generation + 1`; called by the worker that finished
  /// the last shard of `generation`, after the serial step.
  void open_next(std::uint32_t generation) {
    finished_.store(0, std::memory_order_relaxed);
    generation_.store(generation + 1, std::memory_order_seq_cst);
    // Sleepers register before their last generation check and we read
    // the count after publishing, both seq_cst: either the sleeper sees
    // the new generation or we see the sleeper (no lost wake-up), and
    // the common all-spinning case skips the futex call entirely.
    if (sleepers_.load(std::memory_order_seq_cst) > 0) generation_.notify_all();
  }

  /// Waits until a generation after `generation` is open and returns it.
  std::uint32_t wait_past(std::uint32_t generation) {
    for (int spin = 0; spin < kSpinPauses; ++spin) {
      const std::uint32_t open = generation_.load(std::memory_order_acquire);
      if (open != generation) return open;
      cpu_relax();
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::uint32_t open = generation_.load(std::memory_order_seq_cst);
    while (open == generation) {
      generation_.wait(generation, std::memory_order_acquire);
      open = generation_.load(std::memory_order_acquire);
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return open;
  }

 private:
  /// Pause instructions before parking: about 30 us on the 4-core Xeon
  /// host the runner was tuned on, an order of magnitude above a typical
  /// sub-window's skew.
  static constexpr int kSpinPauses = 2048;

  /// The generation that last claimed a shard, one cache line per shard.
  struct alignas(64) Claim {
    std::atomic<std::uint32_t> generation{0};
  };

  const int num_shards_;
  std::vector<Claim> claims_;
  alignas(64) std::atomic<int> finished_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{1};
  alignas(64) std::atomic<int> sleepers_{0};
};

}  // namespace

void ShardRunner::run(util::SimTime horizon, const Callbacks& callbacks) {
  P2PS_REQUIRE_MSG(!ran_, "run() may be called only once");
  ran_ = true;
  P2PS_REQUIRE(callbacks.next_event_time != nullptr);
  P2PS_REQUIRE(callbacks.run_to != nullptr);
  P2PS_REQUIRE(callbacks.at_barrier != nullptr);
  P2PS_REQUIRE(horizon >= util::SimTime::zero());
  obs::PhaseProfiler* const profiler = callbacks.profiler;
  const bool has_pull = static_cast<bool>(callbacks.pull);

  // Serial state: written before the workers start or by the serial
  // step, read by a worker only while it holds a claim (WindowGate).
  util::SimTime window_end = util::SimTime::zero();
  util::SimTime prev_end = util::SimTime::zero();
  std::int64_t subs = 0;  // sub-windows in the open dispatch
  std::atomic<bool> done{false};
  // failures[s]: the exception shard s's pull or step threw; the last slot
  // is the serial step's. Each is written by the worker running that part
  // and ordered before the serial step's check and the final rethrow.
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(num_shards_) + 1);
  // next_times[s]: shard s's next event, written right after its step and
  // read by the serial reduction; one cache line per shard.
  struct alignas(64) NextTime {
    std::optional<util::SimTime> value;
  };
  std::vector<NextTime> next_times(static_cast<std::size_t>(num_shards_));
  const auto note_next_time = [&](int shard) {
    next_times[static_cast<std::size_t>(shard)].value =
        callbacks.next_event_time(shard);
  };

  // The next-window reduction: min_next over every shard, the idle skip,
  // and at_window_start for the new window end.
  const auto open_window = [&] {
    std::optional<util::SimTime> min_next;
    for (const NextTime& next : next_times) {
      if (next.value && (!min_next || *next.value < *min_next)) {
        min_next = next.value;
      }
    }
    if (min_next && *min_next > prev_end + util::SimTime::millis(1)) {
      ++idle_skips_;  // the window start jumped an idle gap
    }
    // Nothing (left) inside the horizon: one final window parks every
    // shard's clock exactly at the horizon for the end-of-run reads.
    window_end = !min_next || *min_next > horizon
                     ? horizon
                     : std::min(*min_next + lookahead_ - util::SimTime::millis(1),
                                horizon);
    if (callbacks.at_window_start) callbacks.at_window_start(window_end);
  };

  // Closes one dispatch covering `subs` sub-windows. Dispatch boundaries
  // never change the executed sub-window sequence, so this is pure
  // accounting.
  const auto finish_dispatch = [&] {
    ++windows_;
    windows_fused_ += subs - 1;
    if (profiler != nullptr) profiler->record_dispatch(static_cast<int>(subs));
    subs = 0;
  };

  // The serial step, run by the worker that finished the last shard.
  const auto complete = [&] {
    const std::uint64_t start = profiler != nullptr ? obs::PhaseProfiler::now_ns() : 0;
    const bool step_failed =
        std::any_of(failures.begin(), failures.end(),
                    [](const std::exception_ptr& e) { return e != nullptr; });
    bool finished = step_failed;
    if (!step_failed) {
      try {
        callbacks.at_barrier(window_end);
        span_ms_sum_ += (window_end - prev_end).as_millis();
        ++subs;
        if (window_end >= horizon) {
          finish_dispatch();
          finished = true;
        } else {
          if (subs >= fusion_) finish_dispatch();
          prev_end = window_end;
          open_window();
        }
      } catch (...) {
        failures.back() = std::current_exception();
        finished = true;
      }
    }
    if (profiler != nullptr) {
      profiler->add(obs::Phase::kBarrier, obs::PhaseProfiler::now_ns() - start);
    }
    if (finished) done.store(true, std::memory_order_relaxed);
  };

  // Pulls and steps one claimed shard. Profiled runs use fencepost timing:
  // `clock` carries the previous interval's end, so consecutive intervals
  // share one clock read — the clock is the profiler's dominant cost at
  // hundreds of thousands of sub-windows per run.
  const auto run_shard = [&](int shard, util::SimTime t1, std::uint64_t& clock) {
    try {
      if (has_pull) {
        callbacks.pull(shard);
        if (profiler != nullptr) {
          const std::uint64_t pulled = obs::PhaseProfiler::now_ns();
          profiler->add_shard_drain(shard, pulled - clock);
          clock = pulled;
        }
      }
      callbacks.run_to(shard, t1);
      note_next_time(shard);
    } catch (...) {
      failures[static_cast<std::size_t>(shard)] = std::current_exception();
    }
    if (profiler != nullptr) {
      const std::uint64_t stepped = obs::PhaseProfiler::now_ns();
      profiler->add_shard_step(shard, stepped - clock);
      clock = stepped;
    }
  };

  WindowGate gate(num_shards_);
  // Each worker visits its own stripe first, then every other shard: a
  // worker that is late to a sub-window (descheduled by a busy host, or
  // slow to wake from a park) has its shards taken by the others instead
  // of stalling everyone. Which thread runs a shard never changes what the
  // shard does, so the (sub-window, shard) schedule is the same either way.
  const auto work = [&](int worker) {
    std::vector<int> order;
    for (int shard = worker; shard < num_shards_; shard += threads_) {
      order.push_back(shard);
    }
    for (int shard = 0; shard < num_shards_; ++shard) {
      if (shard % threads_ != worker) order.push_back(shard);
    }
    std::uint32_t generation = gate.open_generation();
    while (!done.load(std::memory_order_relaxed)) {
      std::uint64_t clock = profiler != nullptr ? obs::PhaseProfiler::now_ns() : 0;
      for (const int shard : order) {
        if (!gate.claim(shard, generation)) continue;
        run_shard(shard, window_end, clock);
        if (gate.finish()) {
          complete();
          gate.open_next(generation);
          break;
        }
      }
      generation = gate.wait_past(generation);
    }
  };

  for (int shard = 0; shard < num_shards_; ++shard) note_next_time(shard);
  open_window();

  // Helpers hold until every one of them has started, so that a failure
  // to start one can still release and join the others.
  enum : int { kHold, kGo, kAbandon };
  std::atomic<int> start{kHold};
  const auto release = [&](int signal) {
    start.store(signal);
    start.notify_all();
  };
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(threads_ - 1));
  try {
    for (int worker = 1; worker < threads_; ++worker) {
      helpers.emplace_back([&, worker] {
        start.wait(kHold);
        if (start.load() == kGo) work(worker);
      });
    }
  } catch (...) {
    release(kAbandon);
    for (std::thread& helper : helpers) helper.join();
    throw;
  }
  release(kGo);
  work(0);
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

}  // namespace p2ps::sim
