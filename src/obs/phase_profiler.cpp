#include "obs/phase_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <x86intrin.h>
#define P2PS_OBS_HAVE_RDTSC 1
#endif

#include "util/assert.hpp"

namespace p2ps::obs {

namespace {

[[nodiscard]] std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(P2PS_OBS_HAVE_RDTSC)
/// ns per TSC tick, calibrated once per process with a ~2 ms spin against
/// steady_clock. Modern x86-64 has an invariant (constant-rate) TSC, so a
/// single calibration holds for the process lifetime; the ~0.1% jitter of
/// a short calibration window is irrelevant for phase accounting.
[[nodiscard]] double ns_per_tick() {
  static const double ratio = [] {
    const std::uint64_t ns0 = steady_ns();
    const std::uint64_t tsc0 = __rdtsc();
    while (steady_ns() - ns0 < 2'000'000u) {
    }
    const std::uint64_t tsc1 = __rdtsc();
    const std::uint64_t ns1 = steady_ns();
    return static_cast<double>(ns1 - ns0) / static_cast<double>(tsc1 - tsc0);
  }();
  return ratio;
}
#endif

}  // namespace

std::uint64_t PhaseProfiler::now_ns() {
#if defined(P2PS_OBS_HAVE_RDTSC)
  return static_cast<std::uint64_t>(static_cast<double>(__rdtsc()) *
                                    ns_per_tick());
#else
  return steady_ns();
#endif
}

std::string_view to_string(Phase phase) {
  switch (phase) {
    case Phase::kStep: return "step";
    case Phase::kRouteDrain: return "route_drain";
    case Phase::kBarrier: return "barrier";
    case Phase::kMerge: return "merge";
  }
  return "?";
}

PhaseProfiler::PhaseProfiler(int num_shards)
    : shard_step_(static_cast<std::size_t>(num_shards)) {
  P2PS_REQUIRE_MSG(num_shards >= 1, "profiler needs at least one shard");
}

std::uint64_t PhaseProfiler::phase_ns(Phase phase) const {
  if (phase == Phase::kStep || phase == Phase::kRouteDrain) {
    std::uint64_t total = 0;
    for (const Cell& cell : shard_step_) {
      total += phase == Phase::kStep ? cell.ns : cell.drain_ns;
    }
    return total;
  }
  return phase_ns_[static_cast<std::size_t>(phase)];
}

double PhaseProfiler::imbalance() const {
  std::uint64_t max_ns = 0;
  std::uint64_t total = 0;
  for (const Cell& cell : shard_step_) {
    max_ns = std::max(max_ns, cell.ns);
    total += cell.ns;
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_step_.size());
  return static_cast<double>(max_ns) / mean;
}

}  // namespace p2ps::obs
