// Tests for sim::TimerService — handle semantics (generation-tagged ids,
// cancel/rearm), the (deadline, arm-seq) firing order, deadline-aware
// pending(), and a randomized differential of the timing wheel against a
// priority-queue model of the ordering contract under arbitrary
// arm/cancel/rearm/poll interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer_service.hpp"
#include "util/rng.hpp"

namespace p2ps::sim {
namespace {

using util::SimTime;

TEST(TimerService, FiresAtDeadlineInArmOrder) {
  Simulator simulator;
  TimerService timers(simulator);
  std::vector<int> fired;
  timers.arm_after(SimTime::millis(50), [&](SimTime at) {
    EXPECT_EQ(at, SimTime::millis(50));
    fired.push_back(1);
  });
  timers.arm_after(SimTime::millis(10), [&](SimTime) { fired.push_back(2); });
  timers.arm_after(SimTime::millis(50), [&](SimTime) { fired.push_back(3); });
  simulator.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(timers.fired(), 3u);
  EXPECT_EQ(timers.armed(), 0u);
}

TEST(TimerService, CancelAndStaleGenerationRejection) {
  Simulator simulator;
  TimerService timers(simulator);
  int fired = 0;
  const TimerId a = timers.arm_after(SimTime::millis(5), [&](SimTime) { ++fired; });
  EXPECT_TRUE(timers.pending(a));
  EXPECT_TRUE(timers.cancel(a));
  EXPECT_FALSE(timers.pending(a));
  EXPECT_FALSE(timers.cancel(a));  // already cancelled: stale handle

  // The slot is reused; the old generation-tagged id must stay dead.
  const TimerId b = timers.arm_after(SimTime::millis(5), [&](SimTime) { ++fired; });
  EXPECT_FALSE(timers.pending(a));
  EXPECT_FALSE(timers.cancel(a));
  EXPECT_TRUE(timers.pending(b));
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timers.pending(b));  // fired: handle is stale now
  EXPECT_FALSE(timers.cancel(b));
}

TEST(TimerService, RearmMovesTheDeadlineAndKeepsTheCallback) {
  Simulator simulator;
  TimerService timers(simulator);
  std::vector<std::int64_t> fired_at;
  const TimerId id = timers.arm_after(
      SimTime::millis(10), [&](SimTime at) { fired_at.push_back(at.as_millis()); });
  EXPECT_TRUE(timers.rearm_at(id, SimTime::millis(40)));
  simulator.run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{40}));
  EXPECT_FALSE(timers.rearm_at(id, SimTime::millis(45)));  // stale
}

// Moving a deadline earlier must pull the wheel's notification forward
// too, or the timer would fire at its old, later deadline.
TEST(TimerService, RearmToAnEarlierDeadlineFiresThere) {
  Simulator simulator;
  TimerService timers(simulator);
  std::vector<std::int64_t> fired_at;
  const TimerId id = timers.arm_after(
      SimTime::minutes(30), [&](SimTime at) { fired_at.push_back(at.as_millis()); });
  simulator.schedule_at(SimTime::millis(5), [&] {
    EXPECT_TRUE(timers.rearm_at(id, SimTime::millis(20)));
  });
  simulator.run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{20}));
  EXPECT_EQ(timers.fired(), 1u);
  EXPECT_EQ(timers.armed(), 0u);
}

TEST(TimerService, PendingIsDeadlineAwareAheadOfTheNotification) {
  // An unrelated event at the deadline, queued before the timer was armed,
  // runs ahead of the wheel's notification event at that instant. It must
  // already see pending() false, and its poll-on-entry must deliver the
  // firing with the timer's own deadline before it reads any state.
  Simulator simulator;
  TimerService timers(simulator);
  std::vector<std::int64_t> fired_at;
  TimerId id = TimerId::invalid();
  bool probed = false;
  simulator.schedule_at(SimTime::millis(100), [&] {
    EXPECT_FALSE(timers.pending(id));
    EXPECT_TRUE(fired_at.empty()) << "the notification ran first";
    timers.poll();  // an engine handler: polls on entry, then observes
    EXPECT_EQ(fired_at, (std::vector<std::int64_t>{100}));
    probed = true;
  });
  id = timers.arm_after(SimTime::millis(100),
                        [&](SimTime at) { fired_at.push_back(at.as_millis()); });
  EXPECT_TRUE(timers.pending(id));
  simulator.run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{100}));  // exactly once
  EXPECT_EQ(timers.fired(), 1u);
}

TEST(TimerService, DeadlineAnchoredChainsCatchUp) {
  // A self-rearming timer (deadline + period each firing) must fire step
  // by step, each firing carrying its logical deadline, whether the wheel
  // or a handler's poll delivers it.
  Simulator simulator;
  TimerService timers(simulator);
  std::vector<std::int64_t> fired_at;
  std::function<void(SimTime)> chain = [&](SimTime at) {
    fired_at.push_back(at.as_millis());
    if (fired_at.size() < 5) timers.arm_at(at + SimTime::millis(100), chain);
  };
  timers.arm_at(SimTime::millis(100), chain);
  simulator.schedule_at(SimTime::millis(450), [&] { timers.poll(); });
  simulator.run_until(SimTime::millis(1000));
  timers.poll();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{100, 200, 300, 400, 500}));
}

TEST(TimerService, WheelHandlesCrossLevelAndOverflowDeadlines) {
  Simulator simulator;
  TimerService timers(simulator);
  std::vector<std::int64_t> fired_at;
  const auto record = [&](SimTime at) { fired_at.push_back(at.as_millis()); };
  // One deadline per wheel level plus one past the top span (~12.4 days).
  const std::int64_t deadlines[] = {
      7,          1'000,         60'000,        3'600'000,
      86'400'000, 1'000'000'000, 2'000'000'000,
  };
  for (const std::int64_t ms : deadlines) {
    timers.arm_at(SimTime::millis(ms), record);
  }
  simulator.run();
  EXPECT_EQ(fired_at.size(), std::size(deadlines));
  for (std::size_t i = 0; i < std::size(deadlines); ++i) {
    EXPECT_EQ(fired_at[i], deadlines[i]);
  }
  EXPECT_EQ(timers.armed(), 0u);
}

TEST(TimerService, WheelKeepsTheEventListFlat) {
  // A thousand armed timers cost O(1) simulator events, not one each.
  Simulator simulator;
  TimerService timers(simulator);
  for (int i = 0; i < 1'000; ++i) {
    timers.arm_after(SimTime::millis(100 + i), [](SimTime) {});
  }
  EXPECT_LE(simulator.pending_count(), 2u);
  EXPECT_EQ(timers.armed(), 1'000u);
  simulator.run();
  EXPECT_EQ(timers.fired(), 1'000u);
}

// ---- randomized differential stress against a priority-queue model ----
//
// The model is the ordering contract written down directly: armed timers
// sit in a (deadline, seq) std::priority_queue with lazy deletion and fire
// only from poll(), draining in (deadline, seq) order until nothing due
// remains — so a callback arming an already-due timer (chain catch-up) is
// fired by the same poll. It has no wheel and no notification event. One
// scripted universe of arms, cancels, rearms, pending() probes and
// self-rearming chains drives both; the firing logs must be identical.

class ModelTimers {
 public:
  using Id = std::size_t;

  explicit ModelTimers(Simulator& simulator) : simulator_(simulator) {}

  Id arm_at(SimTime deadline, TimerService::Callback cb) {
    timers_.push_back(Timer{std::move(cb), deadline, next_seq_, true});
    queue_.emplace(deadline, next_seq_++, timers_.size() - 1);
    ++armed_;
    return timers_.size() - 1;
  }

  bool rearm_at(Id id, SimTime deadline) {
    Timer& timer = timers_[id];
    if (!timer.armed) return false;
    timer.deadline = deadline;
    timer.seq = next_seq_;
    queue_.emplace(deadline, next_seq_++, id);
    return true;
  }

  bool cancel(Id id) {
    Timer& timer = timers_[id];
    if (!timer.armed) return false;
    timer.armed = false;
    timer.cb = nullptr;
    --armed_;
    return timer.deadline > simulator_.now();
  }

  [[nodiscard]] bool pending(Id id) const {
    return timers_[id].armed && timers_[id].deadline > simulator_.now();
  }

  void poll() {
    while (!queue_.empty() && std::get<0>(queue_.top()) <= simulator_.now()) {
      const auto [deadline, seq, id] = queue_.top();
      queue_.pop();
      Timer& timer = timers_[id];
      if (!timer.armed || timer.seq != seq) continue;  // cancelled/rearmed
      timer.armed = false;
      --armed_;
      ++fired_;
      const TimerService::Callback cb = std::move(timer.cb);
      cb(deadline);
    }
  }

  [[nodiscard]] std::size_t armed() const { return armed_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  struct Timer {
    TimerService::Callback cb;
    SimTime deadline;
    std::uint64_t seq;
    bool armed;
  };
  using Entry = std::tuple<SimTime, std::uint64_t, Id>;

  Simulator& simulator_;
  std::vector<Timer> timers_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t armed_ = 0;
  std::uint64_t fired_ = 0;
};

template <typename Timers>
std::string run_script(std::uint64_t seed) {
  Simulator simulator;
  Timers timers(simulator);
  using Id = decltype(timers.arm_at(SimTime::zero(), nullptr));
  util::Rng rng(seed);
  std::ostringstream log;
  std::vector<Id> live;
  std::uint64_t next_label = 0;

  // Callbacks log their deadline; every fifth label re-arms a follow-up
  // anchored on its own deadline (up to three links), with a delay that
  // is sometimes zero, i.e. already due when armed.
  std::function<void(SimTime, int)> arm_labelled = [&](SimTime deadline,
                                                       int depth) {
    const std::uint64_t label = next_label++;
    live.push_back(timers.arm_at(deadline, [&, label, depth](SimTime at) {
      log << "F" << label << "@" << at.as_millis() << ";";
      if (label % 5 == 0 && depth < 3) {
        arm_labelled(at + SimTime::millis(static_cast<std::int64_t>(
                              (label * 7919) % 300)),
                     depth + 1);
      }
    }));
  };
  const auto pick = [&] {
    return live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
  };

  // Scripted "engine events": each polls on entry (the discipline every
  // engine handler follows), then mutates or probes the timer population.
  // A minute-long quiet stretch in the middle leaves the wheel to fire on
  // its own while the model catches up in one poll.
  for (int step = 0; step < 400; ++step) {
    const SimTime at = SimTime::millis(step * 37 + rng.uniform_int(0, 17) +
                                       (step >= 200 ? 60'000 : 0));
    simulator.schedule_at(at, [&, at] {
      timers.poll();
      switch (rng.uniform_int(0, 7)) {
        case 0:
        case 1:
          arm_labelled(at + SimTime::millis(rng.uniform_int(0, 5'000)), 0);
          break;
        case 2:
          // Far deadlines: every wheel level and the overflow list.
          arm_labelled(at + SimTime::millis(rng.uniform_int(0, 20 * 86'400'000LL)), 0);
          break;
        case 3:
          // Already due: at or shortly before now.
          arm_labelled(std::max(SimTime::zero(),
                                at - SimTime::millis(rng.uniform_int(0, 50))),
                       0);
          break;
        case 4:
          if (!live.empty()) log << (timers.cancel(pick()) ? "c" : "x");
          break;
        case 5:
          if (!live.empty()) {
            const Id id = pick();
            const SimTime to = at + SimTime::millis(rng.uniform_int(0, 3'000));
            log << (timers.rearm_at(id, to) ? "r" : "x");
          }
          break;
        case 6:
          if (!live.empty()) {
            log << (timers.pending(pick()) ? "p" : "q") << timers.armed() << ";";
          }
          break;
        default:
          break;  // idle step
      }
    });
  }
  const SimTime end = SimTime::hours(24 * 30);
  simulator.schedule_at(end, [&] { timers.poll(); });
  simulator.run_until(end);
  log << "|armed=" << timers.armed() << "|fired=" << timers.fired();
  return log.str();
}

TEST(TimerService, FiringLogMatchesAPriorityQueueModel) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2002ull, 31337ull}) {
    const std::string wheel = run_script<TimerService>(seed);
    const std::string model = run_script<ModelTimers>(seed);
    EXPECT_EQ(wheel, model) << "seed " << seed;
    EXPECT_NE(wheel.find('F'), std::string::npos);  // something fired
    EXPECT_NE(wheel.find("|armed=0|"), std::string::npos);  // all drained
  }
}

}  // namespace
}  // namespace p2ps::sim
