// Randomized property tests: protocol state-machine invariants under
// arbitrary valid operation sequences, and cross-engine agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "core/admission/probability_vector.hpp"
#include "core/admission/supplier.hpp"
#include "engine/async_system.hpp"
#include "engine/streaming_system.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace p2ps {
namespace {

using core::PeerClass;
using util::SimTime;

// ---------- probability-vector invariants ----------
//
// Invariants that must hold after *any* mix of init/elevate/tighten:
//  (1) P[1] == 1.0 — class 1 is always favored;
//  (2) P[c] >= 2^-(c-1) — a class-c requester is never more improbable
//      than under the strictest possible profile (a class-1 supplier's);
//  (3) exponents are nondecreasing in c — favored classes form a prefix,
//      so lowest_favored_class() fully describes the favored set.

void expect_vector_invariants(const core::AdmissionProbabilityVector& v) {
  EXPECT_TRUE(v.favors(1));
  for (PeerClass c = 1; c <= v.num_classes(); ++c) {
    EXPECT_GE(v.exponent(c), 0);
    EXPECT_LE(v.exponent(c), c - 1);
    if (c > 1) {
      EXPECT_GE(v.exponent(c), v.exponent(c - 1));
    }
  }
  const PeerClass lowest = v.lowest_favored_class();
  for (PeerClass c = 1; c <= v.num_classes(); ++c) {
    EXPECT_EQ(v.favors(c), c <= lowest);
  }
}

class VectorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VectorFuzz, InvariantsSurviveRandomOperations) {
  util::Rng rng(GetParam());
  const PeerClass k = static_cast<PeerClass>(2 + rng.uniform_below(8));
  core::AdmissionProbabilityVector v(
      k, static_cast<PeerClass>(1 + rng.uniform_below(static_cast<std::uint64_t>(k))));
  expect_vector_invariants(v);
  for (int op = 0; op < 500; ++op) {
    if (rng.bernoulli(0.6)) {
      v.elevate();
    } else {
      v.tighten_to(static_cast<PeerClass>(
          1 + rng.uniform_below(static_cast<std::uint64_t>(k))));
    }
    expect_vector_invariants(v);
  }
}

// ---------- supplier state machine fuzz ----------
//
// Drive a SupplierAdmission with random *valid* operations and check that
// it never wedges: grants only while idle, reminder bookkeeping clears at
// session end, vector invariants hold throughout.

class SupplierFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SupplierFuzz, NeverWedgesUnderRandomTraffic) {
  util::Rng rng(GetParam());
  const PeerClass k = 4;
  const auto own = static_cast<PeerClass>(1 + rng.uniform_below(4));
  core::SupplierAdmission supplier(k, own, /*differentiated=*/true);

  std::int64_t sessions = 0;
  std::int64_t grants = 0;
  PeerClass highest_reminder = 0;  // expected highest_pending_reminder()
  for (int op = 0; op < 5000; ++op) {
    expect_vector_invariants(supplier.vector());
    const auto requester =
        static_cast<PeerClass>(1 + rng.uniform_below(4));
    switch (rng.uniform_below(5)) {
      case 0: {  // probe
        const auto outcome = supplier.handle_probe(requester, rng);
        if (supplier.busy()) {
          EXPECT_EQ(outcome.reply, core::ProbeReply::kBusy);
        } else {
          EXPECT_NE(outcome.reply, core::ProbeReply::kBusy);
          grants += (outcome.reply == core::ProbeReply::kGranted);
          // Favored classes are always granted deterministically.
          if (outcome.favors_requester) {
            EXPECT_EQ(outcome.reply, core::ProbeReply::kGranted);
          }
        }
        break;
      }
      case 1:
        if (!supplier.busy()) {
          supplier.on_session_start();
          ++sessions;
          EXPECT_TRUE(supplier.busy());
          EXPECT_EQ(supplier.highest_pending_reminder(), 0);
          EXPECT_FALSE(supplier.favored_request_seen());
        }
        break;
      case 2:
        if (supplier.busy()) {
          supplier.on_session_end();
          EXPECT_FALSE(supplier.busy());
          EXPECT_EQ(supplier.highest_pending_reminder(), 0);
          highest_reminder = 0;
        }
        break;
      case 3:
        if (supplier.busy() && rng.bernoulli(0.5)) {
          supplier.leave_reminder(requester);
          if (highest_reminder == 0 || requester < highest_reminder) {
            highest_reminder = requester;
          }
          EXPECT_EQ(supplier.highest_pending_reminder(), highest_reminder);
        }
        break;
      case 4:
        if (!supplier.busy()) supplier.on_idle_timeout();
        break;
    }
  }
  EXPECT_GT(sessions, 0);
  EXPECT_GT(grants, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorFuzz, ::testing::Range<std::uint64_t>(1, 13),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << "seed" << info.param;
                           return os.str();
                         });
INSTANTIATE_TEST_SUITE_P(Seeds, SupplierFuzz, ::testing::Range<std::uint64_t>(1, 13),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << "seed" << info.param;
                           return os.str();
                         });

// ---------- threshold form vs the exponent-array oracle ----------
//
// core::AdmissionProbabilityVector stores only (K, k) and
// core::SupplierAdmission only its highest reminder class. The two classes
// below are the explicit representations those replaced — one exponent per
// class updated entry by entry, and the full list of reminders — kept here
// as the single test-only oracle for the paper's Section 4.1 rules.

class ExponentArrayVector {
 public:
  ExponentArrayVector(PeerClass num_classes, PeerClass own_class) {
    core::require_valid_class(own_class, num_classes);
    for (PeerClass c = 1; c <= num_classes; ++c) {
      exponents_.push_back(std::max(0, c - own_class));
    }
  }

  static ExponentArrayVector all_ones(PeerClass num_classes) {
    ExponentArrayVector v(num_classes, 1);
    std::fill(v.exponents_.begin(), v.exponents_.end(), 0);
    return v;
  }

  [[nodiscard]] PeerClass num_classes() const {
    return static_cast<PeerClass>(exponents_.size());
  }
  [[nodiscard]] const std::vector<std::int32_t>& exponents() const { return exponents_; }

  [[nodiscard]] std::int32_t exponent(PeerClass c) const {
    core::require_valid_class(c, num_classes());
    return exponents_[static_cast<std::size_t>(c - 1)];
  }

  [[nodiscard]] bool favors(PeerClass c) const { return exponent(c) == 0; }

  [[nodiscard]] PeerClass lowest_favored_class() const {
    PeerClass lowest = core::kHighestClass;
    for (PeerClass c = 1; c <= num_classes(); ++c) {
      if (favors(c)) lowest = c;
    }
    return lowest;
  }

  void elevate() {
    for (auto& e : exponents_) e = std::max(0, e - 1);
  }

  void tighten_to(PeerClass k_hat) {
    core::require_valid_class(k_hat, num_classes());
    for (PeerClass c = 1; c <= num_classes(); ++c) {
      exponents_[static_cast<std::size_t>(c - 1)] = std::max(0, c - k_hat);
    }
  }

  [[nodiscard]] bool fully_relaxed() const {
    return std::all_of(exponents_.begin(), exponents_.end(),
                       [](std::int32_t e) { return e == 0; });
  }

  friend bool operator==(const ExponentArrayVector&, const ExponentArrayVector&) = default;

 private:
  std::vector<std::int32_t> exponents_;  // P[c] = 2^-exponents_[c-1]
};

/// The supplier state machine over the oracle vector, keeping every
/// reminder and taking their minimum at session end.
class ReminderListSupplier {
 public:
  ReminderListSupplier(PeerClass num_classes, PeerClass own_class, bool differentiated)
      : differentiated_(differentiated),
        vector_(differentiated ? ExponentArrayVector(num_classes, own_class)
                               : ExponentArrayVector::all_ones(num_classes)) {}

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] bool favored_request_seen() const { return favored_request_seen_; }
  [[nodiscard]] const ExponentArrayVector& vector() const { return vector_; }
  [[nodiscard]] bool tightens_at_session_end() const {
    return favored_request_seen_ && !reminders_.empty();
  }
  [[nodiscard]] PeerClass highest_pending_reminder() const {
    return reminders_.empty() ? 0 : *std::min_element(reminders_.begin(), reminders_.end());
  }

  core::ProbeOutcome handle_probe(PeerClass requester_class, util::Rng& rng) {
    core::ProbeOutcome outcome;
    outcome.favors_requester = vector_.favors(requester_class);
    if (busy_) {
      outcome.reply = core::ProbeReply::kBusy;
      if (differentiated_ && outcome.favors_requester) favored_request_seen_ = true;
      return outcome;
    }
    const bool granted =
        rng.bernoulli(std::ldexp(1.0, -vector_.exponent(requester_class)));
    outcome.reply = granted ? core::ProbeReply::kGranted : core::ProbeReply::kDenied;
    return outcome;
  }

  void leave_reminder(PeerClass requester_class) {
    if (differentiated_) reminders_.push_back(requester_class);
  }

  void on_session_start() {
    busy_ = true;
    favored_request_seen_ = false;
    reminders_.clear();
  }

  void on_session_end() {
    busy_ = false;
    if (differentiated_) {
      if (!favored_request_seen_) {
        vector_.elevate();
      } else if (!reminders_.empty()) {
        vector_.tighten_to(highest_pending_reminder());
      }
    }
    favored_request_seen_ = false;
    reminders_.clear();
  }

  void on_idle_timeout() {
    if (differentiated_) vector_.elevate();
  }

 private:
  bool differentiated_;
  bool busy_ = false;
  bool favored_request_seen_ = false;
  std::vector<PeerClass> reminders_;
  ExponentArrayVector vector_;
};

void expect_same_vector(const ExponentArrayVector& oracle,
                        const core::AdmissionProbabilityVector& v) {
  const PeerClass k = oracle.num_classes();
  ASSERT_EQ(v.num_classes(), k);
  for (PeerClass c = 1; c <= k; ++c) {
    EXPECT_EQ(v.exponent(c), oracle.exponent(c)) << "class " << c;
    EXPECT_EQ(v.favors(c), oracle.favors(c)) << "class " << c;
    EXPECT_EQ(v.probability(c), std::ldexp(1.0, -oracle.exponent(c))) << "class " << c;
  }
  EXPECT_EQ(v.lowest_favored_class(), oracle.lowest_favored_class());
  EXPECT_EQ(v.fully_relaxed(), oracle.fully_relaxed());
  // The class checks survive the O(1) accessors.
  EXPECT_THROW((void)v.exponent(0), util::ContractViolation);
  EXPECT_THROW((void)v.favors(k + 1), util::ContractViolation);
}

// Every sequence of up to five elevate / tighten_to(k̂) operations, from
// every initial profile (and all_ones) of every K the bandwidth model
// supports, leaves the two representations agreeing on every accessor.
// The walk is breadth-first over (oracle, production) state pairs and
// expands each pair at the shallowest depth it is reached: both sides are
// deterministic, so a sequence through a pair seen before continues exactly
// like one already walked, and every sequence of length ≤ 5 is covered.
TEST(ThresholdVector, MatchesTheExponentArrayOnEverySequenceUpToDepthFive) {
  constexpr int kDepth = 5;
  using Pair = std::pair<ExponentArrayVector, core::AdmissionProbabilityVector>;
  std::vector<Pair> reached;  // every distinct pair, across all K
  for (PeerClass k = 1; k <= core::kMaxSupportedClasses; ++k) {
    std::vector<Pair> frontier;
    const std::size_t first_of_k = reached.size();
    const auto visit = [&](const Pair& pair) {
      expect_same_vector(pair.first, pair.second);
      const bool seen = std::any_of(
          reached.begin() + static_cast<std::ptrdiff_t>(first_of_k), reached.end(),
          [&](const Pair& other) {
            return other.first == pair.first &&
                   other.second.lowest_favored_class() ==
                       pair.second.lowest_favored_class();
          });
      if (seen) return;
      reached.push_back(pair);
      frontier.push_back(pair);
    };
    visit({ExponentArrayVector::all_ones(k), core::AdmissionProbabilityVector::all_ones(k)});
    for (PeerClass own = 1; own <= k; ++own) {
      visit({ExponentArrayVector(k, own), core::AdmissionProbabilityVector(k, own)});
    }
    for (int depth = 0; depth < kDepth && !frontier.empty(); ++depth) {
      const std::vector<Pair> expand = std::move(frontier);
      frontier.clear();
      for (const Pair& pair : expand) {
        Pair elevated = pair;
        elevated.first.elevate();
        elevated.second.elevate();
        visit(elevated);
        for (PeerClass k_hat = 1; k_hat <= k; ++k_hat) {
          Pair tightened = pair;
          tightened.first.tighten_to(k_hat);
          tightened.second.tighten_to(k_hat);
          visit(tightened);
        }
      }
    }
    // The threshold form's claim: exactly K distinct vectors are reachable.
    EXPECT_EQ(reached.size() - first_of_k, static_cast<std::size_t>(k)) << "K = " << k;
  }
  // operator== agrees with element-wise equality on every pair of reached
  // vectors, including vectors of different K.
  for (const Pair& a : reached) {
    for (const Pair& b : reached) {
      EXPECT_EQ(a.second == b.second, a.first == b.first);
    }
  }
}

// SupplierAdmission against the reminder-list oracle under random probe /
// reminder / session / idle traffic. Each side draws its admission tests
// from its own copy of one seeded Rng, so equal grants prove equal
// probabilities, draw for draw.
class SupplierDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SupplierDifferential, MatchesTheReminderListOracle) {
  util::Rng ops(GetParam());
  std::int64_t tightenings = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const auto k = static_cast<PeerClass>(
        1 + ops.uniform_below(static_cast<std::uint64_t>(core::kMaxSupportedClasses)));
    const auto own =
        static_cast<PeerClass>(1 + ops.uniform_below(static_cast<std::uint64_t>(k)));
    const bool differentiated = trial % 4 != 3;
    core::SupplierAdmission supplier(k, own, differentiated);
    ReminderListSupplier oracle(k, own, differentiated);
    util::Rng supplier_rng(ops());
    util::Rng oracle_rng = supplier_rng;
    for (int op = 0; op < 2000; ++op) {
      // Bias requesters toward the high classes so favored busy probes,
      // and with them reminders and tightenings, are common at every K.
      const auto requester = static_cast<PeerClass>(
          1 + ops.uniform_below(static_cast<std::uint64_t>(std::min<PeerClass>(k, 4))));
      switch (ops.uniform_below(5)) {
        case 0: {
          const auto got = supplier.handle_probe(requester, supplier_rng);
          const auto want = oracle.handle_probe(requester, oracle_rng);
          EXPECT_EQ(got.reply, want.reply);
          EXPECT_EQ(got.favors_requester, want.favors_requester);
          break;
        }
        case 1:
          if (!oracle.busy()) {
            supplier.on_session_start();
            oracle.on_session_start();
          }
          break;
        case 2:
          if (oracle.busy()) {
            tightenings += oracle.tightens_at_session_end() ? 1 : 0;
            supplier.on_session_end();
            oracle.on_session_end();
            expect_same_vector(oracle.vector(), supplier.vector());
          }
          break;
        case 3:
          if (oracle.busy()) {
            supplier.leave_reminder(requester);
            oracle.leave_reminder(requester);
          }
          break;
        case 4:
          if (!oracle.busy()) {
            supplier.on_idle_timeout();
            oracle.on_idle_timeout();
            expect_same_vector(oracle.vector(), supplier.vector());
          }
          break;
      }
      ASSERT_EQ(supplier.busy(), oracle.busy());
      EXPECT_EQ(supplier.favored_request_seen(), oracle.favored_request_seen());
      EXPECT_EQ(supplier.highest_pending_reminder(), oracle.highest_pending_reminder());
    }
  }
  EXPECT_GT(tightenings, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupplierDifferential,
                         ::testing::Range<std::uint64_t>(1, 9),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << "seed" << info.param;
                           return os.str();
                         });

// ---------- cross-engine agreement ----------
//
// The session-level engine and the message-level engine implement the same
// protocol; with a perfect network (zero latency, zero loss) their outcomes
// on the same workload must agree closely (not exactly: they consume
// randomness in different orders).

TEST(CrossEngine, SyncAndAsyncAgreeOnAPerfectNetwork) {
  engine::SimulationConfig sync_config;
  sync_config.population.seeds = 10;
  sync_config.population.requesters = 300;
  sync_config.pattern = workload::ArrivalPattern::kConstant;
  sync_config.arrival_window = SimTime::hours(6);
  sync_config.horizon = SimTime::hours(24);
  sync_config.seed = 77;

  engine::AsyncSimulationConfig async_config;
  async_config.population = sync_config.population;
  async_config.pattern = sync_config.pattern;
  async_config.arrival_window = sync_config.arrival_window;
  async_config.horizon = sync_config.horizon;
  async_config.seed = 77;
  async_config.transport.latency.min = SimTime::zero();
  async_config.transport.latency.max = SimTime::zero();
  async_config.transport.drop_probability = 0.0;

  const auto sync_result = engine::StreamingSystem(sync_config).run();
  const auto async_result = engine::AsyncStreamingSystem(async_config).run();

  // Both should have served most of the population by the horizon.
  EXPECT_GT(sync_result.overall.admissions, 200);
  EXPECT_GT(async_result.overall.admissions, 200);
  const double ratio = static_cast<double>(async_result.overall.admissions) /
                       static_cast<double>(sync_result.overall.admissions);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
  // Capacity trajectories stay close too (same supply dynamics).
  const double capacity_ratio =
      static_cast<double>(async_result.final_capacity) /
      static_cast<double>(sync_result.final_capacity);
  EXPECT_GT(capacity_ratio, 0.9);
  EXPECT_LT(capacity_ratio, 1.1);
}

}  // namespace
}  // namespace p2ps
