// Per-class admission-probability vector (paper Section 4.1).
//
// A class-κ supplying peer grants a class-j request with probability P[j]:
//   init:     P[j] = 1.0 for j ≤ κ,  P[j] = 2^-(j-κ) for j > κ
//   elevate:  every entry < 1 doubles (idle timeout / quiet session end)
//   tighten:  reset to the class-k̂ profile after favored-class reminders
//
// Threshold form. Every vector these rules can reach is
//   P[j] = 2^-max(0, j - k)
// for one threshold k in [1, K] — the lowest favored class:
//   * init is that form with k = κ, and all_ones (NDAC_p2p) with k = K;
//   * elevate maps max(0, j-k) to max(0, max(0, j-k) - 1) = max(0, j-(k+1)),
//     which is the form with k+1, capped at K where every entry is already 0;
//   * tighten_to(k̂) rebuilds the form with k = k̂.
// By induction no other vector occurs, so the pair (K, k) is the whole state
// and is exact: the stored exponent e = max(0, j-k) gives P[j] = 2^-e with
// no float drift, "favored" (P == 1.0) is the integer test j ≤ k, and two
// vectors are equal exactly when their (K, k) pairs are. The value holds no
// heap storage, so a supplier's state is one flat, trivially copyable struct.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iosfwd>

#include "core/peer_class.hpp"

namespace p2ps::core {

class AdmissionProbabilityVector {
 public:
  /// Initial profile of a class-`own_class` supplier in a K-class system.
  AdmissionProbabilityVector(PeerClass num_classes, PeerClass own_class)
      : num_classes_(num_classes), threshold_(own_class) {
    require_valid_class(own_class, num_classes);
  }

  /// The NDAC_p2p vector: every class admitted with probability 1.0.
  [[nodiscard]] static AdmissionProbabilityVector all_ones(PeerClass num_classes) {
    return AdmissionProbabilityVector(num_classes, num_classes);
  }

  [[nodiscard]] PeerClass num_classes() const { return num_classes_; }

  // Every accessor is O(1) and inline: a supplier consults them once per
  // received probe (millions of times per paper-scale run).

  /// P[c] as a double (exactly representable: a power of two).
  [[nodiscard]] double probability(PeerClass c) const {
    return std::ldexp(1.0, -exponent(c));
  }

  /// The exponent e with P[c] = 2^-e.
  [[nodiscard]] std::int32_t exponent(PeerClass c) const {
    require_valid_class(c, num_classes_);
    return std::max(0, c - threshold_);
  }

  /// Class c is *favored* iff P[c] == 1.0.
  [[nodiscard]] bool favors(PeerClass c) const {
    require_valid_class(c, num_classes_);
    return c <= threshold_;
  }

  /// The lowest favored class (largest class index with P == 1.0). At least
  /// one class is always favored (class 1 by construction).
  [[nodiscard]] PeerClass lowest_favored_class() const { return threshold_; }

  /// Doubles every probability below 1.0 (capped at 1.0) — the relaxation
  /// applied after an idle timeout or a session with no favored-class
  /// requests.
  void elevate() { threshold_ = std::min(threshold_ + 1, num_classes_); }

  /// Resets to the profile of a class-`k_hat` peer — the tightening applied
  /// when favored-class requesters left reminders; k̂ is the highest such
  /// class.
  void tighten_to(PeerClass k_hat) {
    require_valid_class(k_hat, num_classes_);
    threshold_ = k_hat;
  }

  /// True when every class is favored (vector fully relaxed to all ones).
  [[nodiscard]] bool fully_relaxed() const { return threshold_ == num_classes_; }

  friend bool operator==(const AdmissionProbabilityVector&,
                         const AdmissionProbabilityVector&) = default;

 private:
  PeerClass num_classes_;
  PeerClass threshold_;  // k: P[c] = 2^-max(0, c - k)
};

std::ostream& operator<<(std::ostream& os, const AdmissionProbabilityVector& v);

}  // namespace p2ps::core
