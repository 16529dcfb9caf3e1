#include "core/admission/probability_vector.hpp"

#include <ostream>

namespace p2ps::core {

std::ostream& operator<<(std::ostream& os, const AdmissionProbabilityVector& v) {
  os << '[';
  for (PeerClass c = 1; c <= v.num_classes(); ++c) {
    if (c > 1) os << ", ";
    os << v.probability(c);
  }
  return os << ']';
}

}  // namespace p2ps::core
