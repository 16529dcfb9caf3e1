// FNV-1a fingerprint of a full scenario payload dump — one 64-bit value
// per golden pin, shared by every suite that pins engine output.
#pragma once

#include <cstdint>
#include <string_view>

namespace p2ps {

inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace p2ps
