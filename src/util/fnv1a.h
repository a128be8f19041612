// 64-bit FNV-1a over the exact bits of values: the primitive behind the
// serving run digest (serve/digest.h) and the golden pins that freeze
// schedules in tests. A double hashes by its bit pattern, so -0.0 and
// +0.0 differ and so does every NaN payload: equal hashes mean
// bit-identical inputs, up to 64-bit collisions.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace vf {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  /// One 8-byte word, little end first.
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  /// The length, then every byte as one word of its own.
  void add_bytes(std::string_view s) {
    add(static_cast<std::int64_t>(s.size()));
    for (const char c : s) add(static_cast<std::int64_t>(static_cast<unsigned char>(c)));
  }
};

/// "0x" and 16 lowercase hex digits: how pins are written and reported.
inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace vf
