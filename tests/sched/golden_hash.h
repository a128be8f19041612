// FNV-1a over the exact bits of a schedule, shared by the golden pins in
// test_simulator.cpp (paper-figure schedules), test_cluster.cpp (a
// mixed-tenant controller run) and serve/test_serving_golden.cpp (the
// serving loops' output streams).
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "sched/job.h"

namespace vf::golden {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const Allocation& a) {
    add(static_cast<std::int64_t>(a.per_type.size()));
    for (const auto& [type, count] : a.per_type) {
      add(static_cast<std::int64_t>(type));
      add(count);
    }
  }
};

inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace vf::golden
