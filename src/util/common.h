// Common error handling and small helpers shared by all VirtualFlow modules.
#pragma once

#include <concepts>
#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vf {

/// Base exception type for all VirtualFlow errors. Carries the source
/// location of the failed check so test failures point at the violated
/// invariant rather than the throw site machinery.
class VfError : public std::runtime_error {
 public:
  explicit VfError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a simulated device runs out of memory (see
/// device/memory_model.h). Distinct type so callers (e.g. the offline
/// profiler walking batch sizes upward) can catch OOM specifically.
class OomError : public VfError {
 public:
  explicit OomError(const std::string& what) : VfError(what) {}
};

namespace detail {
inline std::string locate(std::string_view msg, const std::source_location& loc) {
  std::string out;
  out += loc.file_name();
  out += ':';
  out += std::to_string(loc.line());
  out += ": ";
  out += msg;
  return out;
}
}  // namespace detail

/// Precondition / invariant check. Throws VfError on failure.
inline void check(bool cond, std::string_view msg,
                  const std::source_location loc = std::source_location::current()) {
  if (!cond) throw VfError(detail::locate(msg, loc));
}

/// check() with a message built only on failure: `make_msg()` returns it.
/// For hot paths whose message would otherwise be formatted on every pass.
template <std::invocable MakeMsg>
inline void check(bool cond, MakeMsg&& make_msg,
                  const std::source_location loc = std::source_location::current()) {
  if (!cond) throw VfError(detail::locate(make_msg(), loc));
}

/// Check specialized for index bounds; includes the offending value.
inline void check_index(std::int64_t i, std::int64_t n, std::string_view what,
                        const std::source_location loc = std::source_location::current()) {
  if (i < 0 || i >= n) {
    throw VfError(detail::locate(std::string(what) + " index " + std::to_string(i) +
                                     " out of range [0, " + std::to_string(n) + ")",
                                 loc));
  }
}

// Byte-size literals used throughout the device memory model.
constexpr double kKiB = 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

}  // namespace vf
