// vf::obs JSON plumbing: locale-independent, round-trip-exact scalar
// formatting plus the flat name/value/unit report the benches emit.
//
// Everything the observability layer exports (metrics snapshots, trace
// events, BENCH_*.json perf records) is serialized through the helpers in
// this header, so the determinism contract extends to the BYTES on disk:
// two replays that agree bit-for-bit on their virtual-clock stamps produce
// byte-identical JSON, on any host, under any global locale.
//
// `format_double` is the core: std::to_chars emits the shortest decimal
// string that parses back to the same bits (round-trip exact, always '.'
// as the decimal point). The previous writer — printf %.17g — was both
// locale-sensitive (a German locale turns 1.5 into "1,5", which is not
// JSON) and noisy (0.1 printed as 0.10000000000000001); this replaces it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vf::obs {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(const std::string& s);

/// Appends the shortest round-trip decimal form of `v` to `out`:
/// parsing the result (std::from_chars / strtod in the C locale) yields
/// exactly the same bits. Locale-independent — the decimal point is '.'
/// under any global locale. Non-finite values have no JSON spelling and
/// serialize as `null`.
void append_double(std::string& out, double v);

/// `append_double` into a fresh string.
std::string format_double(double v);

/// Writes `text` to `path`. Returns false after a stderr diagnosis on an
/// IO failure so callers can turn it into a nonzero exit.
bool save_text_file(const std::string& path, const std::string& text);

/// Machine-readable benchmark/metrics output: a flat list of
/// name/value/unit records serialized as JSON. This is the repo's perf
/// trajectory format (`BENCH_*.json`): every record is one measured
/// scalar, names are dotted paths ("e2e.simd_speedup",
/// "kernel.matmul.1024x32x64.simd"), and the CI perf-smoke job uploads
/// the files as artifacts so regressions are diffable across commits.
///
/// Shape:
///   { "bench": "<name>", "results": [
///       {"name": "...", "value": 1.23, "unit": "GFLOP/s"}, ... ] }
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void add(const std::string& name, double value, const std::string& unit);

  /// The full report as a JSON string (round-trip-exact values).
  std::string to_json() const;

  /// Serializes to `path`. Returns false (after a stderr diagnosis) on an
  /// IO failure so benches can turn it into a nonzero exit.
  bool save(const std::string& path) const;

  std::size_t size() const { return recs_.size(); }

 private:
  struct Rec {
    std::string name;
    double value;
    std::string unit;
  };
  std::string bench_;
  std::vector<Rec> recs_;
};

}  // namespace vf::obs
