// Shared plumbing for the paper-experiment benchmark harnesses: flag
// parsing, engine construction from (task, mapping), and output helpers.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (§6), printing the same rows/series the paper reports plus a
// `paper=` reference where a published number exists (README.md,
// "Benchmarks", lists how to run them).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "virtualflow.h"

namespace vf::bench {

/// Exit code used for command-line usage errors (unknown or malformed
/// flags). Distinct from 1, which benches use for failed acceptance checks.
inline constexpr int kUsageErrorExit = 2;

/// Minimal --key=value flag parser. Unknown or malformed flags are a
/// usage error: the constructor prints a one-line diagnosis plus the known
/// flag list to stderr and exits with `kUsageErrorExit` — never an
/// uncaught-exception abort, and never a silent ignore — so typos in sweep
/// scripts and CI smoke invocations fail loudly and legibly. Every bench
/// implicitly understands `--smoke=1`: CTest's `bench-smoke` label runs
/// each binary that way, and benches shrink their workload via the
/// smoke-default accessors below so the harness finishes in seconds
/// instead of minutes. `--json=<path>` is likewise parsed everywhere,
/// but only benches that build a JsonReport write the file (today:
/// bench_hotpath, bench_serving) — adopt it when adding records to the
/// perf trajectory. `--trace=<path>` / `--metrics=<path>` follow the same
/// pattern for the runtime observability outputs (Chrome trace-event JSON
/// and a MetricsRegistry snapshot; see src/obs/): the serving benches
/// write them, others accept-and-ignore.
class Flags {
 public:
  Flags(int argc, char** argv, const std::map<std::string, std::string>& known);

  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  std::string get_string(const std::string& key, const std::string& def) const;

  /// True when the binary was invoked with --smoke=1.
  bool smoke() const { return get_int("smoke", 0) != 0; }
  /// Path passed via --json=<path>, empty when absent.
  std::string json_path() const { return get_string("json", ""); }
  /// Path passed via --trace=<path> (Chrome trace-event JSON output).
  std::string trace_path() const { return get_string("trace", ""); }
  /// Path passed via --metrics=<path> (MetricsRegistry snapshot output).
  std::string metrics_path() const { return get_string("metrics", ""); }
  /// True when `key` was explicitly passed on the command line (as opposed
  /// to falling back to its default). Lets a bench distinguish its
  /// calibrated default workload (where acceptance claims are enforced)
  /// from an exploratory sweep (where they are informational).
  bool overridden(const std::string& key) const { return values_.count(key) > 0; }
  /// Like get_int, but the default shrinks to `smoke_def` under --smoke=1.
  /// An explicit --key=value always wins.
  std::int64_t get_int(const std::string& key, std::int64_t def,
                       std::int64_t smoke_def) const;
  double get_double(const std::string& key, double def, double smoke_def) const;

  bool help_requested() const { return help_; }
  void print_help(const std::string& title) const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> known_;
  bool help_ = false;
};

/// Builds a ready-to-run engine for a proxy task.
struct EngineSetup {
  ProxyTask task;
  TrainRecipe recipe;
  VirtualFlowEngine engine;
};

/// `total_vns` virtual nodes over `num_devices` devices of `type`, at the
/// task's reference batch (or `batch_override` if > 0). Memory checks use
/// the given paper-model profile.
EngineSetup make_setup(const std::string& task_name, const std::string& profile_name,
                       std::int64_t total_vns, std::int64_t num_devices,
                       DeviceType type, std::uint64_t seed,
                       std::int64_t batch_override = -1,
                       std::int64_t epochs_override = -1);

/// One proxy task's datasets, model and training recipe: what the serving
/// benches build their engines from. Engines borrow the box's recipe and
/// training set, so the box must outlive them.
struct TaskBox {
  ProxyTask task;
  Sequential model;
  TrainRecipe recipe;

  /// `batch` > 0 replaces the task's reference global batch.
  TaskBox(const std::string& task_name, std::uint64_t seed, std::int64_t batch = -1);

  /// `vns` virtual nodes evenly over `devices` V100s at the recipe's
  /// global batch, timed by the `profile` paper model, `workers` host
  /// threads, engine seed `seed`; simulated memory limits off (the proxy
  /// models are tiny).
  VirtualFlowEngine engine(const std::string& profile, std::int64_t vns,
                           std::int64_t devices, std::int64_t workers,
                           std::uint64_t seed) const;
};

/// A bit-identity claim's verdict: "yes", or "NO — BUG (<stream> moved)"
/// for the stream serve::first_difference named.
std::string identity_verdict(const char* moved);

/// `moved` unless it names an export stream ("trace", "metrics"): the
/// verdict of a schedule-only claim line next to a byte-identity line.
const char* schedule_only(const char* moved);

/// Prints "name: measured vs paper (delta)" comparison lines.
void print_claim(const std::string& name, double measured, double paper,
                 const std::string& unit = "");

/// The perf-trajectory report writer moved into the library proper
/// (src/obs/json.h) when the observability layer generalized it into the
/// runtime metrics sink; the alias keeps every bench compiling unchanged.
/// Doubles are now written round-trip-exact and locale-independent.
using JsonReport = vf::obs::JsonReport;

}  // namespace vf::bench
