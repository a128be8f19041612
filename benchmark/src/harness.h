// vfbench harness: host timing, robust statistics, outside-in span
// recording, the result record, and the host fingerprint.
//
// Two clocks. Every number vfbench reports names its clock: "virtual" is
// the library's deterministic cost-model clock (SLOs, makespans, step
// times of the modelled devices) and repeats bit-for-bit for a seed;
// "host" is this process's steady wall clock — what the kernels, the
// engine and the event loops actually cost here.
//
// Host statistic. On shared CPU hosts the same work has been observed to
// run in two speed modes (vectorized code up to ~1.7x slower in the slow
// one) that switch on second timescales and can hold for 10+ s, so the
// median of a run's per-unit samples lands in either mode from run to run.
// The fast tail stays put as long as a tenth of the run saw the fast mode:
// host throughput is the p90 of per-unit rates — items over the p10 unit
// time (one unit = one train step, one serving replay, one cluster run) —
// and per-layer host times are p10s. n, p10, the quartiles and the
// highest percentile with >= 10 samples beyond it ride along as
// diagnostics, plus the statistic recomputed over five time-ordered chunks
// of the run: a within-run estimate of how far it moves between runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace vfbench {

/// Steady host clock, seconds since an arbitrary epoch.
double now_s();

/// The host statistic: p10 of a set of per-unit host times (see above).
inline constexpr double kHostQuantile = 0.1;
double host_quantile(const std::vector<double>& unit_s);

/// Order statistics of a host sample set. `tail_p` is the highest of
/// {0.99, 0.95, 0.9, 0.75, 0.5} with at least ten samples beyond it
/// (0 when fewer than 20 samples exist); `tail` is that percentile.
/// `chunks` holds the metric's own percentile over five time-ordered
/// slices of the samples (fewer when there are fewer than five samples).
struct SampleStats {
  std::int64_t n = 0;
  double p10 = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double tail_p = 0.0;
  double tail = 0.0;
  std::vector<double> chunks;
};
SampleStats summarize(const std::vector<double>& samples, double q);

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;  ///< measured-phase budget (trials loop)
  bool traced = false;    ///< per-layer run (a separate process)
  bool smoke = false;     ///< shrink trial counts only (CTest)
  std::string git_sha = "unknown";
};

/// Runs `trial(i)` for i = 0, 1, ... while another trial of the mean length
/// still fits in `seconds` of host time, and at least `min_trials` times.
/// Smoke mode runs exactly `smoke_trials`. Returns the number of trials.
std::int64_t run_trials(const RunOptions& opt, std::int64_t min_trials,
                        std::int64_t smoke_trials,
                        const std::function<void(std::int64_t)>& trial);

/// Seed of input realization `k` of a run: realization 0 is `seed` itself,
/// the rest are derived from it. Virtual-clock outcomes whose value swings
/// with the arrival realization (elastic thrash onset, SLO goodput past it)
/// are averaged over many realizations, so they move little from seed to
/// seed while still repeating bit for bit for one seed.
std::uint64_t realization_seed(std::uint64_t seed, std::int64_t k);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< "host" or "virtual"
  bool has_stats = false;
  SampleStats stats;  ///< per-unit host samples behind `value`
};

/// Everything one vfbench process reports. Serialized as the
/// results/<workload>.json record that benchmark/run.py reads.
class Result {
 public:
  /// End-to-end metric (untraced run).
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& clock);
  /// "host_items_per_s": the p90 of per-unit rates (items of unit i over
  /// its host seconds), in the order the units ran.
  void host_throughput(const std::vector<double>& unit_rates);
  /// "setup_s": the host statistic of the per-trial set-up times.
  void host_setup(const std::vector<double>& setup_s);
  /// Per-layer metric (traced run).
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& clock);
  /// Workload-specific diagnostic: written to the result file, never part
  /// of the declared metric sets.
  void detail(const std::string& name, double value, const std::string& unit,
              const std::string& clock);
  /// A correctness check; any failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& what = "");
  /// Units of work attempted / failed (attempted >= 1 for a valid run).
  void count_work(std::int64_t attempted, std::int64_t failed);
  /// host_calib_us() taken before and after the workload (fingerprint).
  void set_calibration(double before_us, double after_us);

  bool correct() const;
  std::string to_json(const RunOptions& opt) const;

 private:
  struct Check {
    std::string name;
    bool ok = false;
    std::string what;
  };
  /// The q-th percentile of time-ordered per-unit samples, with their stats.
  void host_metric(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples, double q);
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, Metric> details_;
  std::vector<Check> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  double calib_before_us_ = 0.0;
  double calib_after_us_ = 0.0;
};

/// Host spans recorded from the benchmark's own code around calls into
/// the library's public functions. Kept in memory, written once at the
/// end as Chrome trace-event JSON on the host clock — a file separate
/// from the library's byte-identical virtual-clock exports. Recording
/// stops at a fixed event cap (the counters the metrics come from do
/// not); dropped spans are counted in the file.
class SpanLog {
 public:
  static constexpr std::int64_t kNone = -1;
  static constexpr std::size_t kCap = 50000;

  explicit SpanLog(bool enabled);

  /// Opens a span; returns its id (kNone when recording is off or full).
  std::int64_t begin(const char* name, std::int64_t parent, std::int64_t trial,
                     std::int64_t step);
  void end(std::int64_t id);
  /// Records an already-measured interval.
  std::int64_t add(const char* name, double start_s, double end_s,
                   std::int64_t parent, std::int64_t trial, std::int64_t step);

  std::string to_json() const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    std::int64_t parent;
    std::int64_t trial;
    std::int64_t step;
  };
  bool enabled_;
  std::int64_t dropped_ = 0;
  double origin_s_;
  std::vector<Span> spans_;
};

/// The host statistic (microseconds) of a fixed floating-point loop, taken
/// before and after each workload, so host drift can be told apart from a
/// code change.
double host_calib_us();

/// Peak resident set of this process image, MB: VmHWM, which (unlike
/// getrusage's ru_maxrss) does not inherit the launching process's peak
/// across exec.
double peak_rss_mb();

/// Kernel throughput on one workload shape, default tier, GFLOP/s:
/// forward out = x @ W ([rows x in] @ [in x out]), weight gradient
/// dW = x^T @ g, input gradient dx = g @ W^T. Each takes the host
/// statistic of the per-call time over repeated timed batches of calls.
struct KernelRates {
  double fwd_gflops = 0.0;
  double dw_gflops = 0.0;
  double dx_gflops = 0.0;
};
KernelRates measure_kernels(std::int64_t rows, std::int64_t in, std::int64_t out,
                            std::uint64_t seed, bool smoke);

/// Hashes doubles/ints bit-for-bit; the trial-identity witness.
class BitHash {
 public:
  void add(double v);
  void add(std::int64_t v);
  void add(std::span<const float> v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace vfbench
