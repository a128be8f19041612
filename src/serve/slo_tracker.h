// SloTracker: per-request latency accounting and SLO percentiles.
//
// Latency decomposes exactly the way the serving loop spends virtual time:
// queue wait (admission -> batch formation) + cost-model compute + result
// comm. Percentiles use util/stats (linear interpolation between order
// statistics) over completed requests only; rejected requests are counted
// separately — a rejection is an SLO event of its own, not an infinite
// latency sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/request.h"

namespace vf::serve {

/// Aggregate serving quality over one replay. All fields are well-defined
/// for any sample count — with zero completions the percentiles, means,
/// and rates are exactly 0.0 (never NaN); with one sample every percentile
/// equals that sample.
struct SloSummary {
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t deadline_misses = 0;
  /// Requests that survived at least one fault eviction, served or shed,
  /// and the total evictions across them — the retry/requeue read-out of
  /// the fault story (docs/fault_tolerance.md). Queue-wait stats above
  /// already count pre-eviction waits (RequestRecord::queue_wait_s is the
  /// honest total).
  std::int64_t retried = 0;
  std::int64_t retries = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
  double max_s = 0.0;
  /// Fraction of *admitted* requests that met the deadline.
  double hit_rate = 0.0;
  // Latency decomposition: latency = queue wait (arrival -> dispatch) +
  // in-flight time (dispatch -> completion). Continuous batching exists to
  // shrink the first term; the A/B bench compares exactly these.
  double mean_queue_wait_s = 0.0;
  double p95_queue_wait_s = 0.0;
  double p99_queue_wait_s = 0.0;
  double mean_inflight_s = 0.0;

  // Token-streaming read-outs, over streamed completions only (all zero in
  // a pure-classify replay). TTFT — arrival to first token — is the SLO a
  // streaming client feels; inter-token latency (ITL, consecutive token
  // stamp gaps) is the cadence of the decode chain afterwards.
  std::int64_t streams = 0;       ///< completed streamed requests
  std::int64_t tokens = 0;        ///< total tokens across completed streams
  double p50_ttft_s = 0.0;
  double p95_ttft_s = 0.0;
  double p99_ttft_s = 0.0;
  double mean_itl_s = 0.0;
  double p99_itl_s = 0.0;
};

class SloTracker {
 public:
  /// `deadline_s` is the per-request latency SLO: arrival -> completion
  /// for classify requests, arrival -> FIRST TOKEN (TTFT) for token
  /// streams — a stream's total latency scales with its requested length,
  /// so responsiveness, not completion, is the meaningful deadline.
  explicit SloTracker(double deadline_s);

  double deadline_s() const { return deadline_s_; }

  /// Records a served request; stamps `deadline_met` from the tracker's SLO.
  void record_completion(RequestRecord r);

  /// Records a rejection (queue full at admission, or a deadline shed) at
  /// time `now_s`; the record keeps the request's retries.
  void record_rejection(const InferRequest& r, double now_s);

  std::int64_t completed() const;
  std::int64_t rejected() const;

  /// Latency percentile over completed requests, p in [0, 1]. Returns 0.0
  /// when nothing has completed (an empty replay has no latency, not an
  /// undefined one); a single sample is every percentile of itself.
  double latency_percentile_s(double p) const;

  /// Queue-wait percentile over completed requests; same edge-case
  /// semantics as latency_percentile_s.
  double queue_wait_percentile_s(double p) const;

  SloSummary summary() const;

  /// Every record in completion/rejection order — the bit-exactness
  /// witness the determinism tests and bench_serving compare across
  /// worker counts.
  const std::vector<RequestRecord>& records() const { return records_; }

  /// Attaches per-request metrics under `prefix`: completion/rejection/
  /// deadline-miss counters plus latency and queue-wait histograms
  /// (fixed edges; see docs/metrics.md). The registry must outlive the
  /// tracker; instrument pointers are cached so the record path stays
  /// allocation-free. Null detaches.
  void set_metrics(obs::MetricsRegistry* metrics, const std::string& prefix);

  /// Writes `summary()` into `metrics` as "<prefix>slo.*" gauges stamped
  /// at virtual time `now_s` — the SloTracker summary export the serving
  /// loops call once per replay.
  static void export_summary(const SloSummary& s, obs::MetricsRegistry& metrics,
                             const std::string& prefix, double now_s);

 private:
  double deadline_s_;
  std::vector<RequestRecord> records_;
  std::int64_t completed_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t deadline_misses_ = 0;
  // Cached instrument pointers (null = off); see set_metrics.
  obs::Counter* completions_ = nullptr;
  obs::Counter* rejections_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
};

}  // namespace vf::serve
