#include "serve/slo_tracker.h"

#include <algorithm>

#include "util/common.h"
#include "util/stats.h"

namespace vf::serve {

SloTracker::SloTracker(double deadline_s) : deadline_s_(deadline_s) {
  check(deadline_s > 0.0, "SLO deadline must be positive");
}

void SloTracker::record_completion(RequestRecord r) {
  check(!r.rejected, "use record_rejection for rejected requests");
  check(r.finish_s >= r.arrival_s, "completion before arrival");
  check(r.dispatch_s >= r.arrival_s && r.dispatch_s <= r.finish_s,
        "dispatch stamp must lie between arrival and completion");
  if (r.streamed()) {
    check(r.tokens.size() == r.token_stamps.size(),
          "streamed record must stamp every token");
    check(r.first_token_s >= r.dispatch_s && r.first_token_s <= r.finish_s,
          "first-token stamp must lie between dispatch and completion");
  }
  // A stream's deadline is its TTFT — total latency scales with requested
  // length, so completion time is not the responsiveness SLO.
  r.deadline_met = (r.streamed() ? r.ttft_s() : r.latency_s()) <= deadline_s_;
  if (!r.deadline_met) {
    ++deadline_misses_;
    if (misses_ != nullptr) misses_->add();
  }
  ++completed_;
  if (completions_ != nullptr) completions_->add();
  if (latency_hist_ != nullptr) latency_hist_->observe(r.latency_s());
  if (queue_wait_hist_ != nullptr) queue_wait_hist_->observe(r.queue_wait_s);
  records_.push_back(std::move(r));
}

void SloTracker::record_rejection(const InferRequest& r, double now_s) {
  RequestRecord rec;
  rec.id = r.id;
  rec.arrival_s = r.arrival_s;
  // A rejection leaves the system the instant it is bounced: stamp
  // dispatch = finish = the rejection time. Leaving dispatch_s at zero
  // made inflight_s() read as now_s — a wall-clock-sized garbage value
  // that poisoned any aggregate mixing rejected records in.
  rec.dispatch_s = now_s;
  rec.queue_wait_s = now_s - r.arrival_s;
  rec.finish_s = now_s;
  rec.rejected = true;
  rec.deadline_met = false;
  rec.retries = r.retries;  // a requeued request can be shed
  ++rejected_;
  if (rejections_ != nullptr) rejections_->add();
  records_.push_back(std::move(rec));
}

void SloTracker::set_metrics(obs::MetricsRegistry* metrics,
                             const std::string& prefix) {
  if (metrics == nullptr) {
    completions_ = rejections_ = misses_ = nullptr;
    latency_hist_ = queue_wait_hist_ = nullptr;
    return;
  }
  completions_ = &metrics->counter(prefix + "requests.completed");
  rejections_ = &metrics->counter(prefix + "requests.rejected");
  misses_ = &metrics->counter(prefix + "requests.deadline_misses");
  // Fixed edges spanning 1 ms .. 10 s of virtual latency — wide enough for
  // every serving scenario in bench/, stable so snapshots stay comparable.
  static const std::vector<double> kLatencyEdges = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0};
  latency_hist_ = &metrics->histogram(prefix + "latency_s", kLatencyEdges);
  queue_wait_hist_ = &metrics->histogram(prefix + "queue_wait_s", kLatencyEdges);
}

void SloTracker::export_summary(const SloSummary& s, obs::MetricsRegistry& metrics,
                                const std::string& prefix, double now_s) {
  const auto set = [&](const char* name, double v) {
    metrics.gauge(prefix + "slo." + name).set(v, now_s);
  };
  set("completed", static_cast<double>(s.completed));
  set("rejected", static_cast<double>(s.rejected));
  set("deadline_misses", static_cast<double>(s.deadline_misses));
  set("retried", static_cast<double>(s.retried));
  set("retries", static_cast<double>(s.retries));
  set("hit_rate", s.hit_rate);
  set("p50_s", s.p50_s);
  set("p95_s", s.p95_s);
  set("p99_s", s.p99_s);
  set("mean_s", s.mean_s);
  set("mean_queue_wait_s", s.mean_queue_wait_s);
  set("p99_queue_wait_s", s.p99_queue_wait_s);
  set("mean_inflight_s", s.mean_inflight_s);
  set("streams", static_cast<double>(s.streams));
  set("tokens", static_cast<double>(s.tokens));
  set("p50_ttft_s", s.p50_ttft_s);
  set("p99_ttft_s", s.p99_ttft_s);
  set("mean_itl_s", s.mean_itl_s);
}

std::int64_t SloTracker::completed() const { return completed_; }
std::int64_t SloTracker::rejected() const { return rejected_; }

namespace {
/// Projects `metric` over every completed (non-rejected) record.
template <typename Metric>
std::vector<double> completed_samples(const std::vector<RequestRecord>& records,
                                      Metric metric) {
  std::vector<double> xs;
  xs.reserve(records.size());
  for (const RequestRecord& r : records)
    if (!r.rejected) xs.push_back(metric(r));
  return xs;
}

/// Percentile with serving edge-case semantics: an empty sample set has no
/// latency (0.0, never a throw/NaN); util/stats handles one sample and
/// all-identical samples exactly (any percentile is the common value).
double safe_percentile(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : percentile(xs, p);
}
}  // namespace

double SloTracker::latency_percentile_s(double p) const {
  return safe_percentile(
      completed_samples(records_, [](const RequestRecord& r) { return r.latency_s(); }),
      p);
}

double SloTracker::queue_wait_percentile_s(double p) const {
  return safe_percentile(
      completed_samples(records_,
                        [](const RequestRecord& r) { return r.queue_wait_s; }),
      p);
}

SloSummary SloTracker::summary() const {
  SloSummary s;
  s.completed = completed_;
  s.rejected = rejected_;
  s.deadline_misses = deadline_misses_;
  const std::vector<double> xs = completed_samples(
      records_, [](const RequestRecord& r) { return r.latency_s(); });
  if (!xs.empty()) {
    // Sort each sample set once and read every percentile off it (the
    // read-outs are bit-equal to one percentile() call per p, which
    // re-sorted a by-value copy five times per summary).
    const std::vector<double> lat_ps = percentiles(xs, {0.50, 0.95, 0.99});
    s.p50_s = lat_ps[0];
    s.p95_s = lat_ps[1];
    s.p99_s = lat_ps[2];
    s.mean_s = mean(xs);
    s.max_s = max_of(xs);
    s.hit_rate = static_cast<double>(completed_ - deadline_misses_) /
                 static_cast<double>(completed_);
    const std::vector<double> waits = completed_samples(
        records_, [](const RequestRecord& r) { return r.queue_wait_s; });
    const std::vector<double> inflight = completed_samples(
        records_, [](const RequestRecord& r) { return r.inflight_s(); });
    s.mean_queue_wait_s = mean(waits);
    const std::vector<double> wait_ps = percentiles(waits, {0.95, 0.99});
    s.p95_queue_wait_s = wait_ps[0];
    s.p99_queue_wait_s = wait_ps[1];
    s.mean_inflight_s = mean(inflight);
  }

  // Retries over every record (served or shed); streaming read-outs: TTFT
  // per completed stream, ITL per consecutive token pair within each stream.
  std::vector<double> ttft;
  std::vector<double> itl;
  for (const RequestRecord& r : records_) {
    s.retried += r.retries > 0 ? 1 : 0;
    s.retries += r.retries;
    if (r.rejected || !r.streamed()) continue;
    ++s.streams;
    s.tokens += static_cast<std::int64_t>(r.tokens.size());
    ttft.push_back(r.ttft_s());
    for (std::size_t i = 1; i < r.token_stamps.size(); ++i)
      itl.push_back(r.token_stamps[i] - r.token_stamps[i - 1]);
  }
  if (!ttft.empty()) {
    const std::vector<double> ttft_ps = percentiles(ttft, {0.50, 0.95, 0.99});
    s.p50_ttft_s = ttft_ps[0];
    s.p95_ttft_s = ttft_ps[1];
    s.p99_ttft_s = ttft_ps[2];
  }
  if (!itl.empty()) {
    s.mean_itl_s = mean(itl);
    s.p99_itl_s = percentile(itl, 0.99);
  }
  return s;
}

}  // namespace vf::serve
