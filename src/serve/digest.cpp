#include "serve/digest.h"

namespace vf::serve {

namespace {

void add_records(Fnv1a& f, std::span<const RequestRecord> records) {
  f.add(static_cast<std::int64_t>(records.size()));
  for (const RequestRecord& r : records) {
    f.add(r.id);
    f.add(r.arrival_s);
    f.add(r.dispatch_s);
    f.add(r.queue_wait_s);
    f.add(r.compute_s);
    f.add(r.comm_s);
    f.add(r.finish_s);
    f.add(r.prediction);
    f.add(static_cast<std::int64_t>(r.rejected));
    f.add(static_cast<std::int64_t>(r.deadline_met));
    f.add(r.retries);
    f.add(r.first_token_s);
    f.add(static_cast<std::int64_t>(r.tokens.size()));
    for (const std::int64_t t : r.tokens) f.add(t);
    for (const double s : r.token_stamps) f.add(s);
  }
}

void add_resizes(Fnv1a& f, std::span<const ResizeEvent> resizes) {
  f.add(static_cast<std::int64_t>(resizes.size()));
  for (const ResizeEvent& e : resizes) {
    f.add(e.time_s);
    f.add(e.from_devices);
    f.add(e.to_devices);
    f.add(e.queue_depth);
    f.add(e.migration_s);
  }
}

void add_batches(Fnv1a& f, std::span<const BatchEvent> batches) {
  f.add(static_cast<std::int64_t>(batches.size()));
  for (const BatchEvent& b : batches) {
    f.add(b.start_s);
    f.add(b.finish_s);
    f.add(b.size);
    f.add(b.devices);
    f.add(b.queue_depth_after);
    f.add(static_cast<std::int64_t>(b.vn));
    f.add(static_cast<std::int64_t>(b.model));
    f.add(static_cast<std::int64_t>(b.kind));
    f.add(b.device);
    f.add(static_cast<std::int64_t>(b.warm));
  }
}

void add_faults(Fnv1a& f, std::span<const FaultRecord> faults) {
  f.add(static_cast<std::int64_t>(faults.size()));
  for (const FaultRecord& r : faults) {
    f.add(r.time_s);
    f.add(static_cast<std::int64_t>(r.kind));
    f.add(r.device);
    f.add(static_cast<std::int64_t>(r.skipped));
    f.add(r.evicted_slices);
    f.add(r.requeued_requests);
    f.add(r.migration_s);
  }
}

void add_grants(Fnv1a& f, const std::vector<GrantRecord>& grants) {
  f.add(static_cast<std::int64_t>(grants.size()));
  for (const GrantRecord& g : grants) {
    f.add(g.time_s);
    f.add(g.job_id);
    f.add(g.from_devices);
    f.add(g.to_devices);
    f.add(g.migration_s);
  }
}

/// Streams that only some runs carry compare only when both do.
bool both_differ(std::uint64_t a, std::uint64_t b) { return a != 0 && b != 0 && a != b; }

RunDigest digest_loops(std::span<const LoopStreams> loops, obs::Observability recorded) {
  Fnv1a records, resizes, batches, faults;
  for (const LoopStreams& loop : loops) {
    for (const std::span<const RequestRecord> model : loop.records)
      add_records(records, model);
    add_resizes(resizes, loop.resizes);
    add_batches(batches, loop.batches);
    add_faults(faults, loop.faults);
  }
  RunDigest d{.records = records.h, .resizes = resizes.h, .batches = batches.h,
              .faults = faults.h};
  if (recorded.trace != nullptr) {
    Fnv1a f;
    f.add_bytes(recorded.trace->to_json());
    d.trace = f.h;
  }
  if (recorded.metrics != nullptr) {
    Fnv1a f;
    f.add_bytes(recorded.metrics->to_json());
    d.metrics = f.h;
  }
  return d;
}

}  // namespace

LoopStreams::LoopStreams(const ColocatedServer& loop)
    : resizes(loop.resizes()), batches(loop.batches()), faults(loop.faults()) {
  for (std::int32_t m = 0; m < loop.num_models(); ++m)
    records.emplace_back(loop.slo(m).records());
}

LoopStreams::LoopStreams(const Server& server)
    : records{server.slo().records()},
      resizes(server.resizes()),
      batches(server.batches()),
      faults(server.faults()) {}

RunDigest digest(const LoopStreams& loop, obs::Observability recorded) {
  return digest_loops({&loop, 1}, recorded);
}

RunDigest digest(std::initializer_list<LoopStreams> loops, obs::Observability recorded) {
  return digest_loops({loops.begin(), loops.size()}, recorded);
}

std::uint64_t lease_digest(const ClusterReport& report) {
  Fnv1a f;
  add_grants(f, report.grants);
  f.add(report.end_s);
  return f.h;
}

std::uint64_t report_digest(const ClusterReport& report) {
  Fnv1a f;
  f.add(static_cast<std::int64_t>(report.jobs.size()));
  for (const JobState& j : report.jobs) {
    f.add(j.spec.id);
    f.add(j.remaining_steps);
    add_allocation(f, j.alloc);
    f.add(j.first_start_s);
    f.add(j.completion_s);
    f.add(j.pause_until_s);
    f.add(j.attained_service);
    f.add(j.resizes);
    f.add(static_cast<std::int64_t>(j.timeline.size()));
    for (const AllocSegment& s : j.timeline) {
      f.add(s.t0);
      f.add(s.t1);
      add_allocation(f, s.alloc);
    }
    f.add(j.desired_gpus);
    f.add(j.live_min_gpus);
    f.add(j.live_max_gpus);
    f.add(j.slo_pressure);
  }
  add_grants(f, report.grants);
  f.add(report.train_makespan_s);
  f.add(report.end_s);
  return f.h;
}

void add_allocation(Fnv1a& f, const Allocation& a) {
  f.add(static_cast<std::int64_t>(a.per_type.size()));
  for (const auto& [type, count] : a.per_type) {
    f.add(static_cast<std::int64_t>(type));
    f.add(count);
  }
}

const char* first_difference(const RunDigest& a, const RunDigest& b) {
  if (a.records != b.records) return "records";
  if (a.resizes != b.resizes) return "resizes";
  if (a.batches != b.batches) return "batches";
  if (a.faults != b.faults) return "faults";
  if (both_differ(a.trace, b.trace)) return "trace";
  if (both_differ(a.metrics, b.metrics)) return "metrics";
  if (both_differ(a.lease, b.lease)) return "lease";
  return nullptr;
}

}  // namespace vf::serve
