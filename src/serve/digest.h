// Run digest: every output stream of a serving run reduced to its own
// FNV-1a hash (util/fnv1a.h) over the exact bits, so two runs compare in
// a handful of integer tests and a mismatch names the stream that moved.
//
//   records  every request record of every model, in model-id order:
//            id, stamps, compute/comm, prediction, rejected, deadline_met,
//            retries, first-token stamp, tokens and token stamps
//   resizes  the resize timeline: stamp, from/to devices, depth, migration
//   batches  the dispatch log: stamps, size, devices, depth after, VN,
//            model, kind, device, warm
//   faults   the fault log: stamp, kind, device, skipped, evicted slices,
//            requeued requests, migration
//   trace    the exported trace-event JSON bytes   (0: no recorder)
//   metrics  the exported metrics snapshot bytes   (0: no registry)
//   lease    the controller run that granted the devices, set by the
//            caller from lease_digest() or report_digest() (0: self-driven)
//
// This is how the repo decides "bit-identical" for serving: the golden
// pins in tests/serve/test_serving_golden.cpp freeze these hashes, and
// the serving benches compare them across host worker counts, recorder
// on/off and re-runs of one fault seed (docs/architecture.md, invariant
// 1).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "obs/obs.h"
#include "sched/cluster.h"
#include "serve/colocation.h"
#include "serve/server.h"
#include "util/fnv1a.h"

namespace vf::serve {

/// One hash per output stream of a run (see the file comment).
struct RunDigest {
  std::uint64_t records = 0;
  std::uint64_t resizes = 0;
  std::uint64_t batches = 0;
  std::uint64_t faults = 0;
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
  std::uint64_t lease = 0;
};

/// The schedule streams of one serving loop, viewed in place (the loop
/// must outlive the view). Converts implicitly from either serving class,
/// so `digest(server, obs)` reads as it should; tests build one by hand
/// to digest perturbed copies.
struct LoopStreams {
  std::vector<std::span<const RequestRecord>> records;  ///< per model, id order
  std::span<const ResizeEvent> resizes;
  std::span<const BatchEvent> batches;
  std::span<const FaultRecord> faults;

  LoopStreams() = default;
  LoopStreams(const ColocatedServer& loop);
  LoopStreams(const Server& server);
};

/// Digests the serving loops of one run, after it has finished. Each
/// schedule stream folds the loops in the order given (a cluster run may
/// drive several leases); `recorded` names the sinks the run recorded
/// into, and only their export streams are hashed.
RunDigest digest(const LoopStreams& loop, obs::Observability recorded = {});
RunDigest digest(std::initializer_list<LoopStreams> loops,
                 obs::Observability recorded = {});

/// The lease stream of a controller run: every grant (migration charge
/// included) and the final clock.
std::uint64_t lease_digest(const ClusterReport& report);

/// The whole controller report: every job state field (allocation,
/// timeline, stamps, attained service, live band, SLO pressure), every
/// grant, the training makespan and the final clock.
std::uint64_t report_digest(const ClusterReport& report);

/// Folds an allocation: its type count, then each (type, count) pair.
void add_allocation(Fnv1a& f, const Allocation& a);

/// Name of the first stream in which the runs differ ("records",
/// "resizes", "batches", "faults", "trace", "metrics", "lease"), or
/// nullptr when they are bit-identical. Streams hashed as 0 (not
/// recorded, or self-driven) are compared only when both runs carry them.
const char* first_difference(const RunDigest& a, const RunDigest& b);

}  // namespace vf::serve
