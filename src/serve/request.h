// Inference request/record types for the vf::serve subsystem.
//
// Serving reuses the virtual-node decoupling the paper built for training:
// a request batch is packed onto virtual nodes, and the VN -> device
// mapping (which may change at any moment via an elastic resize) decides
// where the forward passes run. Everything here lives on the *virtual*
// clock: arrival stamps come from a seeded open-loop trace, service times
// from the analytic cost model, so a serving run is a pure function of
// (trace, policy, model, mapping) and replays bit-identically.
//
// Two request shapes share the pipeline:
//   * classify (stream_tokens == 0): one forward pass, one prediction —
//     the single-shot workload every PR before token streaming served.
//   * token stream (stream_tokens > 0): an autoregressive run loop. One
//     long PREFILL slice (prompt_tokens feature rows) admits the request
//     into a VN slot and samples the first token; a chain of short DECODE
//     slices (one row each) then streams the remaining tokens through the
//     same slot, each slice's completion stamping one token.
#pragma once

#include <cstdint>
#include <vector>

namespace vf::serve {

/// The scheduling class of a dispatched slice. Classify and prefill are
/// admission-class work (they take a request off the queue); decode slices
/// are continuation-class (they re-admit a stream into its own slot). The
/// disaggregated scheduling policy (StreamPolicy) ranks the classes.
enum class SliceKind : std::uint8_t { kClassify, kPrefill, kDecode };

/// One inference request. The payload is an index into the request pool
/// dataset (src/data/dataset.h generates example features deterministically
/// on demand), which keeps traces compact and replayable.
struct InferRequest {
  std::int64_t id = 0;            ///< trace position; unique per run
  double arrival_s = 0.0;         ///< arrival stamp on the virtual clock
  std::int64_t example_index = 0; ///< payload: request-pool example
  /// Prompt length of a token stream (prefill feature rows); ignored for
  /// classify requests.
  std::int64_t prompt_tokens = 0;
  /// Total tokens to generate. 0 = single-shot classify; N >= 1 streams N
  /// tokens: the first sampled at the prefill's completion, the rest by
  /// N - 1 decode slices.
  std::int64_t stream_tokens = 0;

  /// Fault-recovery accounting (src/fault/). A device kill evicts the
  /// request's in-flight slice and requeues it: `retries` counts those
  /// round-trips, `requeue_s` stamps the latest re-entry into the queue,
  /// and `queue_wait_accum_s` accumulates the waits that preceded each
  /// failed dispatch — so the final record's queue_wait_s stays the honest
  /// total time spent queued, not just the last stretch.
  std::int64_t retries = 0;
  double requeue_s = 0.0;
  double queue_wait_accum_s = 0.0;

  /// Stamp the request last entered the queue: `requeue_s` after a fault
  /// eviction, the arrival otherwise.
  double enqueued_s() const { return retries > 0 ? requeue_s : arrival_s; }
};

/// Per-request accounting recorded by the SloTracker once a request leaves
/// the system (served, rejected at admission, or shed).
struct RequestRecord {
  std::int64_t id = 0;
  double arrival_s = 0.0;
  double dispatch_s = 0.0;    ///< left the queue: batch execution start, or
                              ///< admission into an in-flight VN slot
  double queue_wait_s = 0.0;  ///< total time queued: arrival -> dispatch, plus
                              ///< any earlier waits before fault-evicted
                              ///< dispatches (see InferRequest::retries)
  double compute_s = 0.0;     ///< cost-model forward time of its batch/slice
                              ///< (summed over a stream's slices)
  double comm_s = 0.0;        ///< logits return of its batch/slice (summed)
  double finish_s = 0.0;      ///< virtual completion stamp
  std::int64_t prediction = -1;  ///< classify: argmax; stream: last token
  bool rejected = false;      ///< bounced at admission (queue full) or shed
  bool deadline_met = false;  ///< classify: latency SLO; stream: TTFT SLO
  std::int64_t retries = 0;   ///< fault evictions before completing or shedding

  /// Token stream accounting; all empty/zero for classify requests.
  double first_token_s = 0.0;  ///< prefill completion (first token) stamp
  std::vector<std::int64_t> tokens;  ///< greedily sampled token ids, in order
  std::vector<double> token_stamps;  ///< per-token completion stamps (same order)

  bool streamed() const { return !token_stamps.empty(); }
  double latency_s() const { return finish_s - arrival_s; }
  /// Time-to-first-token: arrival until the prefill's token lands — the
  /// latency a streaming client perceives as responsiveness.
  double ttft_s() const { return first_token_s - arrival_s; }
  /// Time spent inside the system after leaving the queue (in a forming
  /// batch's execution or an in-flight slot): latency minus queue wait.
  double inflight_s() const { return finish_s - dispatch_s; }
};

}  // namespace vf::serve
