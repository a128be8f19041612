// vf::serve::Server — deadline-aware inference serving of ONE model on
// virtual nodes.
//
//   arrival trace ──> RequestQueue ──> batching ──> engine.infer ──> SloTracker
//        (open loop)   (bounded,        (two modes,    (forward-only     (p50/p95/p99,
//                       backpressure)    below)          on VNs)           deadlines)
//
// Server is a facade: it registers its one engine in a ModelRegistry and
// forwards every call to a ColocatedServer (serve/colocation.h), whose
// event loop is the only serving loop in the repo. Serving one model is
// the one-tenant case of several models sharing a device set: a
// migration rolls exactly as it does for N models (arrivals keep being
// admitted; new dispatches wait for the cutover stamp), and only the
// export labels differ: the trace carries model id -1, and metrics live
// under "serve.".
//
// Two batching modes, selected by ServerConfig::continuous:
//
//   * Batch-boundary (BatchFormer): the classic size-or-timeout policy —
//     a batch forms, every slice runs, every request in it finishes at
//     the batch barrier, and only then is the queue drained again.
//   * Continuous (SlotLedger): every virtual node is an independent slot.
//     A slice is admitted the moment a slot is free (FIFO prefix, lowest
//     VN id first), runs to its *own* completion time from the per-slice
//     cost model, and frees the slot — newly arrived requests flow into
//     the partially-formed in-flight batch instead of waiting for the
//     next full drain, which is what cuts queue wait at high load.
//
// Continuous mode also serves TOKEN STREAMS (requests with
// stream_tokens > 0): a long prefill slice admits the stream into a slot
// and samples its first token; short decode slices then chain through the
// same slot (SlotLedger::readmit), one token per completion. With
// StreamPolicy::disaggregate the scheduler may pause a stream at a token
// boundary to lend its slot to a queued prefill — see serve/streaming.h.
//
// Elasticity: when queue plus in-flight load crosses hysteresis
// watermarks the server calls the engine's seamless resize(), growing or
// shrinking the device set under the *same* virtual nodes. In-flight
// slices keep the completion times the old mapping scheduled (compute is
// never interrupted), and the migration charge delays only subsequent
// dispatches: they wait for the "cutover" stamp the trace marks.
//
// Determinism contract: a replay is a pure function of (trace, policies,
// engine construction) — host worker count (EngineConfig::num_threads)
// can change wall-clock speed but not one bit of the records.
// bench_serving and tests/serve/ verify this across num_threads in
// {0, 2, 8} for both modes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/colocation.h"

namespace vf::serve {

struct ServerConfig {
  std::int64_t queue_capacity = 1024;
  BatchPolicy batch;
  double deadline_s = 0.5;  ///< per-request latency SLO
  ElasticPolicy elastic;
  /// Continuous (in-flight) batching: per-VN slots freed as slices finish,
  /// arrivals admitted into the partially-formed in-flight batch. False
  /// keeps the drain-at-batch-boundary BatchFormer. In continuous mode a
  /// slice dispatches onto a free VN when a full slice's worth of requests
  /// (the VN's mapping batch share) is queued or the oldest request has
  /// waited `batch.max_wait_s` — the same size-or-timeout policy applied
  /// at slice granularity; `batch.max_batch` is a batch-boundary knob and
  /// is not consulted.
  bool continuous = false;
  /// Token-stream scheduling (prefill/decode disaggregation). Traces with
  /// stream requests require continuous mode — a stream is a slice chain
  /// through a VN slot, which batch-boundary mode has no notion of.
  StreamPolicy stream;
  /// Deadline-aware load shedding at the queue head
  /// (RequestQueue::shed_expired with `deadline_s`): after each admission
  /// pass, queued requests already past the SLO are dropped instead of
  /// dispatched to a guaranteed miss — the graceful-degradation arm of the
  /// fault story under sustained capacity loss. Every request served is
  /// then dispatched by arrival + `deadline_s`. Off by default: shedding
  /// changes which requests are served, so it is opt-in per workload
  /// (bench_faults turns it on).
  bool shed_expired = false;
};

// ElasticPolicy, ResizeEvent and FaultRecord live in serve/colocation.h,
// BatchEvent in serve/dispatch.h (which colocation.h includes).

class Server : public sched::DeviceLease {
 public:
  /// `engine` supplies the model, mapping, and resize machinery;
  /// `request_pool` generates request payload features on demand. Both
  /// must outlive the server.
  Server(VirtualFlowEngine& engine, const Dataset& request_pool, ServerConfig config);

  /// Non-copyable, non-movable: the loop holds a reference to this
  /// server's registry, which a copy or move would leave dangling at the
  /// original address.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches observability sinks (obs/obs.h; either pointer may be null).
  /// Must be called before replay(); the referents must outlive it. With a
  /// TraceRecorder attached the replay records one span per slice/batch on
  /// its device's track plus instant markers (resize, cutover, preempt,
  /// reject); with a MetricsRegistry it feeds "serve.*" counters/histograms
  /// and exports the SLO summary as gauges when the replay drains. Recording
  /// never perturbs the schedule — records are bit-identical with sinks
  /// attached or not (bench_serving gates this).
  void set_observability(obs::Observability obs) { loop_.set_observability(obs); }

  /// Attaches a fault injector (src/fault/) whose events the continuous
  /// replay loop processes at their virtual stamps: kills evict the dead
  /// device's in-flight slices (classify/prefill requests requeue at the
  /// head; decode chains park and resume from their last landed token),
  /// remap its VNs onto survivors via the engine's migration machinery,
  /// and cap the elastic budget until a recover; stragglers re-apply
  /// cost-model slowdowns; comm faults retry the next slice's logits
  /// return. Must be called before replay(); requires continuous mode; the
  /// injector must outlive the replay.
  void set_fault_injector(fault::FaultInjector* injector) {
    loop_.set_fault_injector(injector);
  }

  /// Replays an open-loop arrival trace (ascending arrival order) to
  /// completion, draining the queue. One replay per Server; the server
  /// reports drained() afterwards. In continuous mode this is
  /// begin(trace); pump(+inf); finish().
  void replay(const std::vector<InferRequest>& trace) { loop_.replay(one(trace)); }

  // ---- Cluster-governed stepping (the sched::DeviceLease protocol) ----
  //
  // The ClusterController (sched/cluster.h) drives a Server through
  // begin()/pump()/apply_grant() instead of the self-driving replay():
  // the internal elastic loop is off — the cluster policy owns sizing,
  // with the ElasticPolicy watermarks and min/max demoted to the load()
  // signal's advisory band — and the device set changes only when a
  // grant arrives, through the same seamless resize the self-driving
  // loop uses.

  /// Switches the server to cluster governance (before begin()):
  /// disables the internal elastic loop and enables apply_grant().
  /// Requires continuous batching and validates the ElasticPolicy band
  /// fields (they parameterize load()) regardless of `elastic.enabled`.
  void set_cluster_governed() { loop_.set_cluster_governed(); }

  /// Opens `trace` for externally-pumped stepping (continuous mode
  /// only; validation matches replay(); one begin per Server). The trace
  /// must outlive the stepping run.
  void begin(const std::vector<InferRequest>& trace) { loop_.begin(one(trace)); }

  /// Processes every internal event due at or before `horizon_s` (slice
  /// completions, arrivals, faults, timeouts) and, when work remains,
  /// advances the clock to `horizon_s` so a grant applied next is
  /// stamped at controller time. `horizon_s = +inf` runs to the drain.
  void pump(double horizon_s) override { loop_.pump(horizon_s); }
  double next_event_s() const override { return loop_.next_event_s(); }
  sched::LoadSignal load() const override { return loop_.load(); }
  /// Resizes to `devices` (seamless migration, ResizeEvent record, obs
  /// markers); the clock keeps running, and dispatch resumes at the
  /// cutover stamp. Returns the migration seconds.
  double apply_grant(std::int64_t devices) override { return loop_.apply_grant(devices); }
  bool drained() const override { return loop_.drained(); }

  /// Exports the SLO summary + devices gauge to the attached metrics
  /// registry (idempotent). replay() calls it at the drain; cluster runs
  /// call it when the lease retires.
  void finish() { loop_.finish(); }

  double now_s() const { return loop_.now_s(); }
  const SloTracker& slo() const { return loop_.slo(0); }
  const RequestQueue& queue() const { return loop_.queue(0); }
  const std::vector<ResizeEvent>& resizes() const { return loop_.resizes(); }
  const std::vector<BatchEvent>& batches() const { return loop_.batches(); }
  const std::vector<FaultRecord>& faults() const { return loop_.faults(); }

 private:
  /// `trace` as the loop's one-model trace set.
  static std::span<const std::vector<InferRequest>> one(const std::vector<InferRequest>& trace) {
    return {&trace, 1};
  }

  ModelRegistry registry_;  ///< the one model; outlives loop_ (declared first)
  ColocatedServer loop_;
};

}  // namespace vf::serve
