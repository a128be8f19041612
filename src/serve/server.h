// vf::serve::Server — deadline-aware inference serving on virtual nodes.
//
// Pipeline (one virtual-clock event loop):
//
//   arrival trace ──> RequestQueue ──> batching ──> engine.infer ──> SloTracker
//        (open loop)   (bounded,        (two modes,    (forward-only     (p50/p95/p99,
//                       backpressure)    below)          on VNs)           deadlines)
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
// plus the elasticity loop the paper built for training: when queue depth
// crosses hysteresis watermarks the server calls the engine's seamless
// resize(), growing or shrinking the device set under the *same* virtual
// nodes. In continuous mode the resize is as seamless as the paper's:
// in-flight slices keep the completion times the old mapping scheduled
// (compute is never interrupted), and the migration charge delays only
// subsequent dispatches.
//
// Determinism contract: a replay is a pure function of (trace, policies,
// engine construction). Arrival stamps come from the seeded trace, service
// times from the analytic cost model, batch/slice boundaries from the FIFO
// prefix policy (admission FIFO by request id, slots claimed in ascending
// VN-id order, completions processed in (time, VN id) order) — host worker
// count (EngineConfig::num_threads) can change wall-clock speed but not
// one bit of the records. bench_serving and tests/serve/ verify this
// across num_threads in {0, 2, 8} for both modes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "device/spec.h"
#include "fault/fault.h"
#include "sched/lease.h"
#include "serve/batch_former.h"
#include "serve/dispatch.h"
#include "serve/request_queue.h"
#include "serve/slo_tracker.h"
#include "serve/slot_ledger.h"
#include "serve/streaming.h"

namespace vf::serve {

/// Queue-depth-triggered elasticity with hysteresis: grow (double the
/// device count) when depth reaches `high_watermark`, shrink (halve) when
/// depth falls to `low_watermark`, never within `cooldown_batches` units
/// of work (formed batches, or completed slices in continuous mode) of the
/// previous resize. high > low keeps the loop from oscillating on a
/// steady queue.
struct ElasticPolicy {
  bool enabled = true;
  std::int64_t high_watermark = 64;
  std::int64_t low_watermark = 4;
  std::int64_t min_devices = 1;
  std::int64_t max_devices = 8;  ///< must not exceed the mapping's VN count
  DeviceType device = DeviceType::kV100;
  std::int64_t cooldown_batches = 4;
};

/// The one coherence check of an ElasticPolicy band, shared by every
/// server that reads it: min_devices >= 1, max_devices >= min_devices,
/// max_devices <= `vn_count` (devices beyond the VN count would idle),
/// high_watermark > low_watermark (hysteresis), cooldown_batches >= 0.
/// Throws VfError naming the violated rule.
void validate_elastic_policy(const ElasticPolicy& e, std::int64_t vn_count);

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
  /// Deadline-aware load shedding at admission (RequestQueue::set_deadline
  /// with `deadline_s`): requests already past the SLO when the loop gets
  /// to them are bounced instead of queued to a guaranteed miss — the
  /// graceful-degradation arm of the fault story under sustained capacity
  /// loss. Off by default: shedding changes which requests are served, so
  /// it is opt-in per workload (bench_faults turns it on).
  bool shed_expired = false;
};

/// One elastic reconfiguration taken during a replay.
struct ResizeEvent {
  double time_s = 0.0;  ///< virtual time after the migration completed
  std::int64_t from_devices = 0;
  std::int64_t to_devices = 0;
  std::int64_t queue_depth = 0;   ///< depth that triggered the decision
  double migration_s = 0.0;       ///< seamless all-gather cost charged
};

/// One injected fault the replay acted on (or explicitly skipped).
struct FaultRecord {
  double time_s = 0.0;          ///< virtual stamp the loop processed it at
  fault::FaultKind kind = fault::FaultKind::kKill;
  std::int64_t device = -1;     ///< resolved device slot (kills/stragglers)
  bool skipped = false;         ///< kill skipped: the set was at one device
  std::int64_t evicted_slices = 0;    ///< in-flight slices torn off the device
  std::int64_t requeued_requests = 0; ///< classify/prefill requests requeued
  double migration_s = 0.0;     ///< VN-remap all-gather charged by the kill
};

// BatchEvent lives in serve/dispatch.h (shared with the SliceDispatcher
// that produces them); included above.

class Server : public sched::DeviceLease {
 public:
  /// `engine` supplies the model replicas, mapping, and resize machinery;
  /// `request_pool` generates request payload features on demand. Both
  /// must outlive the server.
  Server(VirtualFlowEngine& engine, const Dataset& request_pool, ServerConfig config);

  /// Non-copyable, non-movable: the queue's reject observer holds a
  /// back-pointer to this server's tracker, which a copy or move would
  /// leave dangling at the original address.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches observability sinks (obs/obs.h; either pointer may be null).
  /// Must be called before replay(); the referents must outlive it. With a
  /// TraceRecorder attached the replay records one span per slice/batch on
  /// its device's track plus instant markers (resize, preempt, reject);
  /// with a MetricsRegistry it feeds "serve.*" counters/histograms and
  /// exports the SLO summary as gauges when the replay drains. Recording
  /// never perturbs the schedule — records are bit-identical with sinks
  /// attached or not (bench_serving gates this).
  void set_observability(obs::Observability obs);

  /// Attaches a fault injector (src/fault/) whose events the continuous
  /// replay loop processes at their virtual stamps: kills evict the dead
  /// device's in-flight slices (classify/prefill requests requeue at the
  /// head; decode chains park and resume from their last landed token),
  /// remap its VNs onto survivors via the engine's migration machinery,
  /// and cap the elastic budget until a recover; stragglers re-apply
  /// cost-model slowdowns; comm faults retry the next slice's logits
  /// return. Must be called before replay(); requires continuous mode; the
  /// injector must outlive the replay.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Replays an open-loop arrival trace (ascending arrival order) to
  /// completion, draining the queue. One replay per Server. Implemented
  /// on the stepping machinery below: begin(trace); pump(+inf); finish().
  void replay(const std::vector<InferRequest>& trace);

  // ---- Cluster-governed stepping (the sched::DeviceLease protocol) ----
  //
  // The ClusterController (sched/cluster.h) drives a Server through
  // begin()/pump()/apply_grant() instead of the self-driving replay():
  // the internal elastic loop is off — the cluster policy owns sizing,
  // with the ElasticPolicy watermarks and min/max demoted to the load()
  // signal's advisory band — and the device set changes only when a
  // grant arrives. The seamless-resize machinery underneath is the same
  // one the self-driving loop uses (perform_resize).

  /// Switches the server to cluster governance (before begin()):
  /// disables the internal elastic_resize_target loop and enables
  /// apply_grant(). Requires continuous batching and validates the
  /// ElasticPolicy band fields (they parameterize load()) regardless of
  /// `elastic.enabled`.
  void set_cluster_governed();

  /// Opens `trace` for externally-pumped stepping (continuous mode
  /// only; validation matches replay(); one begin per Server). The trace
  /// must outlive the stepping run.
  void begin(const std::vector<InferRequest>& trace);

  /// Processes every internal event due at or before `horizon_s` (slice
  /// completions, arrivals, faults, timeouts) and, when work remains,
  /// advances the clock to `horizon_s` so a grant applied next is
  /// stamped at controller time. `horizon_s = +inf` runs to the drain.
  void pump(double horizon_s) override;
  double next_event_s() const override;
  sched::LoadSignal load() const override;
  /// Resizes to `devices` through perform_resize (seamless migration,
  /// ResizeEvent record, obs markers). Returns the migration seconds.
  double apply_grant(std::int64_t devices) override;
  bool drained() const override;

  /// Exports the SLO summary + devices gauge to the attached metrics
  /// registry (idempotent). replay() calls it at the drain; cluster runs
  /// call it when the lease retires.
  void finish();

  double now_s() const { return clock_; }
  const SloTracker& slo() const { return tracker_; }
  const RequestQueue& queue() const { return queue_; }
  const std::vector<ResizeEvent>& resizes() const { return resizes_; }
  const std::vector<BatchEvent>& batches() const { return batches_; }
  const std::vector<FaultRecord>& faults() const { return faults_; }

 private:
  /// Continuous-mode in-flight state, created by begin() and alive for
  /// the whole stepping run. Holding it as a member (rather than locals
  /// of a closed replay loop) is what lets the ClusterController pump the
  /// replay between grants.
  struct Flight {
    const std::vector<InferRequest>* trace;
    SlotLedger ledger;
    TokenStreamer streamer;
    /// Per-device serialization horizon, indexed by device id under the
    /// current mapping; rebuilt after every resize.
    std::vector<double> device_free;
    std::size_t next_arrival = 0;
    /// Streams whose slice finished this instant and want another token;
    /// drained within the same event-loop iteration.
    std::vector<std::int32_t> continuations;

    Flight(const std::vector<InferRequest>& t, std::int64_t vns,
           std::int64_t pool_size, std::size_t devices)
        : trace(&t), ledger(vns), streamer(vns, pool_size),
          device_free(devices, 0.0) {}
  };

  void replay_batch_boundary(const std::vector<InferRequest>& trace);
  void execute_batch(std::int64_t take);
  void maybe_resize();
  /// Executes a decided resize to `target` devices: seamless migration on
  /// the engine, clock charge, event record, cooldown reset. `depth` is
  /// the queue depth that triggered the decision.
  void perform_resize(std::int64_t target, std::int64_t depth);

  // Continuous-mode transitions (one pump iteration = admit, complete,
  // faults, elastic decision, dispatch phases; see pump()).
  void admit_up_to_clock();
  void finalize_span_depth();
  void complete_due();
  void process_faults_due();
  void resize_if_needed();
  void try_dispatch();
  void readmit_continuations();
  void try_resumes();
  double next_event_internal() const;

  VirtualFlowEngine& engine_;
  const Dataset& request_pool_;
  ServerConfig config_;
  RequestQueue queue_;
  BatchFormer former_;
  SloTracker tracker_;

  /// The shared engine-facing dispatch path (gather/infer/price scratch
  /// lives there, reused dispatch after dispatch).
  SliceDispatcher dispatcher_;

  /// Observability sinks (null = off); see set_observability.
  obs::Observability obs_;

  /// Fault injector (null = no faults); see set_fault_injector.
  fault::FaultInjector* injector_ = nullptr;

  double clock_ = 0.0;
  /// Work units (batches or slices) since the last resize; cooldown gate.
  std::int64_t work_since_resize_ = 0;
  bool replayed_ = false;
  bool cluster_governed_ = false;
  bool finished_ = false;
  std::unique_ptr<Flight> flight_;
  std::vector<ResizeEvent> resizes_;
  std::vector<BatchEvent> batches_;
  std::vector<FaultRecord> faults_;
};

}  // namespace vf::serve
