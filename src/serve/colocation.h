// Multi-model co-location: several models' virtual nodes multiplexed onto
// ONE shared physical device set.
//
// The paper's decoupling makes this almost free conceptually: a model
// only ever names virtual nodes, so two models are just two independent
// VN sets that happen to resolve onto the same devices (the transparent-
// virtualization direction FlexNPU pushes for co-located LLM serving).
// What a co-located deployment adds over two dedicated servers is
// *statistical multiplexing*: when model A bursts while model B idles, A
// borrows the whole device set instead of being capped at its dedicated
// half — bench_colocation measures exactly that trade against two
// dedicated half-size device sets.
//
//   ModelRegistry (name, engine, request pool, per-model SLO/queue/batch/share)
//        |                        2+ models
//        v
//   ColocatedServer ── per-model RequestQueue + SloTracker + SlotLedger
//        |              + TokenStreamer; one shared virtual clock +
//        |              per-device free times + per-model share ledger
//        v
//   share-weighted deadline arbiter ── shared elastic budget (sched/elastic.h)
//
// One dispatch rule serves both batching modes; they differ only in their
// unit of work — one VN slice in a free slot (continuous) or a formed
// batch on the whole device set (batch-boundary). A model's queue head
// can dispatch from its dispatch stamp on (see dispatch_stamp()), and
// among the models whose stamp has come the arbiter (the determinism
// contract's core) claims work in ascending
//
//     (deadline key + share debt, model id, VN id)
//
// order. A model's deadline key is its oldest queued request's arrival
// stamp plus the model's SLO; the share debt is the model's cumulative
// device time normalized by its configured weight (ModelConfig::share).
// Under contention the debt term dominates — a model that has consumed
// more than its weighted share of device time accumulates debt faster and
// yields the next slot — which is what fixes the small-batch starvation a
// deadline-only arbiter has: a small-batch model's cheap slices let an
// aggressive co-tenant's deadline keys always look more urgent, and the
// small model falls arbitrarily far below any intended split. With
// balanced consumption the debts advance in lockstep and the rule reduces
// to earliest-deadline order. An idle model's debt snaps up to the
// system's virtual time when it re-activates, so idling never banks
// credit (standard start-time fair queueing hygiene). Batch-boundary mode
// charges no share ledger, so there the key is the bare deadline key and
// the VN term is absent.
//
// Completions are processed in (completion time, model id, VN id) order,
// arrivals admitted in model-id order at equal stamps. Every decision is
// a pure function of (traces, policies, cost model) on the virtual clock
// — the full per-model record streams replay bit-identically across host
// worker counts, in both batching modes. Token streams (serve/streaming.h)
// ride the continuous mode: per-model prefill/decode chains compete
// through the same arbiter, and every dispatch — prefill, decode, resume,
// classify — is charged to its model's share ledger.
//
// Elasticity is a SHARED budget: grow/shrink decisions come from the
// combined backlog (sum of queue depths) plus combined in-flight load via
// the shared hysteresis rule (sched::elastic_resize_target), and a resize
// moves every engine to the same device count — the engines stay in
// lockstep on the shared device set. In-flight slices keep the completion
// times their dispatch-time mapping scheduled (the resize is seamless).
//
// Migration is ROLLING: the models' state all-gathers ride the same
// shared links, so they serialize — most-loaded model first (combined
// backlog order, model id tie-break) — and each model's NEW dispatches
// resume the moment its own state has landed, instead of every model
// stalling for the sum. The urgent model therefore pays exactly the
// migration price a dedicated server would have charged it, and the
// quiet models absorb the queueing. A resize is also atomic: no new
// resize decision fires until the last model has cut over. Throughout a
// cutover window the clock keeps running: arrivals are admitted at their
// own stamps and in-flight slices complete; only the model's new
// dispatches wait. A mid-stream decode chain stalls during its model's
// cutover window and resumes at the cutover stamp.
//
// Shedding (ModelConfig::shed_expired) happens at the queue head: after
// every admission pass, in both batching modes, a shedding model drops
// the queued requests already past its deadline at the clock, so no
// request dispatches after arrival + deadline.
//
// ONE MODEL is how Server (serve/server.h) serves: it is this class built
// from a one-model registry, so this is the repo's only serving loop, and
// one model rolls its migrations exactly as N models do. The model count
// only picks export labels: one model records under Server's (model id
// -1, "serve." metric names, no share or device-seconds gauges).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
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
/// steady queue. A resize keeps the engines' device type.
struct ElasticPolicy {
  bool enabled = true;
  std::int64_t high_watermark = 64;
  std::int64_t low_watermark = 4;
  std::int64_t min_devices = 1;
  std::int64_t max_devices = 8;  ///< must not exceed the mapping's VN count
  std::int64_t cooldown_batches = 4;
};

/// The one coherence check of an ElasticPolicy band, shared by every
/// server that reads it: min_devices >= 1, max_devices >= min_devices,
/// max_devices <= `vn_count` (devices beyond the VN count would idle),
/// high_watermark > low_watermark (hysteresis), cooldown_batches >= 0.
/// Throws VfError naming the violated rule.
void validate_elastic_policy(const ElasticPolicy& e, std::int64_t vn_count);

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

/// Per-model serving configuration within a co-located deployment.
struct ModelConfig {
  std::string name = "model";     ///< label for tables and diagnostics
  std::int64_t queue_capacity = 1024;
  BatchPolicy batch;              ///< size-or-timeout policy for this model
  double deadline_s = 0.5;        ///< per-request SLO; base of the arbiter key
  /// Device-time share weight of the continuous arbiter. Shares are
  /// relative (normalized over the registered models): under sustained
  /// contention each model's consumed device time converges to
  /// share / Σ shares of the total, regardless of how its slice costs
  /// compare to its co-tenants'. Must be positive.
  double share = 1.0;
  /// Deadline-aware load shedding for this model (see
  /// ServerConfig::shed_expired): after each admission pass the queue
  /// drops its expired head at the clock. Off by default.
  bool shed_expired = false;
};

/// Binds each co-located model's engine, request pool, and config under a
/// dense model id (registration order). Engines and pools must outlive the
/// registry and any server built on it (a server keeps its own copy of
/// the registry); each engine may appear only once (its virtual nodes are
/// one model's identity).
class ModelRegistry {
 public:
  std::int32_t add(VirtualFlowEngine& engine, const Dataset& request_pool,
                   ModelConfig config);

  std::int64_t size() const { return static_cast<std::int64_t>(entries_.size()); }
  VirtualFlowEngine& engine(std::int32_t m) const;
  const Dataset& pool(std::int32_t m) const;
  const ModelConfig& config(std::int32_t m) const;

 private:
  struct Entry {
    VirtualFlowEngine* engine = nullptr;
    const Dataset* pool = nullptr;
    ModelConfig config;
  };
  std::vector<Entry> entries_;
};

/// Configuration of the shared device set.
struct ColocationConfig {
  /// Shared elastic budget over the co-located device set. Watermarks act
  /// on the COMBINED backlog (and, for shrink, combined in-flight load).
  ElasticPolicy elastic;
  /// Continuous (per-VN slot) batching — co-location's native mode: slots
  /// of every model compete for devices at slice granularity. False
  /// serializes whole formed batches (each on the full device set) through
  /// the same arbiter — the batch-boundary baseline, which charges no
  /// share ledger and serves no token streams.
  bool continuous = true;
  /// Token-stream scheduling (prefill/decode disaggregation), applied
  /// per model in continuous mode.
  StreamPolicy stream;
};

/// Serves the registered models on one shared device set: typically 2+,
/// or one (Server's case; see the file comment). One replay per server.
class ColocatedServer : public sched::DeviceLease {
 public:
  /// All engines must start on identical device counts and run one
  /// device type (they stay in lockstep through shared resizes, which
  /// keep that type). The server copies `registry`; the engines and pools
  /// it names must outlive the server.
  ColocatedServer(const ModelRegistry& registry, ColocationConfig config);

  ColocatedServer(const ColocatedServer&) = delete;
  ColocatedServer& operator=(const ColocatedServer&) = delete;

  /// Attaches observability sinks (obs/obs.h; either pointer may be null)
  /// before replay(). Spans carry each slice's model id; per-model metrics
  /// live under "serve.<model name>."; shared-set events (resizes, the
  /// devices gauge) under "serve.". Rolling migrations additionally mark a
  /// per-model "cutover" instant at each dispatch_ready_ stamp, and the
  /// arbiter's share virtual time is exported as a per-model gauge — the
  /// share-starvation signal on the timeline. One model records under
  /// Server's labels instead (see the file comment). Batch spans carry
  /// their post-admission queue depth; slot counters exist only in
  /// continuous mode. Recording never perturbs the schedule.
  void set_observability(obs::Observability obs);

  /// Attaches a fault injector (src/fault/) shared across the set, before
  /// replay(); requires continuous mode; the injector must outlive the
  /// replay. A kill evicts the dead device slot's in-flight slices of
  /// EVERY model — classify/prefill requests requeue at the queue head,
  /// decode chains park and resume from their last landed token — remaps
  /// each engine's VNs onto the survivors through the same cutover as a
  /// resize, and caps the elastic budget until a recover; stragglers
  /// re-apply cost-model slowdowns; comm faults retry the next slice's
  /// logits return.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Replays one open-loop arrival trace per model (indexed by model id,
  /// each ascending in arrival time) to completion, draining every queue.
  /// In continuous mode this is begin(traces); pump(+inf); finish().
  void replay(std::span<const std::vector<InferRequest>> traces);
  /// Same, for a braced list of traces: replay({trace_a, trace_b}).
  void replay(const std::vector<std::vector<InferRequest>>& traces) {
    replay(std::span<const std::vector<InferRequest>>(traces));
  }

  // ---- Cluster-governed stepping (the sched::DeviceLease protocol) ----
  //
  // The ClusterController (sched/cluster.h) drives a server through
  // begin()/pump()/apply_grant() instead of the self-driving replay(): the
  // internal elastic loop is off — the cluster policy owns sizing, with
  // the ElasticPolicy watermarks and min/max demoted to the load()
  // signal's advisory band — and the device set changes only when a grant
  // arrives, through the same cutover the self-driving loop uses. A
  // co-located deployment is ONE lease: the controller sizes the shared
  // set as a unit and the arbiter keeps splitting it between the tenants.
  //
  // The controller pumps every lease at every cluster event, and most of
  // those land before the lease's own next event. Such a pump costs a
  // clock move: the loop keeps the next-event stamp its last iteration
  // computed (every term of it is a stamp of the replay state, which only
  // an iteration or a cutover changes), and a pump starts iterating only
  // once the stamp is due. tests/serve/test_pump.cpp pins that the records
  // do not depend on where the pumps land.

  /// Switches to cluster governance (before begin()): disables the shared
  /// internal elastic loop and enables apply_grant(). Requires continuous
  /// mode; validates the ElasticPolicy band regardless of `enabled`.
  void set_cluster_governed();

  /// Opens the per-model traces for externally-pumped stepping
  /// (continuous mode only; validation matches replay(); one begin per
  /// server). The traces must outlive the stepping run.
  void begin(std::span<const std::vector<InferRequest>> traces);

  /// Processes every internal event due at or before `horizon_s` (slice
  /// completions, arrivals, faults, timeouts, cutovers) and, when work
  /// remains, advances the clock to `horizon_s` so a grant applied next is
  /// stamped at controller time. `horizon_s = +inf` runs to the drain; a
  /// finite horizon requires cluster governance (the self-driven elastic
  /// rule reads the clock between events). A pump before next_event_s()
  /// only moves the clock: it starts no loop iteration unless a grant
  /// arrived since the last pump or a shedding model has queued requests
  /// (its shedding reads the clock). A pump past the stamp starts its loop
  /// there.
  void pump(double horizon_s) override;
  /// The stamp the last pump's final iteration computed, with the fault
  /// injector's next event folded in live; a full scan before the first
  /// pump and after a grant. Builds without NDEBUG re-run the scan and
  /// check it against the kept stamp.
  double next_event_s() const override;
  /// Combined signal: sum of queues and in-flight; the model under the
  /// worst relative deadline pressure supplies the reported SLO terms.
  sched::LoadSignal load() const override;
  /// Resizes the shared set to `devices` through the cutover. Returns the
  /// total serialized migration seconds.
  double apply_grant(std::int64_t devices) override;
  /// True once every trace is exhausted and every queue, slot and parked
  /// stream is empty — and stays true after replay() returns.
  bool drained() const override;

  /// Exports the per-model SLO summaries + devices gauge to the attached
  /// metrics registry (idempotent). replay() calls it at the drain;
  /// cluster runs call it when the lease retires.
  void finish();

  double now_s() const { return clock_; }
  /// Models registered at construction.
  std::int64_t num_models() const { return static_cast<std::int64_t>(models_.size()); }
  /// Devices currently backing the shared set (all engines agree).
  std::int64_t shared_devices() const;

  const SloTracker& slo(std::int32_t m) const;
  const RequestQueue& queue(std::int32_t m) const;
  const std::vector<ResizeEvent>& resizes() const { return resizes_; }
  /// Work units across all models; BatchEvent::model carries the id.
  const std::vector<BatchEvent>& batches() const { return batches_; }
  /// Injected faults the replay acted on (shared-set events; a kill's
  /// eviction/requeue counts aggregate over all models).
  const std::vector<FaultRecord>& faults() const { return faults_; }
  /// Raw device-seconds model m's dispatches consumed (continuous mode).
  /// bench_streaming's share gate checks the ratio of these against the
  /// configured ModelConfig::share weights.
  double device_time_used(std::int32_t m) const;

 private:
  /// Mutable per-model serving state (config lives in the registry).
  struct ModelState {
    ModelState(VirtualFlowEngine& engine, const Dataset& pool,
               const ModelConfig& mc)
        : queue(mc.queue_capacity),
          former(mc.batch),
          tracker(mc.deadline_s),
          ledger(engine.mapping().total_vns()),
          dispatcher(engine, pool),
          streamer(engine.mapping().total_vns(), pool.size()),
          pending_chain(static_cast<std::size_t>(engine.mapping().total_vns()), 0) {}
    RequestQueue queue;
    BatchFormer former;
    SloTracker tracker;
    SlotLedger ledger;
    SliceDispatcher dispatcher;
    TokenStreamer streamer;
    /// VNs whose stream slice finished and wants another token; the slots
    /// stay busy (holding the finished slice) until the decode
    /// continuation is readmitted — possibly deferred past a rolling
    /// migration's cutover stamp for this model.
    std::vector<std::int32_t> continuations;
    /// pending_chain[vn] != 0 while vn sits in `continuations`: guards the
    /// completion scan from absorbing the same finished slice twice when a
    /// cutover defers the readmit across event-loop iterations.
    std::vector<char> pending_chain;
    std::size_t next_arrival = 0;
  };

  /// Validates and opens `traces` (one-shot; both modes).
  void open(std::span<const std::vector<InferRequest>> traces);
  void replay_batch_boundary();

  /// The readiness rule of both modes: the earliest virtual stamp at which
  /// model m's queue head can dispatch. +inf for an empty queue, and in
  /// continuous mode also when no slot is free. A full head — a stream
  /// head or a full slice for the lowest free VN in continuous mode,
  /// max_batch queued requests in batch-boundary mode — dispatches at the
  /// model's cutover stamp; any other head at the later of its oldest
  /// request's timeout (BatchFormer::timeout_deadline_s) and that stamp.
  double dispatch_stamp(std::int32_t m) const;
  /// The share-weighted deadline arbiter of both modes: the model whose
  /// dispatch stamp has come with the least (deadline key + share debt),
  /// lowest id on ties; -1 when none can dispatch at the clock.
  std::int32_t next_dispatch() const;
  /// Next event over all models: the earliest in-flight completion,
  /// arrival, gated chain or parked-stream cutover stamp, or dispatch
  /// stamp. Between pumps it does not move: each term is a stamp of the
  /// replay state, and a cutover term counts only while it lies ahead of
  /// the clock, which a pump moves no further than the stamp.
  double next_model_event() const;
  /// `t` with the fault injector's next event folded in.
  double with_faults(double t) const;
  /// next_model_event() with the faults folded in: the next stamp the
  /// loop jumps to in both modes.
  double next_event_internal() const { return with_faults(next_model_event()); }
  /// True when a shedding model has queued requests: an iteration at a
  /// later clock may shed them, so the loop cannot skip to its stamp.
  bool sheds_at_clock() const;

  // Continuous-mode transitions (one pump iteration = admit, complete,
  // faults, elastic decision, dispatch phases; see pump()).
  void finalize_span_depth();
  void complete_due();
  void readmit_continuations();
  void try_dispatch();
  void try_resumes();
  void process_faults_due();

  /// Admits every model's arrivals up to the clock, in model-id order,
  /// then sheds each shedding model's expired head. Re-activation snaps an
  /// idle model's share debt up to the system virtual time (idling banks
  /// no credit).
  void admit_up_to_clock();
  /// Charges `compute_s` device-seconds of model `m` to the share ledger.
  void charge(std::int32_t m, double compute_s);
  /// Length of model m's dispatchable classify prefix: queued requests up
  /// to `cap`, stopping at the first stream (FIFO order never lets a
  /// classify slice jump over a queued stream).
  std::int64_t classify_prefix(const ModelState& st, std::int64_t cap) const;
  /// Combined resize decision + lockstep execution (both modes), within
  /// [min(min_devices, ceiling), ceiling] for ceiling = device_ceiling().
  void resize_if_needed(std::int64_t combined_inflight);
  /// The elastic ceiling: max_devices, capped by the fault injector's
  /// capacity_cap while killed devices await their recover — growth never
  /// resurrects lost capacity, even when the cap falls below min_devices.
  /// load() and resize_if_needed() both read it.
  std::int64_t device_ceiling() const;
  /// Executes a decided resize (or grant) to `target` devices through
  /// cut_over, with its "resize" marker and grow/shrink counter.
  void perform_resize(std::int64_t target);
  /// The one rolling cutover behind every change of the shared set: each
  /// engine moves to `to_devices` (resize) or loses device slot `dead`
  /// (kill, when >= 0), deepest `backlog` first with model id breaking
  /// ties; the all-gathers serialize from the later of the clock and any
  /// cutover still pending, and model m dispatches again at
  /// dispatch_ready_[m] ("cutover" markers); the clock does not move.
  /// Records the ResizeEvent (depth = summed backlog) and returns the
  /// migration seconds.
  double cut_over(std::int64_t to_devices, std::int64_t dead,
                  const std::vector<std::int64_t>& backlog);
  /// True while a rolling migration is still cutting models over.
  bool migration_in_progress() const;
  /// Smallest VN count across the registered models: the elastic ceiling
  /// every co-located engine can honor.
  std::int64_t min_vns() const;
  /// Dispatches one slice of model `m` onto its lowest free VN slot: a
  /// prefill when a stream heads the queue, a classify slice otherwise.
  void dispatch_slice(std::int32_t m);

  // One model records under Server's labels (see the file comment).
  bool one_model() const { return models_.size() == 1; }
  std::int32_t label(std::int32_t m) const { return one_model() ? -1 : m; }
  std::string metrics_prefix(std::int32_t m) const;

  ModelRegistry registry_;
  ColocationConfig config_;
  std::vector<ModelState> models_;
  /// The opened traces, one per model (empty before begin()/replay()).
  /// Kept after replay() so drained() holds; after the drain only their
  /// sizes are read, so a replayed trace may already be gone.
  std::vector<std::span<const InferRequest>> traces_;

  double clock_ = 0.0;
  /// next_model_event() as the last pump iteration computed it; empty
  /// before the first pump and after a cutover, which moves the stamps it
  /// scans.
  std::optional<double> kept_next_;
  /// Per-device busy horizon on the shared set; devices serialize slices
  /// of ALL models (continuous mode). Rebuilt after every resize.
  std::vector<double> device_free_;
  /// Rolling-migration cutover stamps: model m dispatches nothing new
  /// before dispatch_ready_[m] (admissions and in-flight completions
  /// continue throughout).
  std::vector<double> dispatch_ready_;

  // Share ledger (continuous mode). share_weight_ is each model's
  // normalized share fraction; share_time_ its cumulative device time
  // divided by that fraction — the "debt" the arbiter adds to the
  // deadline key; device_seconds_ the raw consumption for read-out;
  // global_vtime_ the high-water debt used to re-sync re-activating
  // models.
  std::vector<double> share_weight_;
  std::vector<double> share_time_;
  std::vector<double> device_seconds_;
  double global_vtime_ = 0.0;

  std::int64_t work_since_resize_ = 0;
  bool replayed_ = false;
  bool cluster_governed_ = false;
  bool finished_ = false;
  std::vector<ResizeEvent> resizes_;
  std::vector<BatchEvent> batches_;
  /// complete_due's (done_s, model id, VN id) list, reused across calls.
  std::vector<std::tuple<double, std::int32_t, std::int32_t>> due_;

  /// Fault injector (null = no faults); see set_fault_injector.
  fault::FaultInjector* injector_ = nullptr;
  std::vector<FaultRecord> faults_;

  /// Observability sinks (null = off); see set_observability.
  obs::Observability obs_;
  /// Cached per-model share-virtual-time gauges (empty = off), updated on
  /// every charge() so share starvation is visible over virtual time.
  std::vector<obs::Gauge*> share_gauges_;
};

}  // namespace vf::serve
