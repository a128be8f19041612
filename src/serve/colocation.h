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
// Arbiter rule (the determinism contract's core): whenever slots are
// free, dispatchable slices are claimed in ascending
//
//     (deadline key + share debt, model id, VN id)
//
// order. A model's deadline key is its oldest queued request's arrival
// stamp plus the model's SLO; the share debt is the model's cumulative
// device time normalized by its configured weight (ModelConfig::share).
// Under contention the debt term dominates — a model that has consumed
// more than its weighted share of device time accumulates debt faster and
// yields the next slot — which is what fixes the small-batch starvation
// the deadline-only arbiter had: a small-batch model's cheap slices let
// an aggressive co-tenant's deadline keys always look more urgent, and
// the small model fell arbitrarily far below any intended split. With
// balanced consumption the debts advance in lockstep and the rule reduces
// to the old earliest-deadline order. An idle model's debt snaps up to
// the system's virtual time when it re-activates, so idling never banks
// credit (standard start-time fair queueing hygiene).
//
// Completions are processed in (completion time, model id, VN id) order,
// arrivals admitted in model-id order at equal stamps. Every decision is
// a pure function of (traces, policies, cost model) on the virtual clock
// — the full per-model record streams replay bit-identically across host
// worker counts, in both batching modes, exactly like the single-model
// Server. Token streams (serve/streaming.h) ride the continuous mode:
// per-model prefill/decode chains compete through the same arbiter, and
// every dispatch — prefill, decode, resume, classify — is charged to its
// model's share ledger.
//
// Elasticity is a SHARED budget: grow/shrink decisions come from the
// combined backlog (sum of queue depths) plus combined in-flight load via
// the same hysteresis rule the single-model server uses
// (sched::elastic_resize_target), and a resize moves every engine to the
// same device count — the engines stay in lockstep on the shared device
// set. In-flight slices keep the completion times their dispatch-time
// mapping scheduled (the resize is seamless, like the single-model
// server's).
//
// Migration is ROLLING: the models' state all-gathers ride the same
// shared links, so they serialize — most-loaded model first (combined
// backlog order, model id tie-break) — and each model's NEW dispatches
// resume the moment its own state has landed, instead of every model
// stalling for the sum. The urgent model therefore pays exactly the
// migration price a dedicated server would have charged it, and the
// quiet models absorb the queueing. (The single-model Server jumps its
// clock by the whole migration; with one model the two policies
// coincide.) A resize is also atomic: no new resize decision fires until
// the last model has cut over. A mid-stream decode chain stalls during
// its model's cutover window and resumes at the cutover stamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "sched/lease.h"
#include "serve/batch_former.h"
#include "serve/dispatch.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "serve/slo_tracker.h"
#include "serve/slot_ledger.h"
#include "serve/streaming.h"

namespace vf::serve {

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
  /// Deadline-aware load shedding at admission for this model (see
  /// ServerConfig::shed_expired). Off by default.
  bool shed_expired = false;
};

/// Binds each co-located model's engine, request pool, and config under a
/// dense model id (registration order). Engines and pools must outlive the
/// registry and any server built on it; each engine may appear only once
/// (its virtual nodes are one model's identity).
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
  /// serializes whole formed batches (each on the full device set) in
  /// deadline order — the batch-boundary baseline (deadline-only: the
  /// share-weighted arbiter and token streams are continuous-mode
  /// features).
  bool continuous = true;
  /// Token-stream scheduling (prefill/decode disaggregation), applied
  /// per model in continuous mode.
  StreamPolicy stream;
};

/// Serves the registered models (typically 2+; a single model is a legal
/// degenerate case equivalent to a continuous-mode Server) on one shared
/// device set. One replay per server, same one-shot contract as the
/// single-model Server.
class ColocatedServer : public sched::DeviceLease {
 public:
  /// All engines must start on identical device counts (they stay in
  /// lockstep through shared resizes). Engines, pools, and the registry
  /// must outlive the server.
  ColocatedServer(ModelRegistry& registry, ColocationConfig config);

  ColocatedServer(const ColocatedServer&) = delete;
  ColocatedServer& operator=(const ColocatedServer&) = delete;

  /// Attaches observability sinks (obs/obs.h; either pointer may be null)
  /// before replay(). Spans carry each slice's model id; per-model metrics
  /// live under "serve.<model name>."; shared-set events (resizes, the
  /// devices gauge) under "serve.". Rolling migrations additionally mark a
  /// per-model "cutover" instant at each dispatch_ready_ stamp, and the
  /// arbiter's share virtual time is exported as a per-model gauge — the
  /// share-starvation signal on the timeline. Recording never perturbs the
  /// schedule.
  void set_observability(obs::Observability obs);

  /// Attaches a fault injector (src/fault/) shared across the co-located
  /// set: a kill evicts the dead device slot's in-flight slices of EVERY
  /// model and remaps each engine's VNs onto the survivors as a rolling
  /// migration (deepest-backlog model first, like perform_resize); see
  /// Server::set_fault_injector for the per-slice recovery semantics.
  /// Must be called before replay(); requires continuous mode; the
  /// injector must outlive the replay.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Replays one open-loop arrival trace per model (indexed by model id,
  /// each ascending in arrival time) to completion, draining every queue.
  /// In continuous mode this is begin(traces); pump(+inf); finish().
  void replay(const std::vector<std::vector<InferRequest>>& traces);

  // ---- Cluster-governed stepping (the sched::DeviceLease protocol) ----
  //
  // A co-located deployment is ONE lease: the ClusterController sizes the
  // shared device set as a unit and the internal arbiter keeps splitting
  // it between the co-tenants. See Server for the per-method contracts;
  // the differences here are the combined load signal (sum of queues and
  // in-flight, worst relative deadline pressure picks the reported SLO)
  // and the rolling-migration grant (apply_grant returns the total
  // serialized migration charge; each model cuts over at its own stamp).

  /// Switches to cluster governance (before begin()): disables the shared
  /// internal elastic loop and enables apply_grant(). Requires continuous
  /// mode; validates the ElasticPolicy band regardless of `enabled`.
  void set_cluster_governed();

  /// Opens the per-model traces for externally-pumped stepping
  /// (continuous mode only; validation matches replay(); one begin per
  /// server). The traces must outlive the stepping run.
  void begin(const std::vector<std::vector<InferRequest>>& traces);

  void pump(double horizon_s) override;
  double next_event_s() const override;
  sched::LoadSignal load() const override;
  /// Resizes the shared set to `devices` through perform_resize (rolling
  /// migration). Returns the total serialized migration seconds.
  double apply_grant(std::int64_t devices) override;
  bool drained() const override;

  /// Exports the per-model SLO summaries + devices gauge to the attached
  /// metrics registry (idempotent). replay() calls it at the drain.
  void finish();

  double now_s() const { return clock_; }
  /// Models frozen at construction (a registry that grows afterwards is
  /// rejected at replay; these accessors never index past the snapshot).
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

  void replay_batch_boundary();

  // Continuous-mode transitions (one pump iteration = admit, complete,
  // faults, elastic decision, dispatch phases; see pump()).
  void finalize_span_depth();
  void complete_due();
  void readmit_continuations();
  void try_dispatch();
  void try_resumes();
  void process_faults_due();
  double next_event_internal() const;

  /// Admits every model's arrivals up to the clock, in model-id order.
  /// Re-activation snaps an idle model's share debt up to the system
  /// virtual time (idling banks no credit).
  void admit_up_to_clock();
  /// Charges `compute_s` device-seconds of model `m` to the share ledger.
  void charge(std::int32_t m, double compute_s);
  /// Length of model m's dispatchable classify prefix: queued requests up
  /// to `cap`, stopping at the first stream (FIFO order never lets a
  /// classify slice jump over a queued stream).
  std::int64_t classify_prefix(const ModelState& st, std::int64_t cap) const;
  /// Combined resize decision + lockstep execution (both modes).
  void resize_if_needed(std::int64_t combined_inflight);
  /// Executes a decided resize as a rolling migration: engines cut over
  /// to `target` devices serially (deepest combined backlog first, model
  /// id tie-break); model m's dispatches resume at dispatch_ready_[m].
  void perform_resize(std::int64_t target, std::int64_t depth);
  /// True while a rolling migration is still cutting models over.
  bool migration_in_progress() const;
  /// Smallest VN count across the registered models: the elastic ceiling
  /// every co-located engine can honor.
  std::int64_t min_vns() const;
  /// Dispatches one slice of model `m` onto its lowest free VN slot: a
  /// prefill when a stream heads the queue, a classify slice otherwise.
  void dispatch_slice(std::int32_t m);
  /// Executes one formed batch of model `m` on the full device set.
  void execute_model_batch(std::int32_t m, std::int64_t take);

  ModelRegistry& registry_;
  ColocationConfig config_;
  std::vector<ModelState> models_;
  /// The traces being replayed; set for the duration of replay() only.
  const std::vector<std::vector<InferRequest>>* traces_ = nullptr;

  double clock_ = 0.0;
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
