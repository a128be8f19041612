// VirtualFlowEngine: the paper's core execution loop (Fig 5).
//
// Each training step:
//   1. for every device (in parallel in real deployments; the simulated
//      step time is the max over devices), run its virtual nodes
//      sequentially: forward pass (+ input prefetch), backward pass,
//      aggregate the VN's gradients into the device's shared gradient
//      buffer;
//   2. synchronize gradients across devices with a *weighted* all-reduce
//      (§5.2) so that every example contributes equally no matter how the
//      batch was partitioned;
//   3. the optimizer applies the averaged gradient once, to the engine's
//      one parameter set. The model names virtual nodes, never devices, so
//      the engine holds one model per host lane, not one per device: a
//      serial engine runs every device's VNs on lane 0's model, and a
//      pooled engine gives each pool worker a lane whose model takes
//      lane 0's parameters when a step runs it after an update.
//
// Math is real (actual SGD on actual gradients); device/step timing comes
// from the analytic cost model and a virtual clock (docs/architecture.md,
// "Dataflow: one training step").
//
// Reduction-order contract: gradient contributions are combined in
// ascending virtual-node-id order. Together with VN-id-keyed data
// sharding, dropout, and batch-norm state, this makes the entire training
// trajectory a pure function of (model, hyperparameters, seed, total VNs)
// — bit-identical across any device mapping, which is the paper's
// reproducibility claim strengthened from ±0.5% to exact equality.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "comm/comm.h"
#include "core/mapping.h"
#include "data/batch.h"
#include "device/cost_model.h"
#include "device/memory_model.h"
#include "device/model_profile.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "obs/obs.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace vf {

/// Gradient reduction order (docs/architecture.md, "Invariant 1: bit-exact
/// mapping invariance"; ablated by bench_ablation_reduction).
enum class ReductionMode : std::uint8_t {
  /// Combine per-VN gradient sums in ascending VN-id order. Bit-exact
  /// under any VN -> device mapping (this library's default contract).
  kStrictVnOrder,
  /// Combine per-device partial sums in device order — what a naive
  /// hierarchical all-reduce does. Numerically correct but only
  /// approximately mapping-invariant (float addition is not associative).
  kHierarchical,
};

/// Engine configuration.
struct EngineConfig {
  std::uint64_t seed = 42;
  LinkSpec link;
  /// If false, skip the simulated-memory fit check (used by unit tests
  /// that run tiny models under mappings the real profile would OOM).
  bool enforce_memory = true;
  ReductionMode reduction = ReductionMode::kStrictVnOrder;
  /// Host worker threads running train_step's device loop, the only work
  /// the pool runs; the optimizer applies once, on the calling thread.
  /// 0 = serial (the reference path). Each worker owns one lane: a model
  /// copy plus the VN slots of the devices w, w+L, w+2L, ... (L = min(
  /// workers, devices)). Any value yields bit-identical results: every
  /// lane holds the same parameters when a step starts, each device
  /// writes only its own VNs' gradient sums, and the reduction in
  /// sync_and_update is ordered by VN id, not by completion.
  std::int64_t num_threads = 0;
};

/// Telemetry for one training step.
struct StepStats {
  std::int64_t step = 0;
  double loss = 0.0;           ///< global-batch mean training loss
  double step_time_s = 0.0;    ///< simulated wall time of this step
  double sim_time_s = 0.0;     ///< simulated clock after this step
  double throughput = 0.0;     ///< examples per simulated second
  double comm_time_s = 0.0;    ///< all-reduce portion of step_time_s
  double max_device_mem = 0.0; ///< peak simulated memory over devices
};

/// One virtual node's share of a forward-only inference batch (the serving
/// path, src/serve/). `features` is a [count x feature_dim] matrix.
struct InferSlice {
  std::int32_t vn = 0;
  Tensor features;
  /// Autoregressive decode step: the forward math is unchanged (each row
  /// still produces a logits row), but the slice is PRICED with
  /// decode_pass_time_s — one token of compute per row against a full
  /// parameter read — instead of infer_pass_time_s. Set by the token
  /// streamer for every post-prefill slice of a stream.
  bool decode = false;
};

/// Simulated cost of one inference slice, priced as an independently
/// dispatched unit — what a continuous-batching scheduler needs to free
/// the slice's VN slot the moment *it* finishes, instead of waiting for
/// the whole batch's barrier. The pass time and the per-dispatch framework
/// overhead are split out so the scheduler can apply warm/cold pricing: a
/// slice dispatched onto an already-busy device pipelines behind the
/// running pass and amortizes the overhead away; a cold dispatch pays it
/// in full (cold_total_s() == slice_infer_time_s of the cost model).
struct SliceCost {
  std::int32_t vn = 0;
  std::int64_t device = 0;  ///< device hosting the VN under the current mapping
  double pass_s = 0.0;      ///< forward time of this slice alone on its device
  double overhead_s = 0.0;  ///< per-dispatch framework overhead (cold price)
  double comm_s = 0.0;      ///< this slice's logits return to the frontend

  double cold_total_s() const { return pass_s + overhead_s; }
};

/// Result of a forward-only pass over a set of inference slices.
struct InferStats {
  /// Predicted class per example, concatenated in slice order. Predictions
  /// are a pure function of (parameters, averaged VN state, inputs) — the
  /// VN -> device mapping and the host worker count cannot change a bit.
  std::vector<std::int64_t> predictions;
  /// Simulated time: barrier at the slowest participating device (its VN
  /// passes run sequentially, forward-only, no parameter update).
  double compute_s = 0.0;
  /// Simulated time to return each device's logits to the serving frontend
  /// (max over devices; independent links).
  double comm_s = 0.0;
  /// Per-slice costs aligned with the input slice order. compute_s/comm_s
  /// above price the slices co-scheduled as one batch (overhead amortized
  /// per device); each SliceCost prices its slice dispatched alone.
  std::vector<SliceCost> slice_costs;
};

/// Data-parallel synchronous training engine with virtual-node processing.
class VirtualFlowEngine {
 public:
  /// The engine copies `model` once per host lane (one lane serially, one
  /// per pool worker) and `optimizer` once; neither is copied again, by a
  /// resize or otherwise. `profile` drives simulated timing/memory.
  VirtualFlowEngine(const Sequential& model, const Optimizer& optimizer,
                    const LrSchedule& schedule, const Dataset& train,
                    ModelProfile profile, std::vector<Device> devices,
                    VnMapping mapping, EngineConfig config);

  /// Attaches observability sinks (obs/obs.h; either pointer may be
  /// null). With a TraceRecorder attached, each train_step records one
  /// "train" span per busy device (its simulated busy window on the
  /// virtual clock) plus a "step" span on the control track covering the
  /// whole step; with a MetricsRegistry it feeds "train.*" counters,
  /// gauges, and the step-time histogram. Spans are emitted from the
  /// serial timing section, so recording is identical under any host
  /// worker count and never perturbs the simulated trajectory.
  void set_observability(obs::Observability obs);

  /// Runs one global-batch step (Fig 5 steps 1-6).
  StepStats train_step();

  /// Elastic resize: redistribute the existing virtual nodes across a new
  /// device set (§4.1). Keeps VN count/batches, hence semantics. Every
  /// resize charges one all-gather of the training state to the clock and
  /// carries the VN state to the new workers; the paper's checkpoint-
  /// restart baselines are modelled above the engine, by each cluster
  /// policy's resize_penalty_s (sched/simulator.h). This is the execution
  /// path for every sizing decision made ABOVE the engine — the
  /// self-governed elastic rule and cluster-policy device grants
  /// (sched::DeviceLease / EngineTrainLease) both land here, so a grant
  /// can never produce a trajectory a standalone resize could not.
  void resize(std::vector<Device> new_devices);

  /// Fault tolerance (§7): drop the device at `device_index` and
  /// redistribute its virtual nodes over the survivors, reusing the
  /// elastic migration machinery. Training continues uninterrupted from
  /// the application's perspective; a later resize() re-adds replacements.
  /// Throws if it would leave zero devices.
  void fail_device(std::int64_t device_index);

  /// Straggler injection (src/fault/): scales device d's simulated compute
  /// time by `multiplier` (>= 1) in both train_step and infer. Timing
  /// only — the numerical trajectory is untouched, so bit-exactness across
  /// worker counts survives any straggler schedule. Reset to 1.0 for every
  /// device by resize/reconfigure (slots are positional, and a migration
  /// re-lands VNs on fresh hardware).
  void set_device_slowdown(std::int64_t device, double multiplier);
  double device_slowdown(std::int64_t device) const;

  /// Comm-fault injection: the next train_step charges its all-reduce
  /// twice (one retry), consuming the flag. Timing only; a single-device
  /// step has no comm phase and consumes the flag for free.
  void inject_comm_retry() { comm_retry_ = true; }

  /// General reconfiguration to an arbitrary mapping (used by
  /// heterogeneous training, §5). The new mapping must preserve the
  /// global batch size.
  void reconfigure(std::vector<Device> new_devices, VnMapping new_mapping);

  /// Top-1 accuracy on `eval` (full dataset, or first `limit` examples).
  /// Evaluation is serving's forward pass: kEvalChunk-row slices on VN 0,
  /// each run through infer() on the calling thread. Predictions are
  /// computed row by row, so the accuracy has the same bits for any chunk
  /// size, mapping and worker count. Does not advance the clock.
  double evaluate(const Dataset& eval, std::int64_t limit = -1);

  /// Forward-only execution of inference micro-batches on a subset of
  /// virtual nodes (the serving entry point, src/serve/, and evaluate's).
  /// Each slice is priced on the device hosting its VN, runs on lane 0's
  /// model and reads the shared averaged eval-time VN state (batch-norm
  /// moving statistics averaged over VNs in id order); devices run one
  /// after another on the calling thread, whatever num_threads is. Does
  /// NOT advance the engine's simulated clock — callers (the serving
  /// loop) own their own timeline and consume the returned simulated
  /// costs. Slices must name distinct, valid VNs.
  InferStats infer(const std::vector<InferSlice>& slices);

  // ---- Introspection (tests, benches) ----
  std::int64_t step() const { return step_; }
  std::int64_t epoch() const { return step_ / batcher_.batches_per_epoch(); }
  std::int64_t steps_per_epoch() const { return batcher_.batches_per_epoch(); }
  double sim_time_s() const { return clock_s_; }
  const VnMapping& mapping() const { return mapping_; }
  const std::vector<Device>& devices() const { return devices_; }
  const ModelProfile& profile() const { return profile_; }
  /// Flat parameter vector of lane 0's model (the one the optimizer
  /// updates).
  Tensor parameters() const;
  /// Per-VN stateful-kernel storage (batch-norm moving stats).
  const VnState& vn_state(std::int32_t vn) const;
  /// Simulated peak memory on device d under the current mapping.
  MemoryBreakdown device_memory(std::int64_t d) const;
  /// Whether device d uses the shared gradient buffer (V_d > 1).
  bool uses_grad_buffer(std::int64_t d) const;
  /// Heap allocations observed across the engine's workspaces so far.
  /// After warm-up a steady-state train_step must not move this (the
  /// zero-allocation contract; see tests/core/test_zero_alloc.cpp).
  std::int64_t workspace_allocs() const { return ws_.heap_allocs(); }
  /// Virtual-node slot rows currently held by the hot-path workspace.
  /// Tracks the live mapping exactly: reconfigure evicts slots (and infer
  /// scratch) of departed VNs rather than letting them pin buffers.
  std::int64_t workspace_vns() const { return ws_.num_vns(); }

 private:
  void check_memory() const;
  /// (Re)sizes the per-VN hot-path scratch to the current mapping.
  void resize_vn_scratch();
  double sync_and_update(const std::vector<Tensor>& vn_grad_sums,
                         const std::vector<double>& vn_loss_sums, double* out_loss);
  /// Copies lane 0's parameters into every stale lane below `lanes`.
  void sync_lanes(std::size_t lanes);
  /// Averaged eval-time VN state, recomputed lazily (train_step and
  /// reconfigure invalidate it). Eval-mode forwards only read state,
  /// so every infer() call (evaluate's included) reads this one copy
  /// instead of deep-copying it per call per device — the infer hot path
  /// allocates nothing for it.
  VnState& shared_eval_state();

  static constexpr std::int64_t kEvalChunk = 1024;

  ModelProfile profile_;
  std::vector<Device> devices_;
  VnMapping mapping_;
  EngineConfig config_;
  std::unique_ptr<LrSchedule> schedule_;
  EpochBatcher batcher_;

  // One model per host lane (lane w runs devices w, w+L, ... of a step),
  // built in the constructor and never rebuilt; lane 0's is the one the
  // optimizer updates and infer() runs.
  std::vector<Sequential> lanes_;
  /// Each lane's parameter tensors, listed once: the lanes never rebuild.
  std::vector<std::vector<Tensor*>> lane_params_;
  /// Lanes [0, synced_lanes_) hold lane 0's current parameters. A step
  /// refreshes the other lanes it runs first, so an update copies into no
  /// lane and a lane idle since a shrink catches up when a grow wakes it.
  std::size_t synced_lanes_ = 0;
  std::unique_ptr<Optimizer> optimizer_;
  std::vector<VnState> vn_states_;  // indexed by VN id; survives resizes
  std::unique_ptr<ThreadPool> pool_;  // null when config_.num_threads == 0

  // ---- Reusable hot-path scratch (zero tensor allocations once warm).
  // Everything is keyed by VN id, so under any mapping and worker count
  // the lane driving device d touches exactly its VNs' slots — the same
  // confinement argument that makes the gradient slots race-free.
  Workspace ws_;                                    // activations, kernel temps
  std::vector<MicroBatch> vn_mb_;                   // micro-batch buffers
  std::vector<std::vector<std::int64_t>> vn_idx_;   // gather index scratch
  std::vector<LossResult> vn_loss_;                 // loss + grad_logits slots
  std::vector<Tensor> vn_grad_sums_;                // flattened gradient sums
  std::vector<double> vn_loss_sums_;
  Tensor global_grad_;                              // reduction scratch
  std::vector<Tensor> device_sums_;                 // hierarchical-mode scratch

  // ---- Per-model infer scratch (this engine IS the model: co-located
  // serving runs one engine per model, so everything here is keyed by
  // (model, VN) overall). Sized to the mapping by resize_vn_scratch and
  // evicted with it on reconfigure, like the training slots above.
  VnState eval_state_cache_;                        // shared averaged eval state
  bool eval_state_dirty_ = true;
  std::vector<std::vector<std::int64_t>> vn_infer_preds_;  // per-VN predictions
  std::vector<double> vn_infer_bytes_;              // per-VN logits bytes
  std::vector<std::vector<std::size_t>> infer_by_device_;  // device -> slice idx
  std::vector<bool> infer_seen_;                    // duplicate-VN guard

  // ---- Observability sinks (null = off) and instrument pointers cached
  // at attach time so the step loop never does a name lookup.
  obs::Observability obs_;
  obs::Counter* steps_counter_ = nullptr;
  obs::Counter* evals_counter_ = nullptr;
  obs::Histogram* step_hist_ = nullptr;
  obs::Gauge* loss_gauge_ = nullptr;
  obs::Gauge* throughput_gauge_ = nullptr;

  // ---- Fault injection (timing-only; see set_device_slowdown).
  std::vector<double> slowdowns_;  // per device slot, reset on reconfigure
  bool comm_retry_ = false;

  std::int64_t step_ = 0;
  double clock_s_ = 0.0;
  bool first_step_done_ = false;
};

}  // namespace vf
