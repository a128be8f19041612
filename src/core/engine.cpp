#include "core/engine.h"

#include <algorithm>
#include <numeric>

#include "util/common.h"

namespace vf {

namespace {
// Engine-level workspace tags (negative: layer tags are >= 0).
constexpr std::int32_t kTagLogits = -1;    // forward output per VN
constexpr std::int32_t kTagTopGrad = -2;   // model-input gradient (discarded)
}  // namespace

VirtualFlowEngine::VirtualFlowEngine(const Sequential& model, const Optimizer& optimizer,
                                     const LrSchedule& schedule, const Dataset& train,
                                     ModelProfile profile, std::vector<Device> devices,
                                     VnMapping mapping, EngineConfig config)
    : profile_(std::move(profile)),
      devices_(std::move(devices)),
      mapping_(std::move(mapping)),
      config_(config),
      schedule_(schedule.clone()),
      batcher_(train, config.seed, mapping_.global_batch()),
      lanes_(static_cast<std::size_t>(std::max<std::int64_t>(1, config.num_threads)), model),
      optimizer_(optimizer.clone()) {
  check(static_cast<std::int64_t>(devices_.size()) == mapping_.num_devices(),
        "mapping device count (" + std::to_string(mapping_.num_devices()) +
            ") must match cluster size (" + std::to_string(devices_.size()) + ")");
  for (Sequential& lane : lanes_) lane_params_.push_back(lane.params());
  synced_lanes_ = lanes_.size();  // every lane starts as a copy of `model`
  vn_states_.resize(static_cast<std::size_t>(mapping_.total_vns()));
  resize_vn_scratch();
  if (config_.enforce_memory) check_memory();
  if (config_.num_threads > 0)
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
}

void VirtualFlowEngine::resize_vn_scratch() {
  const auto n = static_cast<std::size_t>(mapping_.total_vns());
  // Evict before growing: a reconfigure onto fewer VNs must not leave the
  // departed VNs' workspace slots (or their infer scratch) pinning
  // buffers behind the new mapping's back.
  ws_.shrink_vns(mapping_.total_vns());
  ws_.ensure_vns(mapping_.total_vns());
  // Shrinking these vectors destroys the departed VNs' elements, freeing
  // their tensor buffers (the vector shells they leave behind are bytes).
  vn_mb_.resize(n);
  vn_idx_.resize(n);
  vn_loss_.resize(n);
  vn_grad_sums_.resize(n);
  vn_loss_sums_.assign(n, 0.0);
  vn_infer_preds_.resize(n);
  vn_infer_bytes_.assign(n, 0.0);
  infer_seen_.assign(n, false);
  // Slowdowns are positional (slot d of the current set); a reconfigure
  // re-lands VNs on fresh hardware, so injected stragglers do not follow.
  slowdowns_.assign(devices_.size(), 1.0);
  eval_state_dirty_ = true;
}

void VirtualFlowEngine::set_device_slowdown(std::int64_t device, double multiplier) {
  check_index(device, static_cast<std::int64_t>(slowdowns_.size()), "device");
  check(multiplier >= 1.0, "slowdown multiplier must be >= 1");
  slowdowns_[static_cast<std::size_t>(device)] = multiplier;
}

double VirtualFlowEngine::device_slowdown(std::int64_t device) const {
  check_index(device, static_cast<std::int64_t>(slowdowns_.size()), "device");
  return slowdowns_[static_cast<std::size_t>(device)];
}

bool VirtualFlowEngine::uses_grad_buffer(std::int64_t d) const {
  // With a single VN per device VirtualFlow falls back to stock framework
  // behaviour and needs no separate accumulation buffer (§3.2).
  return mapping_.device_vns(d).size() > 1;
}

MemoryBreakdown VirtualFlowEngine::device_memory(std::int64_t d) const {
  return peak_memory(profile_, mapping_.device_batches(d), uses_grad_buffer(d));
}

void VirtualFlowEngine::check_memory() const {
  for (std::int64_t d = 0; d < mapping_.num_devices(); ++d) {
    check_fits(devices_[static_cast<std::size_t>(d)].spec(), profile_,
               mapping_.device_batches(d), uses_grad_buffer(d));
  }
}

void VirtualFlowEngine::set_observability(obs::Observability obs) {
  obs_ = obs;
  if (obs.metrics == nullptr) {
    steps_counter_ = evals_counter_ = nullptr;
    step_hist_ = nullptr;
    loss_gauge_ = throughput_gauge_ = nullptr;
    return;
  }
  // Step times of interesting configs span ~1ms (tiny test models) to
  // tens of seconds (first-step warmup on large profiles).
  static const std::vector<double> kStepTimeEdges = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
      0.2,   0.5,   1.0,   2.0,  5.0,  10.0, 30.0};
  steps_counter_ = &obs.metrics->counter("train.steps");
  evals_counter_ = &obs.metrics->counter("train.evals");
  step_hist_ = &obs.metrics->histogram("train.step_time_s", kStepTimeEdges);
  loss_gauge_ = &obs.metrics->gauge("train.loss");
  throughput_gauge_ = &obs.metrics->gauge("train.throughput");
}

StepStats VirtualFlowEngine::train_step() {
  const std::int64_t bpe = batcher_.batches_per_epoch();
  const std::int64_t epoch = step_ / bpe;
  const std::int64_t bie = step_ % bpe;
  const auto slices = mapping_.slices();

  // --- Fig 5 steps 1-3: per-device sequential VN execution. Lane w runs
  // devices w, w+L, w+2L, ... (L = min(lanes, devices)) on its own model,
  // the lanes concurrently on the host pool when configured. A lane
  // mutates only its model, its devices' VN states and those VNs' slots of
  // the scratch vectors/workspace, so the partition is race-free; the
  // epoch permutation is warmed up front so the batcher is read-only
  // inside the loop. Neither the lane nor the schedule can change the
  // result: every lane holds the same parameters, every VN starts from
  // zero_grad, and the reduction order is fixed by VN id in
  // sync_and_update. Every buffer the pass needs lives in a per-VN slot
  // reused across steps — a warmed-up step performs zero tensor heap
  // allocations.
  batcher_.prepare_epoch(epoch);
  ws_.begin_region();  // new ownership region: lane -> VN may have moved
  const std::int64_t n_dev = mapping_.num_devices();
  const std::int64_t n_lanes = std::min(static_cast<std::int64_t>(lanes_.size()), n_dev);
  sync_lanes(static_cast<std::size_t>(n_lanes));
  const auto run_lane = [&](std::int64_t w) {
    Sequential& model = lanes_[static_cast<std::size_t>(w)];
    for (std::int64_t d = w; d < n_dev; d += n_lanes) {
      for (const std::int32_t vn : mapping_.device_vns(d)) {
        const auto v = static_cast<std::size_t>(vn);
        MicroBatch& mb = vn_mb_[v];
        batcher_.micro_batch_into(epoch, bie, slices, vn, mb, vn_idx_[v]);
        ExecContext ctx;
        ctx.seed = config_.seed;
        ctx.step = step_;
        ctx.vn_id = vn;
        ctx.training = true;
        ctx.state = &vn_states_[v];
        ctx.ws = &ws_;

        model.zero_grad();
        Tensor& logits = ws_.acquire(vn, kTagLogits);
        model.forward_into(mb.features, logits, ctx);
        LossResult& loss = vn_loss_[v];
        softmax_cross_entropy_into(logits, mb.labels, loss);
        model.backward_into(loss.grad_logits, ws_.acquire(vn, kTagTopGrad));

        model.flatten_grads_into(vn_grad_sums_[v]);
        vn_loss_sums_[v] = loss.loss_sum;
      }
    }
  };
  if (pool_) {
    pool_->parallel_for(n_lanes, run_lane);
  } else {
    run_lane(0);
  }

  // --- Fig 5 steps 4-5: synchronize and update.
  double loss = 0.0;
  const double comm_s = sync_and_update(vn_grad_sums_, vn_loss_sums_, &loss);

  // --- Simulated timing: barrier at the slowest device, plus all-reduce.
  double compute_s = 0.0;
  double max_mem = 0.0;
  for (std::int64_t d = 0; d < n_dev; ++d) {
    const DeviceSpec& spec = devices_[static_cast<std::size_t>(d)].spec();
    // A device hosting zero VNs this phase idles: it spends no compute
    // and cannot be the step's barrier (its simulated model memory still
    // counts).
    if (!mapping_.device_vns(d).empty()) {
      // Injected straggler multipliers (src/fault/) stretch the device's
      // simulated window; the barrier picks up the slowest device either
      // way, and the math above already ran — timing only.
      const double dt =
          device_step_time_s(spec, profile_, mapping_.device_batches(d)) *
          slowdowns_[static_cast<std::size_t>(d)];
      compute_s = std::max(compute_s, dt);
      if (obs_.trace != nullptr) {
        // One span per busy device: its simulated compute window this
        // step. Emitted here, in the serial timing section, so the trace
        // is byte-identical under any host worker count.
        obs_.trace->span("train", clock_s_, clock_s_ + dt,
                         static_cast<std::int32_t>(d), /*vn=*/-1,
                         /*model=*/-1, mapping_.device_batch_total(d),
                         /*warm=*/false);
      }
    }
    max_mem = std::max(max_mem, device_memory(d).total());
  }
  double step_time = compute_s + comm_s;
  if (!first_step_done_) {
    double extra = 0.0;
    for (const Device& dev : devices_) extra = std::max(extra, dev.spec().first_step_extra_s);
    step_time += extra;
    first_step_done_ = true;
  }

  if (obs_.trace != nullptr) {
    // The whole step (compute barrier + all-reduce + any first-step
    // extra) on the control track, sized by the global batch.
    obs_.trace->span("step", clock_s_, clock_s_ + step_time, /*device=*/-1,
                     /*vn=*/-1, /*model=*/-1, mapping_.global_batch(),
                     /*warm=*/false);
  }

  clock_s_ += step_time;
  ++step_;
  eval_state_dirty_ = true;  // the step moved batch-norm moving stats

  StepStats s;
  s.step = step_;
  s.loss = loss;
  s.step_time_s = step_time;
  s.sim_time_s = clock_s_;
  s.throughput = static_cast<double>(mapping_.global_batch()) / step_time;
  s.comm_time_s = comm_s;
  s.max_device_mem = max_mem;
  if (steps_counter_ != nullptr) {
    steps_counter_->add();
    step_hist_->observe(step_time);
    loss_gauge_->set(loss, clock_s_);
    throughput_gauge_->set(s.throughput, clock_s_);
  }
  return s;
}

double VirtualFlowEngine::sync_and_update(const std::vector<Tensor>& vn_grad_sums,
                                          const std::vector<double>& vn_loss_sums,
                                          double* out_loss) {
  const auto b = static_cast<double>(mapping_.global_batch());

  double loss_sum = 0.0;
  for (const double l : vn_loss_sums) loss_sum += l;

  // `global_grad_` and `device_sums_` are member scratch: the copy
  // assignments below recycle their buffers, so steady-state reduction
  // allocates nothing. The addition orders are unchanged.
  if (config_.reduction == ReductionMode::kStrictVnOrder) {
    // Ascending VN-id reduction of per-VN gradient *sums*, then one
    // division by the global batch. Mathematically this equals the
    // paper's weighted average of per-device means (§5.2):
    // sum_d (B_d / B) * mean_d(g) = sum_all(g) / B — and, because the
    // order is fixed by VN id, the result is bit-identical under any
    // VN -> device mapping.
    global_grad_ = vn_grad_sums.at(0);
    for (std::size_t vn = 1; vn < vn_grad_sums.size(); ++vn)
      global_grad_.add_(vn_grad_sums[vn]);
  } else {
    // Hierarchical mode (ablation): each device folds its own VNs into
    // its gradient buffer, then buffers combine in device-rank order —
    // the shape of a real ring all-reduce. Same expectation, but the
    // addition order now depends on placement.
    //
    // Devices hosting zero VNs (legal under skewed mappings) contribute
    // nothing and are skipped outright: their buffer was never written
    // this step, so folding it in would read a default-constructed — or,
    // after a skewed reconfigure, a stale previous-mapping — gradient sum.
    device_sums_.resize(static_cast<std::size_t>(mapping_.num_devices()));
    for (std::int64_t d = 0; d < mapping_.num_devices(); ++d) {
      Tensor& buf = device_sums_[static_cast<std::size_t>(d)];
      bool first = true;
      for (const std::int32_t vn : mapping_.device_vns(d)) {
        if (first) {
          buf = vn_grad_sums[static_cast<std::size_t>(vn)];
          first = false;
        } else {
          buf.add_(vn_grad_sums[static_cast<std::size_t>(vn)]);
        }
      }
    }
    bool first_device = true;
    for (std::int64_t d = 0; d < mapping_.num_devices(); ++d) {
      if (mapping_.device_vns(d).empty()) continue;
      if (first_device) {
        global_grad_ = device_sums_[static_cast<std::size_t>(d)];
        first_device = false;
      } else {
        global_grad_.add_(device_sums_[static_cast<std::size_t>(d)]);
      }
    }
    check(!first_device, "reduction saw no virtual nodes");  // validate() forbids this
  }
  global_grad_.scale_(static_cast<float>(1.0 / b));
  *out_loss = loss_sum / b;

  // One update of the one parameter set; every other lane is stale until
  // a step that runs it refreshes it (sync_lanes).
  Sequential& model = lanes_.front();
  model.load_grads(global_grad_);
  optimizer_->apply(model, schedule_->lr(step_));
  synced_lanes_ = 1;

  // An injected comm fault charges the all-reduce twice (one retry).
  // Consumed even on a single device, where no comm phase exists.
  const double retry = comm_retry_ ? 2.0 : 1.0;
  comm_retry_ = false;
  if (mapping_.num_devices() <= 1) return 0.0;
  return retry * ring_allreduce_time_s(profile_.param_bytes(),
                                       mapping_.num_devices(), config_.link);
}

void VirtualFlowEngine::sync_lanes(std::size_t lanes) {
  // Copy assignment reuses each destination buffer: no allocation.
  const std::vector<Tensor*>& src = lane_params_.front();
  for (; synced_lanes_ < lanes; ++synced_lanes_) {
    const std::vector<Tensor*>& dst = lane_params_[synced_lanes_];
    for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
  }
}

void VirtualFlowEngine::resize(std::vector<Device> new_devices) {
  check(!new_devices.empty(), "cannot resize to zero devices");
  const VnMapping new_mapping =
      mapping_.redistributed(static_cast<std::int64_t>(new_devices.size()));
  reconfigure(std::move(new_devices), new_mapping);
}

void VirtualFlowEngine::reconfigure(std::vector<Device> new_devices,
                                    VnMapping new_mapping) {
  check(static_cast<std::int64_t>(new_devices.size()) == new_mapping.num_devices(),
        "reconfigure: device count mismatch");
  check(new_mapping.global_batch() == mapping_.global_batch(),
        "reconfigure must preserve the global batch size (got " +
            std::to_string(new_mapping.global_batch()) + ", want " +
            std::to_string(mapping_.global_batch()) + ")");

  // Migration cost (§4.1): one all-gather carrying model parameters,
  // optimizer slots, and per-VN stateful-kernel tensors to bootstrap the
  // new workers. Typically well under a second — vs. minutes for the
  // checkpoint-restart baselines, which the cluster policies charge
  // through resize_penalty_s.
  double state_bytes = profile_.param_bytes();
  state_bytes += static_cast<double>(optimizer_->slot_bytes());
  for (const VnState& st : vn_states_) state_bytes += static_cast<double>(st.total_bytes());
  // The state is sharded across participants for the all-gather, so the
  // wire cost is ~one full copy of the state, not world x state. Both
  // the departing and the joining workers take part, so the ring spans
  // the larger of the two memberships.
  const auto world = std::max<std::int64_t>(
      static_cast<std::int64_t>(new_devices.size()), mapping_.num_devices());
  const double migration_s = ring_allgather_time_s(
      state_bytes / static_cast<double>(world), world, config_.link);
  if (obs_.trace != nullptr) {
    // Reconfiguration marker on the control track: device-count change
    // plus the migration charge (arg_s), stamped when the decision lands.
    obs_.trace->instant("migrate", clock_s_, /*device=*/-1, /*vn=*/-1,
                        /*model=*/-1, mapping_.num_devices(),
                        static_cast<std::int64_t>(new_devices.size()),
                        migration_s);
  }
  if (obs_.metrics != nullptr)
    obs_.metrics->counter("train.reconfigures").add();
  clock_s_ += migration_s;

  // VN states are keyed by VN id. A semantics-preserving resize keeps the
  // VN count; a general reconfiguration (heterogeneous) may change it, in
  // which case surviving ids keep their state and new ids start fresh.
  vn_states_.resize(static_cast<std::size_t>(new_mapping.total_vns()));
  devices_ = std::move(new_devices);
  mapping_ = std::move(new_mapping);
  resize_vn_scratch();
  if (config_.enforce_memory) check_memory();
}

void VirtualFlowEngine::fail_device(std::int64_t device_index) {
  check_index(device_index, static_cast<std::int64_t>(devices_.size()), "device");
  check(devices_.size() > 1, "cannot lose the last device");
  std::vector<Device> survivors;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (static_cast<std::int64_t>(d) != device_index) survivors.push_back(devices_[d]);
  }
  // The failed device held nothing the engine needs: the model lives in
  // the engine's lanes and VN state with the (logical) virtual nodes —
  // redistribute and continue.
  resize(std::move(survivors));
}

Tensor VirtualFlowEngine::parameters() const {
  return lanes_.front().flatten_params();
}

const VnState& VirtualFlowEngine::vn_state(std::int32_t vn) const {
  check_index(vn, static_cast<std::int64_t>(vn_states_.size()), "virtual node");
  return vn_states_[static_cast<std::size_t>(vn)];
}

namespace {

/// Averages per-VN stateful-kernel tensors (in ascending VN-id order) into
/// one evaluation-time state. VNs missing a key are skipped.
VnState average_states(const std::vector<VnState>& states) {
  VnState out;
  if (states.empty()) return out;
  for (const std::string& key : states.front().keys()) {
    Tensor acc;
    std::int64_t count = 0;
    for (const VnState& st : states) {
      if (!st.has(key)) continue;
      if (count == 0) {
        acc = st.get(key);
      } else {
        acc.add_(st.get(key));
      }
      ++count;
    }
    if (count > 0) {
      acc.scale_(1.0F / static_cast<float>(count));
      out.put(key, std::move(acc));
    }
  }
  return out;
}

}  // namespace

VnState& VirtualFlowEngine::shared_eval_state() {
  if (eval_state_dirty_) {
    eval_state_cache_ = average_states(vn_states_);
    eval_state_dirty_ = false;
  }
  return eval_state_cache_;
}

InferStats VirtualFlowEngine::infer(const std::vector<InferSlice>& slices) {
  check(!slices.empty(), "infer needs at least one slice");
  infer_seen_.assign(static_cast<std::size_t>(mapping_.total_vns()), false);
  for (const InferSlice& s : slices) {
    check_index(s.vn, mapping_.total_vns(), "virtual node");
    check(!infer_seen_[static_cast<std::size_t>(s.vn)], [&] {
      return "infer: virtual node " + std::to_string(s.vn) + " appears twice";
    });
    infer_seen_[static_cast<std::size_t>(s.vn)] = true;
    check(s.features.rank() == 2 && s.features.rows() > 0,
          "infer slice features must be a non-empty [count x dim] matrix");
  }

  // Group slices by hosting device; devices run in ascending order, each
  // its slices in call order (same execution shape as training VNs), all
  // on lane 0's model and the calling thread: handing devices to the pool measured slower
  // than this loop on every serving workload (README, "Concurrency
  // model"). All the loop's scratch — grouping lists, per-VN prediction
  // vectors, the averaged eval state — is engine-member storage keyed by
  // VN: a serving loop issuing thousands of dispatches reuses it call
  // after call instead of reallocating.
  const std::int64_t n_dev = mapping_.num_devices();
  infer_by_device_.resize(static_cast<std::size_t>(n_dev));
  for (auto& list : infer_by_device_) list.clear();
  for (std::size_t i = 0; i < slices.size(); ++i)
    infer_by_device_[static_cast<std::size_t>(mapping_.device_of(slices[i].vn))]
        .push_back(i);

  VnState& eval_state = shared_eval_state();  // read-only under training=false
  VnState* const eval_state_ptr = eval_state.empty() ? nullptr : &eval_state;

  ws_.begin_region();  // this thread takes over the VNs' slots from the last region
  Sequential& model = lanes_.front();
  for (std::int64_t d = 0; d < n_dev; ++d) {
    for (const std::size_t i : infer_by_device_[static_cast<std::size_t>(d)]) {
      const InferSlice& s = slices[i];
      const auto v = static_cast<std::size_t>(s.vn);
      ExecContext ctx;
      ctx.seed = config_.seed;
      ctx.step = step_;
      ctx.vn_id = s.vn;
      ctx.training = false;
      ctx.state = eval_state_ptr;
      // Slices name distinct VNs, so the per-VN slots of the training
      // workspace are free for serving reuse.
      ctx.ws = &ws_;
      Tensor& logits = ws_.acquire(s.vn, kTagLogits);
      model.forward_into(s.features, logits, ctx);
      logits.row_argmax_into(vn_infer_preds_[v]);
      vn_infer_bytes_[v] = static_cast<double>(logits.size()) * 4.0;
    }
  }

  // Simulated timing: barrier at the slowest participating device, plus
  // the slowest logits return to the frontend. Both are pure functions of
  // the slice shapes and the mapping — never of host scheduling. Alongside
  // the batch barrier, each slice is also priced as an independent dispatch
  // (slice_infer_time_s) so a continuous-batching caller can free per-VN
  // slots at per-slice completion times.
  InferStats out;
  out.slice_costs.resize(slices.size());
  for (std::int64_t d = 0; d < n_dev; ++d) {
    const auto& mine = infer_by_device_[static_cast<std::size_t>(d)];
    if (mine.empty()) continue;
    double dev_pass_s = 0.0;
    double dev_bytes = 0.0;
    const DeviceSpec& spec = devices_[static_cast<std::size_t>(d)].spec();
    for (const std::size_t i : mine) {
      const auto v = static_cast<std::size_t>(slices[i].vn);
      dev_bytes += vn_infer_bytes_[v];
      SliceCost& c = out.slice_costs[i];
      c.vn = slices[i].vn;
      c.device = d;
      // Decode slices price against the memory-bandwidth floor (full
      // parameter read per token step); everything else is the standard
      // forward pass. The device barrier below sums the same per-slice
      // pass times.
      c.pass_s = slices[i].decode
                     ? decode_pass_time_s(spec, profile_, slices[i].features.rows())
                     : infer_pass_time_s(spec, profile_, slices[i].features.rows());
      // Injected straggler multiplier (src/fault/): a degraded device
      // serves its slices slower; predictions are untouched.
      c.pass_s *= slowdowns_[static_cast<std::size_t>(d)];
      c.overhead_s = spec.step_fixed_s;
      if (n_dev > 1) c.comm_s = send_time_s(vn_infer_bytes_[v], config_.link);
      dev_pass_s += c.pass_s;
    }
    out.compute_s = std::max(out.compute_s, dev_pass_s + spec.step_fixed_s);
    if (n_dev > 1)
      out.comm_s = std::max(out.comm_s, send_time_s(dev_bytes, config_.link));
  }
  for (const InferSlice& s : slices) {
    const auto& preds = vn_infer_preds_[static_cast<std::size_t>(s.vn)];
    out.predictions.insert(out.predictions.end(), preds.begin(), preds.end());
  }
  return out;
}

double VirtualFlowEngine::evaluate(const Dataset& eval, std::int64_t limit) {
  const std::int64_t n = limit < 0 ? eval.size() : std::min(limit, eval.size());
  check(n > 0, "evaluate on empty dataset");
  std::vector<InferSlice> chunk(1);  // VN 0
  std::vector<std::int64_t> idx;
  std::vector<std::int64_t> labels;
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < n; start += kEvalChunk) {
    idx.resize(static_cast<std::size_t>(std::min(kEvalChunk, n - start)));
    std::iota(idx.begin(), idx.end(), start);
    eval.gather(idx, chunk[0].features, labels);
    const std::vector<std::int64_t> preds = infer(chunk).predictions;
    for (std::size_t i = 0; i < labels.size(); ++i)
      if (preds[i] == labels[i]) ++correct;
  }
  const double acc = static_cast<double>(correct) / static_cast<double>(n);
  // Evaluation does not advance the simulated clock, so it gets an
  // instant marker (stamped at the current clock) rather than a span.
  if (obs_.trace != nullptr)
    obs_.trace->instant("eval", clock_s_, /*device=*/-1, /*vn=*/-1,
                        /*model=*/-1, /*arg0=*/n, /*arg1=*/correct, acc);
  if (evals_counter_ != nullptr) {
    evals_counter_->add();
    obs_.metrics->gauge("train.eval_accuracy").set(acc, clock_s_);
  }
  return acc;
}

}  // namespace vf
