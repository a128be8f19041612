// Analytic step-time cost model for simulated accelerators.
//
// step_time(device, model, VN batches) =
//     Σ_v [ launch + max(compute(b_v), memory(b_v)) ]   (sequential VNs)
//   + update_time                                        (once per step!)
//   + fixed framework overhead
//
// Charging the parameter update once per step regardless of V is the
// mechanism behind two results the paper reports: Fig 17's throughput
// *increase* at high virtual-node counts (bigger global batch -> fewer
// updates per example) and Fig 18's low overhead when a workload already
// fits in memory.
#pragma once

#include <cstdint>
#include <vector>

#include "device/model_profile.h"
#include "device/spec.h"

namespace vf {

/// Batch-size utilization curve: fraction of peak compute achieved at
/// micro-batch size b. Saturating b / (b + b_half).
double batch_utilization(const ModelProfile& model, double batch);

/// Forward+backward time of one virtual-node pass of `batch` examples.
double pass_time_s(const DeviceSpec& spec, const ModelProfile& model,
                   std::int64_t batch);

/// Parameter-update time (optimizer step), charged once per training step.
double update_time_s(const DeviceSpec& spec, const ModelProfile& model);

/// Full local step time for one device running its VN batches sequentially.
/// Does not include gradient synchronization (the engine adds comm cost).
double device_step_time_s(const DeviceSpec& spec, const ModelProfile& model,
                          const std::vector<std::int64_t>& vn_batches);

/// Steady-state training throughput (examples/s) of a single device running
/// a local batch of `batch` split into `vns` equal virtual nodes.
double device_throughput(const DeviceSpec& spec, const ModelProfile& model,
                         std::int64_t batch, std::int64_t vns);

/// Forward-only (inference) time of one virtual-node pass of `batch`
/// examples: no backward, no gradient traffic, activations written once and
/// parameters read once. Used by the serving path (src/serve/) for
/// per-request latency accounting.
double infer_pass_time_s(const DeviceSpec& spec, const ModelProfile& model,
                         std::int64_t batch);

/// Forward time of one autoregressive DECODE pass over `batch` in-flight
/// token streams: each stream contributes one token of compute, but the
/// pass still reads the FULL parameter set from device memory. That full
/// read is what makes small-batch decode memory-bandwidth-bound — the
/// param_bytes() / mem_bw floor dominates the single token's FLOPs by an
/// order of magnitude on profiles sized like transformer decoders — and it
/// is why decode slices are short, near-constant-cost, and cheap to chain
/// through a slot (the prefill/decode disaggregation the serving path
/// exploits). For the token-denominated profiles the serving benches use,
/// `flops_per_example` / `activation_bytes_per_example` are per-token, so
/// a prefill of P tokens prices as infer_pass_time_s(batch = P) and each
/// decode step as decode_pass_time_s(batch = streams).
double decode_pass_time_s(const DeviceSpec& spec, const ModelProfile& model,
                          std::int64_t batch);

/// Forward-only time of ONE independently dispatched slice onto an IDLE
/// device: the cold-dispatch price of continuous batching's scheduling
/// unit (src/serve/). Unlike the device barrier of
/// VirtualFlowEngine::infer(), which charges the per-dispatch framework
/// overhead once per device for all the VN slices it co-schedules there,
/// a cold continuously batched slice pays the full overhead.
/// A warm dispatch — the slice pipelines behind a pass already running on
/// its device — amortizes the overhead away and costs just
/// infer_pass_time_s; the serving scheduler picks the price from the
/// device's virtual-clock state. Invariant, for slices b co-scheduled on
/// one device by one infer() call:
///   Σ_b infer_pass_time_s(b) + step_fixed_s <= Σ_b slice_infer_time_s(b)
/// with equality only for a single slice.
double slice_infer_time_s(const DeviceSpec& spec, const ModelProfile& model,
                          std::int64_t batch);

}  // namespace vf
