// Collective communication: cost model + functional collectives.
//
// Substitution (docs/architecture.md, "Layer map"): the paper synchronizes
// gradients with Horovod ring all-reduce over a 16 Gbps interconnect.
// Here the *data movement is real* (tensors are actually combined,
// because §5.2's weighted-averaging correctness results are numerical
// claims) while the *latency* comes from the standard α-β ring model.
//
// Determinism note: reductions combine contributions in ascending rank /
// virtual-node order. Floating-point addition is not associative, so a
// fixed order is what upgrades the paper's "same convergence across
// hardware (±0.5%)" to this repo's bit-exact reproducibility.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace vf {

/// α-β interconnect description. Defaults approximate the paper's testbed
/// (16 Gbps between servers).
struct LinkSpec {
  double latency_s = 50e-6;            ///< per-message latency (α)
  double bandwidth_bytes = 2.0e9;      ///< 16 Gbps (β)
};

/// Time for a ring all-reduce of `bytes` across `world` participants.
double ring_allreduce_time_s(double bytes, std::int64_t world, const LinkSpec& link);

/// Time for a ring all-gather where each of `world` participants
/// contributes `bytes` (total traffic (world-1) x bytes per node).
double ring_allgather_time_s(double bytes, std::int64_t world, const LinkSpec& link);

/// Time for a point-to-point send of `bytes` over one link (α + bytes / β).
/// The serving path charges this for returning each device's logits slice
/// to the frontend; devices send over independent links, so the batch-level
/// cost is the max, not the sum, over devices.
double send_time_s(double bytes, const LinkSpec& link);

/// Weighted sum of equally-shaped tensors: out = Σ_i weights[i] * bufs[i],
/// reduced in ascending index order — §5.2's weighted average of
/// per-device means (weights = per-device batch shares) in its textbook
/// form. The engine does not call it: VirtualFlowEngine::sync_and_update
/// sums the per-VN gradient sums in VN order and scales once by the
/// global batch, which equals this average and stays bit-identical under
/// any mapping. Only bench_microbench and tests/comm use it.
Tensor weighted_sum(const std::vector<const Tensor*>& bufs,
                    const std::vector<double>& weights);

}  // namespace vf
