// Trainer: epoch-level loop around VirtualFlowEngine with per-epoch
// evaluation, optional mid-training reconfiguration events, and recorded
// convergence curves (what Figs 2, 8, 9 plot).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine.h"

namespace vf {

/// One point of a recorded convergence curve.
struct EpochRecord {
  std::int64_t epoch = 0;       ///< 1-based, matching the paper's plots
  double train_loss = 0.0;      ///< mean training loss over the epoch
  double val_accuracy = 0.0;
  double sim_time_s = 0.0;      ///< simulated clock at end of epoch
};

/// A scheduled reconfiguration: before global step `at_step`, switch to
/// `devices` (+ `mapping` if present; otherwise redistribute the current
/// virtual nodes evenly, the standard elastic resize).
struct ReconfigEvent {
  std::int64_t at_step = 0;
  std::vector<Device> devices;
  std::optional<VnMapping> mapping;
};

/// Result of a full training run.
struct TrainResult {
  std::vector<EpochRecord> curve;
  double final_accuracy = 0.0;
  double total_sim_time_s = 0.0;
  std::int64_t total_steps = 0;
};

/// Runs `epochs` epochs of training with per-epoch validation.
/// `events` must be sorted by at_step; each fires once.
TrainResult train(VirtualFlowEngine& engine, const Dataset& val, std::int64_t epochs,
                  std::vector<ReconfigEvent> events = {},
                  std::int64_t eval_limit = -1);

}  // namespace vf
