// Trainable proxy tasks standing in for the paper's datasets.
//
// Substitution (docs/architecture.md, "Layer map"): ImageNet/GLUE are
// unavailable, so each paper task maps to a deterministic synthetic
// classification task whose ceiling (Bayes) accuracy is calibrated near the paper's reported target accuracy.
// What the reproducibility experiments need from a task is *not* its
// content but its optimization behaviour:
//  * a fixed global batch + tuned hyperparameters reach the target;
//  * shrinking the batch without retuning the learning rate (the TF*
//    baseline) visibly degrades convergence;
//  * on small tasks (rte-sim), batch size materially changes the final
//    accuracy, with an interior optimum (Fig 9).
// Real SGD on these tasks exhibits all three properties for the same
// reason the real workloads do: the per-step gradient noise scales with
// learning rate / batch size.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"

namespace vf {

/// A complete proxy task: train/val datasets plus the paper's target
/// accuracy for the corresponding real task.
struct ProxyTask {
  std::string name;
  std::shared_ptr<Dataset> train;
  std::shared_ptr<Dataset> val;
  double target_accuracy = 0.0;  ///< paper-reported accuracy for this task
};

/// Training recipe tuned ONCE for the reference global batch size —
/// VirtualFlow's contract is that this recipe then works unchanged on any
/// hardware configuration.
struct TrainRecipe {
  std::int64_t global_batch = 0;
  std::int64_t epochs = 0;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<LrSchedule> schedule;
};

/// Known tasks: "imagenet-sim", "cifar10-sim", "qnli-sim", "sst2-sim",
/// "cola-sim", "rte-sim", "mrpc-sim". Throws on unknown name.
ProxyTask make_task(const std::string& name, std::uint64_t seed);

/// Proxy model for a task (the "architecture" is fixed per task family so
/// that the only variable across experiments is the hardware mapping).
Sequential make_proxy_model(const std::string& task_name, std::uint64_t seed);

/// Reference recipe for the task (hyperparameters tuned for its reference
/// global batch).
TrainRecipe make_recipe(const std::string& task_name);

/// Recipe with an overridden global batch but otherwise *unchanged*
/// hyperparameters — this is the paper's TF* baseline ("no retuning") and
/// its batch-size exploration mode (Fig 9).
TrainRecipe make_recipe_with_batch(const std::string& task_name,
                                   std::int64_t global_batch);

std::vector<std::string> task_names();

}  // namespace vf
