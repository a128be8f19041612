// VirtualFlow: decoupling deep-learning models from the underlying
// hardware via virtual node processing.
//
// Umbrella header exposing the full public API. Typical usage:
//
//   #include "virtualflow.h"
//
//   vf::ProxyTask task = vf::make_task("imagenet-sim", /*seed=*/42);
//   vf::TrainRecipe recipe = vf::make_recipe("imagenet-sim");
//   vf::Sequential model = vf::make_proxy_model("imagenet-sim", 42);
//
//   auto devices = vf::make_devices(vf::DeviceType::kV100, 4);
//   auto mapping = vf::VnMapping::even(/*total_vns=*/32, /*devices=*/4,
//                                      recipe.global_batch);
//   vf::VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule,
//                                *task.train, vf::model_profile("resnet50"),
//                                devices, mapping, {});
//   vf::TrainResult result = vf::train(engine, *task.val, recipe.epochs);
//
// Changing `devices` (count or type) while keeping `total_vns` fixed
// yields a bit-identical `result` — that is the library's core contract.
#pragma once

// Substrates.
#include "util/common.h"
#include "util/fnv1a.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "tensor/tensor.h"
#include "nn/layer.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "nn/state.h"
#include "data/batch.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "device/cost_model.h"
#include "device/memory_model.h"
#include "device/model_profile.h"
#include "device/spec.h"
#include "comm/comm.h"

// Core virtual-node engine.
#include "core/engine.h"
#include "core/mapping.h"
#include "core/pipeline.h"
#include "core/trainer.h"

// Heterogeneous training.
#include "profiler/profiler.h"
#include "solver/solver.h"

// Deterministic fault injection on the virtual clock.
#include "fault/fault.h"

// Runtime observability: metrics registry + Perfetto-compatible tracing.
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

// Deadline-aware inference serving on virtual nodes.
#include "serve/arrival.h"
#include "serve/batch_former.h"
#include "serve/colocation.h"
#include "serve/digest.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "serve/slo_tracker.h"
#include "serve/slot_ledger.h"
#include "serve/streaming.h"

// Cluster scheduling.
#include "sched/cluster.h"
#include "sched/elastic.h"
#include "sched/gavel.h"
#include "sched/job.h"
#include "sched/lease.h"
#include "sched/simulator.h"
#include "sched/throughput.h"
#include "sched/trace.h"
#include "sched/wfs.h"

// Paper workload catalog.
#include "workloads/profiles.h"
#include "workloads/tasks.h"
