#include "core/trainer.h"

#include "util/common.h"

namespace vf {

TrainResult train(VirtualFlowEngine& engine, const Dataset& val, std::int64_t epochs,
                  std::vector<ReconfigEvent> events, std::int64_t eval_limit) {
  check(epochs > 0, "epochs must be positive");
  for (std::size_t i = 1; i < events.size(); ++i)
    check(events[i].at_step > events[i - 1].at_step,
          "reconfiguration events must be sorted by step");

  TrainResult result;
  std::size_t next_event = 0;
  const std::int64_t spe = engine.steps_per_epoch();

  for (std::int64_t e = 0; e < epochs; ++e) {
    double loss_acc = 0.0;
    for (std::int64_t s = 0; s < spe; ++s) {
      while (next_event < events.size() &&
             events[next_event].at_step == engine.step()) {
        const ReconfigEvent& ev = events[next_event];
        if (ev.mapping.has_value()) {
          engine.reconfigure(ev.devices, *ev.mapping);
        } else {
          engine.resize(ev.devices);
        }
        ++next_event;
      }
      loss_acc += engine.train_step().loss;
    }
    EpochRecord rec;
    rec.epoch = e + 1;
    rec.train_loss = loss_acc / static_cast<double>(spe);
    rec.val_accuracy = engine.evaluate(val, eval_limit);
    rec.sim_time_s = engine.sim_time_s();
    result.curve.push_back(rec);
  }

  result.final_accuracy = result.curve.back().val_accuracy;
  result.total_sim_time_s = engine.sim_time_s();
  result.total_steps = engine.step();
  return result;
}

}  // namespace vf
