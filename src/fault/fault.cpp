#include "fault/fault.h"

#include <algorithm>
#include <limits>

#include "core/engine.h"
#include "util/common.h"
#include "util/rng.h"

namespace vf::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Stream tag for chaos plan generation ("FAULT" on a phone pad).
constexpr std::uint64_t kChaosTag = 0x328588;

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKill: return "kill";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kStragglerStart: return "straggler";
    case FaultKind::kStragglerEnd: return "straggler_end";
    case FaultKind::kCommFault: return "comm_fault";
  }
  return "unknown";
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  check(ev.time_s >= 0.0, "fault time must be non-negative");
  ev.id = static_cast<std::int64_t>(events_.size());
  events_.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::kill(double time_s, std::int64_t device) {
  check(device >= 0, "kill needs a device slot");
  return add({time_s, FaultKind::kKill, device, 1.0, 0});
}

FaultPlan& FaultPlan::recover(double time_s) {
  return add({time_s, FaultKind::kRecover, -1, 1.0, 0});
}

FaultPlan& FaultPlan::straggler(double time_s, std::int64_t device,
                                double multiplier, double duration_s) {
  check(device >= 0, "straggler needs a device slot");
  check(multiplier >= 1.0, "straggler multiplier must be >= 1");
  check(duration_s > 0.0, "straggler duration must be positive");
  add({time_s, FaultKind::kStragglerStart, device, multiplier, 0});
  return add({time_s + duration_s, FaultKind::kStragglerEnd, device, multiplier, 0});
}

FaultPlan& FaultPlan::comm_fault(double time_s) {
  return add({time_s, FaultKind::kCommFault, -1, 1.0, 0});
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, const ChaosConfig& cfg) {
  check(cfg.duration_s > 0.0, "chaos duration must be positive");
  check(cfg.max_device >= 0, "chaos needs a device range");
  check(cfg.multiplier_min >= 1.0 && cfg.multiplier_max >= cfg.multiplier_min,
        "chaos multipliers must satisfy 1 <= min <= max");
  CounterRng rng(derive_seed(seed, kChaosTag));
  FaultPlan plan;
  const auto slots = static_cast<std::uint64_t>(cfg.max_device + 1);
  for (std::int64_t i = 0; i < cfg.kills; ++i) {
    const double t = cfg.start_s + rng.next_double() * cfg.duration_s;
    const auto dev = static_cast<std::int64_t>(rng.next_below(slots));
    plan.kill(t, dev);
    plan.recover(t + cfg.recover_delay_s);
  }
  for (std::int64_t i = 0; i < cfg.stragglers; ++i) {
    const double t = cfg.start_s + rng.next_double() * cfg.duration_s;
    const auto dev = static_cast<std::int64_t>(rng.next_below(slots));
    const double mult =
        cfg.multiplier_min +
        rng.next_double() * (cfg.multiplier_max - cfg.multiplier_min);
    plan.straggler(t, dev, mult, cfg.straggler_duration_s);
  }
  for (std::int64_t i = 0; i < cfg.comm_faults; ++i) {
    plan.comm_fault(cfg.start_s + rng.next_double() * cfg.duration_s);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) : events_(plan.events()) {
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.id < b.id;
            });
}

double FaultInjector::next_event_s() const {
  return cursor_ < events_.size() ? events_[cursor_].time_s : kInf;
}

std::vector<FaultEvent> FaultInjector::due(double now_s) {
  std::vector<FaultEvent> out;
  while (cursor_ < events_.size() && events_[cursor_].time_s <= now_s) {
    const FaultEvent& ev = events_[cursor_++];
    switch (ev.kind) {
      case FaultKind::kKill:
        ++killed_;
        break;
      case FaultKind::kRecover:
        killed_ = std::max<std::int64_t>(0, killed_ - 1);
        break;
      case FaultKind::kStragglerStart:
        active_stragglers_.push_back(ev);
        break;
      case FaultKind::kStragglerEnd: {
        // Retire the oldest active window matching this device slot.
        auto it = std::find_if(active_stragglers_.begin(), active_stragglers_.end(),
                               [&](const FaultEvent& a) { return a.device == ev.device; });
        if (it != active_stragglers_.end()) active_stragglers_.erase(it);
        break;
      }
      case FaultKind::kCommFault:
        comm_pending_ = true;
        break;
    }
    if (obs_.trace != nullptr) {
      obs_.trace->instant(fault_kind_name(ev.kind), ev.time_s,
                          static_cast<std::int32_t>(ev.device), -1, -1, ev.id, 0,
                          ev.multiplier);
    }
    if (obs_.metrics != nullptr) {
      obs_.metrics->counter(std::string("fault.") + fault_kind_name(ev.kind)).add();
    }
    fired_.push_back(ev);
    out.push_back(ev);
  }
  return out;
}

void FaultInjector::kill_skipped() {
  killed_ = std::max<std::int64_t>(0, killed_ - 1);
  if (obs_.metrics != nullptr) obs_.metrics->counter("fault.kill_skipped").add();
}

std::int64_t FaultInjector::capacity_cap(std::int64_t max_devices) const {
  return std::max<std::int64_t>(1, max_devices - killed_);
}

void FaultInjector::apply_slowdowns(VirtualFlowEngine& engine) const {
  const auto n_dev = static_cast<std::int64_t>(engine.devices().size());
  for (std::int64_t d = 0; d < n_dev; ++d) engine.set_device_slowdown(d, 1.0);
  for (const FaultEvent& ev : active_stragglers_) {
    const std::int64_t d = ev.device % n_dev;
    engine.set_device_slowdown(d, std::max(engine.device_slowdown(d), ev.multiplier));
  }
}

void FaultInjector::train_steps(VirtualFlowEngine& engine, std::int64_t steps) {
  for (std::int64_t i = 0; i < steps; ++i) {
    for (const FaultEvent& ev : due(engine.sim_time_s())) {
      switch (ev.kind) {
        case FaultKind::kKill: {
          const auto n_dev = static_cast<std::int64_t>(engine.devices().size());
          if (n_dev <= 1) {
            kill_skipped();
            break;
          }
          engine.fail_device(ev.device % n_dev);
          apply_slowdowns(engine);
          break;
        }
        case FaultKind::kStragglerStart:
        case FaultKind::kStragglerEnd:
          apply_slowdowns(engine);
          break;
        case FaultKind::kCommFault:
          if (take_comm_fault()) engine.inject_comm_retry();
          break;
        case FaultKind::kRecover:
          break;
      }
    }
    engine.train_step();
  }
}

bool FaultInjector::take_comm_fault() {
  const bool pending = comm_pending_;
  comm_pending_ = false;
  return pending;
}

}  // namespace vf::fault
