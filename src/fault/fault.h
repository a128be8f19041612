// Deterministic fault injection on the virtual clock.
//
// VirtualFlow's virtualization boundary turns hardware failure into a
// reconfiguration problem: a dead device is just a mapping with fewer
// slots, a straggler is a cost-model multiplier, a dropped comm step is
// one extra all-reduce charge. `FaultPlan` is a seeded, fully explicit
// schedule of such events; `FaultInjector` replays it against the virtual
// clock and tracks the derived state (capacity lost to kills, active
// straggler multipliers, pending comm retries). Because the plan is a pure
// function of its seed and every event fires at a deterministic virtual
// time, a faulted run replays byte-identically — the determinism contract
// for recovery (docs/fault_tolerance.md) gates on exactly that.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/obs.h"

namespace vf {
class VirtualFlowEngine;
}  // namespace vf

namespace vf::fault {

enum class FaultKind : std::uint8_t {
  kKill,            ///< device leaves the set; its VNs migrate to survivors
  kRecover,         ///< one unit of capacity returns (anonymous device)
  kStragglerStart,  ///< device slows down by `multiplier`
  kStragglerEnd,    ///< the paired straggler ends
  kCommFault,       ///< the next communication step is retried (charged twice)
};

const char* fault_kind_name(FaultKind kind);

/// One scheduled fault. `device` is a slot index into the device set that
/// is *current when the event fires* (taken modulo the live size), not a
/// stable hardware identity — the virtualization boundary means devices
/// have no identity beyond their slot. `id` is the plan position and the
/// tie-break for events sharing a stamp.
struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kKill;
  std::int64_t device = -1;
  double multiplier = 1.0;  ///< straggler slowdown (>= 1)
  std::int64_t id = 0;
};

/// Knobs for the seeded chaos generator.
struct ChaosConfig {
  double start_s = 0.5;       ///< no faults before this stamp
  double duration_s = 3.0;    ///< faults drawn in [start_s, start_s + duration_s)
  std::int64_t kills = 2;     ///< each followed by a recover
  double recover_delay_s = 0.8;
  std::int64_t stragglers = 2;
  double straggler_duration_s = 0.6;
  double multiplier_min = 2.0;
  double multiplier_max = 4.0;
  std::int64_t comm_faults = 1;
  std::int64_t max_device = 7;  ///< device slots drawn uniform in [0, max_device]
};

/// An explicit, replayable schedule of faults. Built either by hand (the
/// fluent builders) or from a seed (`chaos`). Events keep insertion ids;
/// the injector orders them by (time_s, id).
class FaultPlan {
 public:
  FaultPlan& kill(double time_s, std::int64_t device);
  FaultPlan& recover(double time_s);
  /// Schedules a slowdown of `multiplier` on `device` over
  /// [time_s, time_s + duration_s) — adds the paired start/end events.
  FaultPlan& straggler(double time_s, std::int64_t device, double multiplier,
                       double duration_s);
  FaultPlan& comm_fault(double time_s);

  /// Seeded chaos schedule: `cfg.kills` kill/recover pairs,
  /// `cfg.stragglers` slowdown windows, and `cfg.comm_faults` comm retries,
  /// all drawn from a CounterRng stream derived from `seed`. A pure
  /// function of (seed, cfg): same inputs, same plan, same replay.
  static FaultPlan chaos(std::uint64_t seed, const ChaosConfig& cfg = {});

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

 private:
  FaultPlan& add(FaultEvent ev);

  std::vector<FaultEvent> events_;
};

/// Replays a FaultPlan against the virtual clock. The owner (a server loop,
/// `train_steps`, a test) polls `due(now)` at its event-loop stamps and
/// reacts to the returned events; the injector tracks the derived state:
///   * `capacity_cap(max)` — elastic budget after kills minus recovers,
///   * `apply_slowdowns(engine)` — active straggler multipliers, re-applied
///     after any reconfiguration (which resets them),
///   * `take_comm_fault()` — one-shot flag for the next comm step.
/// Fired events emit `vf::obs` instant markers ("kill", "recover",
/// "straggler", "comm_fault") when observability is attached.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  void set_observability(obs::Observability obs) { obs_ = obs; }

  /// Virtual stamp of the next unfired event; +inf when exhausted. Event
  /// loops fold this into their wake-up horizon.
  double next_event_s() const;

  /// Pops every event with time_s <= now_s (in (time, id) order), updates
  /// the derived state, emits markers, and returns them for the caller to
  /// act on (evict slots, fail the device, ...).
  std::vector<FaultEvent> due(double now_s);

  /// Devices currently lost to kills (never negative).
  std::int64_t killed() const { return killed_; }
  /// Reverts the capacity loss of a kill the owner could not honor
  /// (e.g. the device set is already at one device).
  void kill_skipped();
  /// Elastic device budget under the current loss: max(1, max_devices - killed).
  std::int64_t capacity_cap(std::int64_t max_devices) const;

  /// Re-applies the active straggler multipliers to the engine's current
  /// device set (slots taken modulo the live size; overlapping windows on
  /// one slot keep the largest multiplier). Call after every reconfigure —
  /// resizes reset per-device slowdowns to 1.
  void apply_slowdowns(VirtualFlowEngine& engine) const;

  /// The training driver: runs `steps` train steps on `engine`, polling
  /// due() at the engine's virtual clock before each step and acting on
  /// what fired. A kill fails its slot (taken modulo the live size) —
  /// or is skipped (kill_skipped) when one device is left — and re-applies
  /// the stragglers; a straggler start or end re-applies them; a comm
  /// fault arms the engine's one-shot all-reduce retry.
  void train_steps(VirtualFlowEngine& engine, std::int64_t steps);

  /// One-shot: true exactly once per fired comm fault.
  bool take_comm_fault();
  bool comm_fault_pending() const { return comm_pending_; }

  /// Events fired so far, in firing order (replay witness for tests).
  const std::vector<FaultEvent>& fired() const { return fired_; }

 private:
  std::vector<FaultEvent> events_;  // sorted by (time_s, id)
  std::size_t cursor_ = 0;
  std::int64_t killed_ = 0;
  std::vector<FaultEvent> active_stragglers_;
  bool comm_pending_ = false;
  std::vector<FaultEvent> fired_;
  obs::Observability obs_;
};

}  // namespace vf::fault
