// TraceRecorder: per-slice span events and instant markers on the virtual
// clock, exported as Chrome trace-event JSON — one track per device, so a
// serving replay opens directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing as a device-occupancy timeline.
//
// Every stamp is VIRTUAL time (the serving/training clock), never wall
// time, and events are appended in the replay's deterministic event order
// — so the exported trace is a pure function of (trace, policies, cost
// model) and byte-identical across host worker counts; bench_streaming
// and tests/serve gate exactly that, which makes the trace itself a
// witness of the determinism contract.
//
// Event names are static strings and TraceEvent is a flat POD, so
// recording one event is a bounded vector push — no per-event string or
// map allocations, and nothing at all when no recorder is attached (the
// null-sink fast path is a pointer test at every instrumentation site).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vf::obs {

/// One recorded event. Spans cover [ts_s, ts_s + dur_s]; instants mark a
/// point. `device` selects the export track (tid); -1 is the control
/// track, where scheduler-level events (resizes, rejections, batch
/// barriers) land.
struct TraceEvent {
  const char* name = "";  ///< static string (slice kind or marker name)
  bool instant = false;
  double ts_s = 0.0;
  double dur_s = 0.0;
  std::int32_t device = -1;
  std::int32_t vn = -1;
  std::int32_t model = -1;
  std::int64_t batch = 0;        ///< requests in the slice/batch
  std::int64_t queue_depth = -1;  ///< finalized late via set_queue_depth
  bool warm = false;             ///< warm/cold dispatch pricing of the slice
  /// Marker payload, interpretation by name: resize -> (from, to) device
  /// counts and `arg_s` = migration seconds; cutover -> none (model field);
  /// reject -> arg0 = request id; preempt -> none.
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  double arg_s = 0.0;
};

class TraceRecorder {
 public:
  /// Sentinel span index: "no span" (set_* calls on it are no-ops, so
  /// call sites can finalize unconditionally).
  static constexpr std::int64_t kNoSpan = -1;

  /// Records a complete span and returns its index for late finalization.
  std::int64_t span(const char* name, double start_s, double end_s,
                    std::int32_t device, std::int32_t vn, std::int32_t model,
                    std::int64_t batch, bool warm);

  /// Records an instant marker.
  void instant(const char* name, double ts_s, std::int32_t device,
               std::int32_t vn, std::int32_t model, std::int64_t arg0 = 0,
               std::int64_t arg1 = 0, double arg_s = 0.0);

  /// Late finalization of span `idx` (a no-op when idx == kNoSpan): the
  /// servers learn the post-admission queue depth after the dispatcher
  /// has already stamped the span.
  void set_queue_depth(std::int64_t idx, std::int64_t depth);

  std::size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Chrome trace-event JSON: {"traceEvents": [...]} with "M" thread-name
  /// metadata per distinct device track, then every event in recording
  /// order ("X" complete spans / "i" instants, ts and dur in microseconds
  /// of virtual time). Byte-deterministic given bit-identical stamps.
  std::string to_json() const;
  bool save(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

/// True when exported trace JSON (TraceRecorder::to_json) carries an event
/// named exactly `name`: how benches and tests check that a replay
/// exercised a slice kind or a marker.
bool has_event(std::string_view trace_json, std::string_view name);

}  // namespace vf::obs
