#include "obs/trace.h"

#include <algorithm>

#include "obs/json.h"
#include "util/common.h"

namespace vf::obs {

namespace {

/// Export track id of an event: devices map to their own tid, the control
/// track (device -1: resizes, rejections, batch barriers) to a fixed high
/// tid so it sorts below the device lanes in Perfetto.
constexpr std::int32_t kControlTid = 999;

std::int32_t tid_of(const TraceEvent& e) {
  return e.device < 0 ? kControlTid : e.device;
}

void append_us(std::string& out, double seconds) {
  // Virtual seconds -> trace microseconds. The multiply is one IEEE op on
  // bit-identical inputs, so the printed form is byte-deterministic.
  append_double(out, seconds * 1e6);
}

}  // namespace

std::int64_t TraceRecorder::span(const char* name, double start_s, double end_s,
                                 std::int32_t device, std::int32_t vn,
                                 std::int32_t model, std::int64_t batch,
                                 bool warm) {
  check(end_s >= start_s, "a trace span must not end before it starts");
  TraceEvent e;
  e.name = name;
  e.instant = false;
  e.ts_s = start_s;
  e.dur_s = end_s - start_s;
  e.device = device;
  e.vn = vn;
  e.model = model;
  e.batch = batch;
  e.warm = warm;
  events_.push_back(e);
  return static_cast<std::int64_t>(events_.size()) - 1;
}

void TraceRecorder::instant(const char* name, double ts_s, std::int32_t device,
                            std::int32_t vn, std::int32_t model,
                            std::int64_t arg0, std::int64_t arg1, double arg_s) {
  TraceEvent e;
  e.name = name;
  e.instant = true;
  e.ts_s = ts_s;
  e.device = device;
  e.vn = vn;
  e.model = model;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.arg_s = arg_s;
  events_.push_back(e);
}

void TraceRecorder::set_queue_depth(std::int64_t idx, std::int64_t depth) {
  if (idx == kNoSpan) return;
  check_index(idx, static_cast<std::int64_t>(events_.size()), "trace span");
  events_[static_cast<std::size_t>(idx)].queue_depth = depth;
}

std::string TraceRecorder::to_json() const {
  // Thread-name metadata first, one per distinct track, ascending tid —
  // derived from the events, so the header is as deterministic as they are.
  std::vector<std::int32_t> tids;
  tids.reserve(8);
  for (const TraceEvent& e : events_) {
    const std::int32_t t = tid_of(e);
    if (std::find(tids.begin(), tids.end(), t) == tids.end()) tids.push_back(t);
  }
  std::sort(tids.begin(), tids.end());

  std::string out;
  out.reserve(events_.size() * 128 + 256);
  out += "{\"traceEvents\": [\n";
  out += "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
         "\"args\": {\"name\": \"virtualflow\"}}";
  for (const std::int32_t t : tids) {
    out += ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " +
           std::to_string(t) + ", \"args\": {\"name\": \"" +
           (t == kControlTid ? std::string("control") : "device " + std::to_string(t)) +
           "\"}}";
  }

  for (const TraceEvent& e : events_) {
    out += ",\n  {\"name\": \"";
    out += json_escape(e.name);
    out += e.instant ? "\", \"ph\": \"i\", \"s\": \"g\"" : "\", \"ph\": \"X\"";
    out += ", \"pid\": 0, \"tid\": " + std::to_string(tid_of(e));
    out += ", \"ts\": ";
    append_us(out, e.ts_s);
    if (!e.instant) {
      out += ", \"dur\": ";
      append_us(out, e.dur_s);
    }
    out += ", \"args\": {\"vn\": " + std::to_string(e.vn) +
           ", \"model\": " + std::to_string(e.model);
    if (e.instant) {
      out += ", \"arg0\": " + std::to_string(e.arg0) +
             ", \"arg1\": " + std::to_string(e.arg1) + ", \"arg_s\": ";
      append_double(out, e.arg_s);
    } else {
      out += ", \"batch\": " + std::to_string(e.batch) +
             ", \"warm\": " + std::string(e.warm ? "true" : "false") +
             ", \"queue_depth\": " + std::to_string(e.queue_depth);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::save(const std::string& path) const {
  return save_text_file(path, to_json());
}

bool has_event(std::string_view trace_json, std::string_view name) {
  std::string needle = "{\"name\": \"";
  needle += name;
  needle += '"';
  return trace_json.find(needle) != std::string_view::npos;
}

}  // namespace vf::obs
