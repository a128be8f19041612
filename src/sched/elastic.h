// Shared elastic device-budget rule for the serving paths.
//
// The serving loop (vf::serve::ColocatedServer, which the single-model
// Server fronts) sizes its device set with this load hysteresis:
// grow (double) when the *system* load — backlog plus in-flight requests
// — reaches the high watermark, shrink (halve) when it falls to the low
// watermark. Keeping the rule in one pure function is
// what lets the co-located arbiter drive a shared budget from combined
// per-model loads without re-deriving (and re-bugging) the hysteresis:
// the shrink side must see in-flight work, because mid-burst the queue
// empties the instant a full batch is admitted into slots, and shrinking
// on that illusion of idleness oscillates the device set under steady
// pressure (a 13%-of-throughput bug before PR 3 fixed it).
//
// Determinism contract: a pure function of its integer inputs — no clock,
// no host state — so every replay decision is replayable bit-for-bit.
#pragma once

#include <cstdint>

namespace vf::sched {

/// Returns the device count the elastic loop should run next: `cur_devices`
/// when no change is warranted, otherwise the doubled (capped at
/// `max_devices`) or halved (floored at `min_devices`) count. Both arms
/// act on the SYSTEM load `queue_depth + inflight`: growth triggers when
/// it reaches `high_watermark`, shrink when it has drained to
/// `low_watermark` (batch-boundary callers pass inflight = 0 — at their
/// decision points nothing is in flight, so for them both arms reduce to
/// queue depth). Growing on queue depth alone was a blind spot under
/// continuous batching: a burst is admitted straight into in-flight slots,
/// so the queue stays shallow while the slots — and, with token streams,
/// whole sequences' worth of slot time — saturate. Watermarks must satisfy
/// high > low (callers validate once at construction).
std::int64_t elastic_resize_target(std::int64_t queue_depth, std::int64_t inflight,
                                   std::int64_t cur_devices,
                                   std::int64_t high_watermark,
                                   std::int64_t low_watermark,
                                   std::int64_t min_devices,
                                   std::int64_t max_devices);

}  // namespace vf::sched
