// TraceRecorder: span/instant recording, late finalization, and the
// Chrome trace-event export — per-device tracks, metadata header, and
// byte-determinism given identical event streams.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace vf::obs {
namespace {

TEST(Trace, SpanAndInstantRecording) {
  TraceRecorder rec;
  const std::int64_t s0 = rec.span("classify", 1.0, 1.5, /*device=*/0,
                                   /*vn=*/3, /*model=*/-1, /*batch=*/8,
                                   /*warm=*/true);
  rec.instant("resize", 2.0, /*device=*/-1, /*vn=*/-1, /*model=*/-1,
              /*arg0=*/1, /*arg1=*/2, /*arg_s=*/0.25);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(s0, 0);

  const TraceEvent& span = rec.events()[0];
  EXPECT_FALSE(span.instant);
  EXPECT_EQ(span.ts_s, 1.0);
  EXPECT_EQ(span.dur_s, 0.5);
  EXPECT_EQ(span.vn, 3);
  EXPECT_TRUE(span.warm);
  EXPECT_EQ(span.queue_depth, -1) << "unfinalized until set_queue_depth";

  rec.set_queue_depth(s0, 7);
  EXPECT_EQ(rec.events()[0].queue_depth, 7);

  // kNoSpan finalizations are no-ops, so call sites need no branching.
  rec.set_queue_depth(TraceRecorder::kNoSpan, 99);
  EXPECT_EQ(rec.size(), 2u);

  const TraceEvent& mark = rec.events()[1];
  EXPECT_TRUE(mark.instant);
  EXPECT_EQ(mark.arg0, 1);
  EXPECT_EQ(mark.arg1, 2);
  EXPECT_EQ(mark.arg_s, 0.25);

  EXPECT_THROW(rec.span("bad", 2.0, 1.0, 0, 0, -1, 1, false),
               std::runtime_error)
      << "a span must not end before it starts";
}

TEST(Trace, ExportShapeAndTracks) {
  TraceRecorder rec;
  rec.span("classify", 1.0, 1.5, /*device=*/1, 0, -1, 4, false);
  rec.span("prefill", 2.0, 2.5, /*device=*/0, 1, -1, 1, true);
  rec.instant("preempt", 3.0, /*device=*/0, 2, -1);
  rec.instant("reject", 4.0, /*device=*/-1, -1, -1, /*arg0=*/17);
  const std::string json = rec.to_json();

  // Metadata header: process name once, one thread_name per distinct
  // track in ascending tid order, control track (device -1) named.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  const std::size_t d0 = json.find("\"name\": \"device 0\"");
  const std::size_t d1 = json.find("\"name\": \"device 1\"");
  const std::size_t ctl = json.find("\"name\": \"control\"");
  ASSERT_NE(d0, std::string::npos);
  ASSERT_NE(d1, std::string::npos);
  ASSERT_NE(ctl, std::string::npos);
  EXPECT_LT(d0, d1);
  EXPECT_LT(d1, ctl) << "control tid sorts last";

  // Spans are "X" with ts/dur in MICROseconds of virtual time (shortest
  // round-trip form, so round values may print scientific: 1e+06);
  // instants are global "i".
  const std::size_t xpos = json.find("\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"ts\": ");
  ASSERT_NE(xpos, std::string::npos) << json;
  const std::size_t tpos = json.find("\"ts\": ", xpos);
  EXPECT_EQ(std::strtod(json.c_str() + tpos + 6, nullptr), 1e6) << json;
  const std::size_t upos = json.find("\"dur\": ", xpos);
  ASSERT_NE(upos, std::string::npos);
  EXPECT_EQ(std::strtod(json.c_str() + upos + 7, nullptr), 5e5) << json;
  EXPECT_NE(json.find("\"ph\": \"i\", \"s\": \"g\""), std::string::npos);
  EXPECT_NE(json.find("\"warm\": true"), std::string::npos);
  EXPECT_NE(json.find("\"arg0\": 17"), std::string::npos);

  // Identical event streams export identical bytes (the determinism
  // contract extends to the file).
  TraceRecorder twin;
  twin.span("classify", 1.0, 1.5, 1, 0, -1, 4, false);
  twin.span("prefill", 2.0, 2.5, 0, 1, -1, 1, true);
  twin.instant("preempt", 3.0, 0, 2, -1);
  twin.instant("reject", 4.0, -1, -1, -1, 17);
  EXPECT_EQ(twin.to_json(), json);
}

}  // namespace
}  // namespace vf::obs
