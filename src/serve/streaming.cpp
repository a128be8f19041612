#include "serve/streaming.h"

#include <string>
#include <utility>

#include "util/common.h"

namespace vf::serve {

TokenStreamer::TokenStreamer(std::int64_t total_vns, std::int64_t pool_size)
    : seq_(static_cast<std::size_t>(total_vns)),
      live_(static_cast<std::size_t>(total_vns), 0),
      pool_size_(pool_size) {
  check(total_vns > 0, "token streamer needs at least one virtual node");
  check(pool_size > 0, "token streamer needs a non-empty request pool");
}

std::int64_t TokenStreamer::feature_row(const SequenceState& s) const {
  // Position and last token both perturb the row, so the schedule is
  // autoregressive (sampling feeds back into the input) yet replayable.
  return (s.request.example_index + s.request.prompt_tokens +
          s.generated * 131 + s.last_token * 31) %
         pool_size_;
}

Slot TokenStreamer::prefill(SliceDispatcher& dispatcher, std::int32_t vn,
                            double now_s, std::vector<double>& device_free,
                            InferRequest r) {
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(!live_[static_cast<std::size_t>(vn)], [&] {
    return "prefill into VN " + std::to_string(vn) + " already hosting a stream";
  });
  check(is_stream(r), "prefill needs a stream request (stream_tokens > 0)");
  check(r.prompt_tokens >= 1, "a stream needs at least one prompt token");

  SequenceState& s = seq_[static_cast<std::size_t>(vn)];
  s = SequenceState{};
  s.request = r;
  s.dispatch_s = now_s;
  live_[static_cast<std::size_t>(vn)] = 1;

  std::vector<std::int64_t> rows;
  rows.reserve(static_cast<std::size_t>(r.prompt_tokens));
  for (std::int64_t i = 0; i < r.prompt_tokens; ++i)
    rows.push_back((r.example_index + i) % pool_size_);
  return dispatcher.dispatch_rows(vn, SliceKind::kPrefill, now_s, device_free,
                                  {std::move(r)}, rows);
}

bool TokenStreamer::absorb(std::int32_t vn, const Slot& done) {
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(live_[static_cast<std::size_t>(vn)], [&] {
    return "absorb on VN " + std::to_string(vn) + " with no live stream";
  });
  check(done.kind != SliceKind::kClassify, "absorb expects a stream slice");
  SequenceState& s = seq_[static_cast<std::size_t>(vn)];
  // Greedy sampling: the slice's last logits row argmax is the token. For
  // a prefill that is the prompt's final position; for a decode, its only
  // position.
  s.last_token = done.predictions.back();
  s.tokens.push_back(s.last_token);
  s.token_stamps.push_back(done.done_s);
  if (done.kind == SliceKind::kPrefill) s.first_token_s = done.done_s;
  s.compute_s += done.compute_s;
  s.comm_s += done.comm_s;
  ++s.generated;
  return s.generated < s.request.stream_tokens;
}

Slot TokenStreamer::next_decode(SliceDispatcher& dispatcher, std::int32_t vn,
                                double now_s,
                                std::vector<double>& device_free) {
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(live_[static_cast<std::size_t>(vn)], [&] {
    return "decode on VN " + std::to_string(vn) + " with no live stream";
  });
  const SequenceState& s = seq_[static_cast<std::size_t>(vn)];
  return dispatcher.dispatch_rows(vn, SliceKind::kDecode, now_s, device_free,
                                  {s.request}, {feature_row(s)});
}

void TokenStreamer::pause(std::int32_t vn) {
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(live_[static_cast<std::size_t>(vn)], [&] {
    return "pause on VN " + std::to_string(vn) + " with no live stream";
  });
  paused_.push_back(std::move(seq_[static_cast<std::size_t>(vn)]));
  live_[static_cast<std::size_t>(vn)] = 0;
}

Slot TokenStreamer::resume(SliceDispatcher& dispatcher, std::int32_t vn,
                           double now_s, std::vector<double>& device_free) {
  check(!paused_.empty(), "resume with no paused stream");
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(!live_[static_cast<std::size_t>(vn)], [&] {
    return "resume into VN " + std::to_string(vn) + " already hosting a stream";
  });
  seq_[static_cast<std::size_t>(vn)] = std::move(paused_.front());
  paused_.pop_front();
  live_[static_cast<std::size_t>(vn)] = 1;
  return next_decode(dispatcher, vn, now_s, device_free);
}

RequestRecord TokenStreamer::finish(std::int32_t vn) {
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(live_[static_cast<std::size_t>(vn)], [&] {
    return "finish on VN " + std::to_string(vn) + " with no live stream";
  });
  SequenceState& s = seq_[static_cast<std::size_t>(vn)];
  check(s.generated == s.request.stream_tokens,
        "finish on a stream that still wants tokens");
  RequestRecord rec;
  rec.id = s.request.id;
  rec.arrival_s = s.request.arrival_s;
  rec.dispatch_s = s.dispatch_s;
  // Honest accounting across fault retries: waits that preceded evicted
  // dispatches accumulate on the request (queue_wait_accum_s), and the
  // last stretch is measured from the latest queue entry.
  rec.queue_wait_s =
      s.request.queue_wait_accum_s + (s.dispatch_s - s.request.enqueued_s());
  rec.retries = s.request.retries;
  rec.compute_s = s.compute_s;
  rec.comm_s = s.comm_s;
  rec.first_token_s = s.first_token_s;
  rec.finish_s = s.token_stamps.back();
  rec.prediction = s.tokens.back();
  rec.tokens = std::move(s.tokens);
  rec.token_stamps = std::move(s.token_stamps);
  s = SequenceState{};
  live_[static_cast<std::size_t>(vn)] = 0;
  return rec;
}

InferRequest TokenStreamer::cancel(std::int32_t vn) {
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(live_[static_cast<std::size_t>(vn)], [&] {
    return "cancel on VN " + std::to_string(vn) + " with no live stream";
  });
  SequenceState& s = seq_[static_cast<std::size_t>(vn)];
  check(s.generated == 0,
        "cancel on a stream with landed tokens — pause/resume it instead");
  InferRequest r = std::move(s.request);
  s = SequenceState{};
  live_[static_cast<std::size_t>(vn)] = 0;
  return r;
}

void TokenStreamer::mark_retry(std::int32_t vn) {
  check_index(vn, static_cast<std::int64_t>(seq_.size()), "virtual-node slot");
  check(live_[static_cast<std::size_t>(vn)], [&] {
    return "mark_retry on VN " + std::to_string(vn) + " with no live stream";
  });
  ++seq_[static_cast<std::size_t>(vn)].request.retries;
}

}  // namespace vf::serve
