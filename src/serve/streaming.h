// TokenStreamer: per-VN autoregressive sequence state for token serving.
//
// A token stream runs the paper's serving machinery as an autoregressive
// loop on the virtual clock: prepare features -> forward -> sample from
// the logits (greedy argmax) -> append, once per token. The loop is laid
// onto the continuous-batching slot machinery as a slice CHAIN:
//
//   PREFILL  one long slice of the whole prompt (prompt_tokens feature
//            rows) admits the request into a free VN slot; its completion
//            stamps the FIRST token (TTFT).
//   DECODE   short single-row slices re-admitted into the SAME slot
//            (SlotLedger::readmit — the slot never goes free mid-stream),
//            one per remaining token; each completion stamps one token.
//
// Disaggregating the two phases is what the serving scheduler exploits:
// decode slices are memory-bandwidth-bound (decode_pass_time_s) and
// near-constant-cost, so a stream can be PAUSED at any token boundary —
// its state parked here, its slot lent to a waiting prefill — and resumed
// later without recompute, the vLLM-style token-boundary preemption that
// keeps TTFT low under load.
//
// Determinism contract: sampling is greedy argmax (a pure function of the
// forward pass, itself bit-stable across worker counts), the next token's
// feature row is a fixed hash of (request, position, last token), and all
// state transitions are driven by the caller's virtual-clock event order.
// Per-token records replay bit-identically across num_threads.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "serve/dispatch.h"
#include "serve/request.h"
#include "serve/slot_ledger.h"

namespace vf::serve {

/// Scheduling policy for token streams (ServerConfig/ColocationConfig).
struct StreamPolicy {
  /// Disaggregated prefill/decode scheduling: admission-class work (the
  /// queue) may preempt a stream at a token boundary — when every slot is
  /// busy and a stream heads the queue, the decode chain with the freshest
  /// completion pauses and lends its slot to the waiting prefill. False
  /// serves streams strictly FIFO: a stream holds its slot from prefill to
  /// last token, and arrivals wait for natural completions — the baseline
  /// arm of bench_streaming's TTFT A/B.
  bool disaggregate = true;
};

/// One in-flight (or paused) token stream.
struct SequenceState {
  InferRequest request;
  std::int64_t generated = 0;   ///< tokens sampled so far
  std::int64_t last_token = 0;  ///< most recent sample (feeds the next row)
  double dispatch_s = 0.0;      ///< prefill admission stamp (queue exit)
  double first_token_s = 0.0;   ///< prefill completion stamp
  double compute_s = 0.0;       ///< accumulated over the slice chain
  double comm_s = 0.0;          ///< accumulated over the slice chain
  std::vector<std::int64_t> tokens;
  std::vector<double> token_stamps;
};

class TokenStreamer {
 public:
  /// `total_vns` sizes the per-slot state table; `pool_size` is the
  /// request-pool row count the feature schedule wraps around.
  TokenStreamer(std::int64_t total_vns, std::int64_t pool_size);

  static bool is_stream(const InferRequest& r) { return r.stream_tokens > 0; }

  /// Admits stream `r` into slot `vn`: installs fresh sequence state and
  /// dispatches the prefill slice (all prompt_tokens rows at once) for the
  /// caller to ledger-admit.
  Slot prefill(SliceDispatcher& dispatcher, std::int32_t vn, double now_s,
               std::vector<double>& device_free, InferRequest r);

  /// Absorbs a finished prefill/decode slice on `vn`: samples the token
  /// (greedy argmax of the slice's last row), stamps it at the slice's
  /// completion, accumulates cost. Returns true while the stream wants
  /// more tokens (i.e. a decode continuation should follow).
  bool absorb(std::int32_t vn, const Slot& done);

  /// Dispatches the next single-token decode slice of the live stream on
  /// `vn`, for the caller to ledger-readmit into the same slot.
  Slot next_decode(SliceDispatcher& dispatcher, std::int32_t vn, double now_s,
                   std::vector<double>& device_free);

  /// Token-boundary preemption: parks the live stream on `vn` (FIFO among
  /// paused streams), freeing the slot for admission-class work.
  void pause(std::int32_t vn);
  bool has_paused() const { return !paused_.empty(); }
  /// Parked streams — in flight for load accounting (each holds exactly
  /// one un-served request), just not occupying a slot.
  std::int64_t paused_streams() const {
    return static_cast<std::int64_t>(paused_.size());
  }

  /// Un-parks the oldest paused stream into free slot `vn` and dispatches
  /// its next decode slice, for the caller to ledger-admit.
  Slot resume(SliceDispatcher& dispatcher, std::int32_t vn, double now_s,
              std::vector<double>& device_free);

  /// Retires the completed stream on `vn` and assembles its record
  /// (dispatch = prefill admission, finish = last token's stamp).
  RequestRecord finish(std::int32_t vn);

  /// Fault recovery: aborts the live stream on `vn` whose PREFILL was
  /// evicted (no token landed yet) and returns the request for requeueing.
  /// Streams that already stamped tokens must pause() instead — resume
  /// re-dispatches only the lost token, never recomputes landed ones.
  InferRequest cancel(std::int32_t vn);

  /// Fault recovery: stamps one survived eviction on the live stream on
  /// `vn` (carried into its record's `retries`). Called before pausing a
  /// decode chain whose in-flight slice was evicted.
  void mark_retry(std::int32_t vn);

 private:
  /// Deterministic feature schedule of the next decode step: a fixed hash
  /// of (request payload, position, last sampled token) into the request
  /// pool — autoregressive in that each sampled token perturbs the next
  /// step's input, while staying a pure function of replayed state.
  std::int64_t feature_row(const SequenceState& s) const;

  std::vector<SequenceState> seq_;  ///< indexed by VN slot
  std::vector<char> live_;          ///< seq_[vn] holds a live stream
  std::deque<SequenceState> paused_;
  std::int64_t pool_size_;
};

}  // namespace vf::serve
