#include "serve/request_queue.h"

#include "util/common.h"

namespace vf::serve {

RequestQueue::RequestQueue(std::int64_t capacity) : capacity_(capacity) {
  check(capacity > 0, "request queue capacity must be positive");
}

void RequestQueue::set_reject_observer(
    std::function<void(const InferRequest&, double)> observer) {
  reject_observer_ = std::move(observer);
}

bool RequestQueue::reject(const InferRequest& r, double now_s) {
  ++rejected_;
  if (reject_observer_) reject_observer_(r, now_s);
  return false;
}

bool RequestQueue::push(const InferRequest& r) {
  if (size() >= capacity_) return reject(r, r.arrival_s);
  check(q_.empty() || q_.back().arrival_s <= r.arrival_s,
        "requests must be admitted in arrival order");
  q_.push_back(r);
  ++admitted_;
  return true;
}

void RequestQueue::push_front(const InferRequest& r) {
  check(q_.empty() || r.arrival_s <= q_.front().arrival_s,
        "requeued request must not be younger than the queue head");
  q_.push_front(r);
  ++requeued_;
}

void RequestQueue::shed_expired(double now_s, double deadline_s) {
  while (!q_.empty() && now_s - q_.front().arrival_s > deadline_s) {
    ++shed_;
    reject(q_.front(), now_s);
    q_.pop_front();
  }
}

std::vector<InferRequest> RequestQueue::pop(std::int64_t n) {
  check(n >= 0 && n <= size(), [&] {
    return "pop count " + std::to_string(n) + " exceeds queue depth " +
           std::to_string(size());
  });
  std::vector<InferRequest> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    out.push_back(q_.front());
    q_.pop_front();
  }
  return out;
}

const InferRequest& RequestQueue::front() const {
  check(!q_.empty(), "front() on empty request queue");
  return q_.front();
}

const InferRequest& RequestQueue::at(std::int64_t i) const {
  check_index(i, size(), "queue position");
  return q_[static_cast<std::size_t>(i)];
}

}  // namespace vf::serve
