// Fixed-size worker pool used to run the engine's training lanes
// concurrently.
//
// Determinism contract: parallel_for(n, fn) runs fn(0..n-1) exactly once
// each, with completion of all invocations guaranteed on return. Which
// worker runs which index (and in what order) is unspecified — callers
// must write results into per-index slots and reduce them in a fixed
// order afterwards. The engine follows exactly that pattern: index w is
// a lane (its own model copy and the devices w, w+L, w+2L, ...), each
// device writes only its own VNs' gradient sums, and sync_and_update
// combines them in ascending VN-id order, so kStrictVnOrder stays
// bit-exact by construction no matter how the pool schedules the work.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vf {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1).
  explicit ThreadPool(std::int64_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::int64_t size() const { return static_cast<std::int64_t>(workers_.size()); }

  /// Runs fn(i) for every i in [0, n), distributing indices over the
  /// workers, and blocks until the loop is finished. If any invocation
  /// throws, indices not yet started are skipped (mirroring the serial
  /// loop, which stops at the first throw), in-flight invocations run to
  /// completion, and the first exception (in completion order) is
  /// rethrown here.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

 private:
  /// Enqueues a task for some worker. Internal: tasks must not throw
  /// (an escaping exception would terminate the process), which
  /// parallel_for guarantees by catching inside its wrapper.
  void submit(std::function<void()> fn);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace vf
