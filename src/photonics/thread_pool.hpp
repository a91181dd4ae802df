// thread_pool.hpp — persistent worker pool for deterministic row kernels.
//
// `parallel_rows` used to spawn and join fresh std::threads on every GEMV;
// at WAN packet rates that start-up cost dominates the sample plane. This
// pool starts workers lazily, keeps them parked on a condition variable
// between batches, and hands each batch out through a dynamic claim
// counter over its items (parallel_rows' row ranges) — so the
// determinism contract of kernels.hpp (per-row RNG streams forked in row
// order, results folded in row order) is untouched: the pool only
// changes *which thread* runs a range, which the contract already
// declares irrelevant.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace onfiber::phot {

class thread_pool {
 public:
  /// The process-wide pool used by parallel_rows. Constructed on first
  /// use; workers are joined at static destruction.
  [[nodiscard]] static thread_pool& instance();

  thread_pool() = default;
  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;
  ~thread_pool();

  /// Run `fn(r)` for every row in [0, rows) on up to `max_workers`
  /// participants (the calling thread included). Rows are claimed from a
  /// shared atomic counter. Blocks until every claimed row finished; the
  /// first exception thrown by any row is rethrown here, and a relaxed
  /// cancel flag stops the remaining workers from claiming further rows.
  /// Concurrent run() calls from different threads serialize.
  void run(std::size_t rows, std::size_t max_workers,
           const std::function<void(std::size_t)>& fn);

  /// True while the current thread is executing rows of a pool batch
  /// (worker or participating caller). Nested parallel_rows calls use
  /// this to fall back to inline execution instead of deadlocking on the
  /// batch serialization mutex.
  [[nodiscard]] static bool in_worker();

  /// Total worker threads ever constructed by this pool. A warm pool
  /// reuses its workers, so repeated run() calls must not grow this —
  /// the determinism suite pins that (no per-call thread construction).
  [[nodiscard]] std::uint64_t startups() const {
    return startups_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop_from(std::size_t index, std::uint64_t seen_generation);
  void ensure_workers(std::size_t helpers);
  void claim_rows();

  // Batch state (valid between run() setup and the last participant's
  // acknowledgement; guarded by m_ except for the atomics).
  std::atomic<std::size_t> next_row_{0};
  std::atomic<bool> cancelled_{false};
  std::size_t rows_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::exception_ptr first_error_;
  std::mutex error_m_;

  std::mutex m_;
  std::condition_variable work_cv_;   ///< wakes parked workers on a batch
  std::condition_variable done_cv_;   ///< wakes the caller on completion
  std::uint64_t generation_ = 0;      ///< batch sequence number
  std::size_t helpers_wanted_ = 0;    ///< workers asked to join this batch
  std::size_t helpers_remaining_ = 0; ///< workers still running this batch
  bool shutdown_ = false;

  std::mutex run_m_;  ///< serializes whole batches (one at a time)
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> startups_{0};
};

}  // namespace onfiber::phot
