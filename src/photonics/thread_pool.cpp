#include "thread_pool.hpp"

#include <algorithm>

namespace onfiber::phot {

namespace {

// Upper bound on helper threads: requests beyond this (e.g. a test asking
// for 64 workers on a 1-core container) still execute correctly — extra
// workers would only fight over the row counter without changing results,
// so capping is purely a resource guard.
constexpr std::size_t kMaxHelpers = 64;

bool& in_worker_flag() {
  thread_local bool flag = false;
  return flag;
}

}  // namespace

thread_pool& thread_pool::instance() {
  static thread_pool pool;
  return pool;
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool thread_pool::in_worker() { return in_worker_flag(); }

void thread_pool::ensure_workers(std::size_t helpers) {
  std::lock_guard<std::mutex> lk(m_);
  while (workers_.size() < helpers) {
    const std::size_t index = workers_.size();
    // A worker spawned mid-life must not mistake the previous batch's
    // generation for new work: seed its "last seen" counter with the
    // current generation under the same lock that publishes batches.
    const std::uint64_t seen = generation_;
    startups_.fetch_add(1, std::memory_order_relaxed);
    workers_.emplace_back([this, index, seen] { worker_loop_from(index, seen); });
  }
}

void thread_pool::worker_loop_from(std::size_t index, std::uint64_t seen) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      work_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      if (index >= helpers_wanted_) continue;  // parked for this batch
    }
    claim_rows();
    {
      std::lock_guard<std::mutex> lk(m_);
      if (--helpers_remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void thread_pool::claim_rows() {
  struct scope_flag {
    scope_flag() { in_worker_flag() = true; }
    ~scope_flag() { in_worker_flag() = false; }
  } flag;
  const std::size_t rows = rows_;
  const auto& fn = *fn_;
  while (!cancelled_.load(std::memory_order_relaxed)) {
    const std::size_t r = next_row_.fetch_add(1, std::memory_order_relaxed);
    if (r >= rows) break;
    try {
      fn(r);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(error_m_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      cancelled_.store(true, std::memory_order_relaxed);
      break;
    }
  }
}

void thread_pool::run(std::size_t rows, std::size_t max_workers,
                      const std::function<void(std::size_t)>& fn) {
  if (rows == 0) return;
  if (max_workers <= 1 || rows <= 1 || in_worker_flag()) {
    // Nested call from inside a batch (or a degenerate request): run
    // inline; taking run_m_ from a worker would deadlock.
    for (std::size_t r = 0; r < rows; ++r) fn(r);
    return;
  }

  std::lock_guard<std::mutex> run_lock(run_m_);
  const std::size_t participants = std::min(max_workers, rows);
  const std::size_t helpers = std::min(participants - 1, kMaxHelpers);
  ensure_workers(helpers);
  {
    std::lock_guard<std::mutex> lk(m_);
    rows_ = rows;
    fn_ = &fn;
    next_row_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    helpers_wanted_ = helpers;
    helpers_remaining_ = helpers;
    ++generation_;
  }
  work_cv_.notify_all();

  claim_rows();  // the caller is a participant too

  {
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [&] { return helpers_remaining_ == 0; });
    fn_ = nullptr;
  }
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace onfiber::phot
