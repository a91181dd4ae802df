#include "photonics/kernels.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "photonics/thread_pool.hpp"

namespace onfiber::phot {

namespace {

// ONFIBER_THREADS if set and positive, else the hardware thread count.
std::size_t resolve_thread_count() {
  if (const char* env = std::getenv("ONFIBER_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Resolved once per process: kernel_thread_count runs on every parallel
// kernel call, and neither getenv nor hardware_concurrency (a
// sysfs/affinity query on Linux) belongs on the GEMV hot path. Tests
// that change ONFIBER_THREADS mid-process call
// refresh_kernel_thread_count_cache().
std::size_t& thread_count_cache() {
  static std::size_t cached = 0;
  return cached;
}

std::once_flag env_thread_count_once;

}  // namespace

void refresh_kernel_thread_count_cache() {
  // Re-arm the cache from the current environment. Test-only: not safe
  // against concurrently running kernels.
  std::call_once(env_thread_count_once, [] {});
  thread_count_cache() = resolve_thread_count();
}

std::size_t kernel_thread_count(std::size_t override_count) {
  if (override_count > 0) return override_count;
  std::call_once(env_thread_count_once,
                 [] { thread_count_cache() = resolve_thread_count(); });
  return thread_count_cache();
}

void parallel_rows(std::size_t rows, std::size_t row_work,
                   std::size_t threads,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
  if (rows == 0) return;
  if (threads <= 1 || rows <= 1 || rows * row_work < kPoolBreakEvenWork ||
      thread_pool::in_worker()) {
    // Inline: small or degenerate work, single-threaded runs, and nested
    // calls from inside a pool batch (which must not re-enter the pool).
    fn(0, rows);
    return;
  }
  if (obs::enabled()) {
    // Function-local statics: the pool outlives any fabric/runtime, so
    // the handles resolve lazily rather than at construction.
    static obs::counter& dispatches =
        obs::registry::global().get_counter("pool.dispatches");
    static obs::counter& dispatched_rows =
        obs::registry::global().get_counter("pool.rows");
    dispatches.add();
    dispatched_rows.add(rows);
  }
  const std::size_t ranges = std::min(threads, rows);
  thread_pool::instance().run(ranges, threads, [&](std::size_t k) {
    fn(k * rows / ranges, (k + 1) * rows / ranges);
  });
}

}  // namespace onfiber::phot
