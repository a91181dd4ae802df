// kernels.hpp — deterministic parallel execution for sample-plane kernels.
//
// The simulator's determinism contract is seed-based: one experiment seed
// must produce one bit-exact result. The parallel GEMM keeps that
// contract by construction — per-row RNG streams are keyed from a
// row-seed stream *in row order before any work starts*, a row range
// writes only its own rows' slices of the call's buffers, and row
// results/ledgers are folded back in row order at the barrier. The
// worker count then only changes wall-clock time, never a single bit of
// output.
#pragma once

#include <cstddef>
#include <functional>

namespace onfiber::phot {

/// Worker count for parallel kernels. Resolution order:
///   1. `override_count` if non-zero (e.g. engine::set_threads),
///   2. the ONFIBER_THREADS environment variable if set and positive,
///   3. std::thread::hardware_concurrency().
/// Never returns 0.
[[nodiscard]] std::size_t kernel_thread_count(std::size_t override_count = 0);

/// Re-read ONFIBER_THREADS and the hardware thread count. Both are
/// cached on first use (hot kernels must not call getenv per dispatch);
/// tests that setenv mid-process call this to make the change visible.
/// Not safe to call while parallel kernels are running.
void refresh_kernel_thread_count_cache();

/// Rows x per-row work (a GEMM's symbols per row) from which
/// parallel_rows hands rows to the pool. Below it one inline range is
/// not reliably faster on the pool: in a sweep of both GEMM modes at 4
/// threads on a shared 4-CPU x86-64 host (AVX-512 tier; rows 4-128, cols
/// 12-64, batch 1-64, best of three sweeps), GEMMs of up to 65,536 ran
/// as slow as 0.95x on the pool, and every GEMM from 98,304 up ran at
/// least 1.15x faster. A readout now costs more than its symbols (one
/// draw each for sum, detector and ADC), so at a fixed size GEMMs of
/// few columns gain the most.
inline constexpr std::size_t kPoolBreakEvenWork = 98304;

/// Run `fn(first, last)` over contiguous row ranges that together cover
/// [0, rows) exactly once. Runs the one range [0, rows) inline when
/// threads <= 1, rows <= 1, rows * row_work < kPoolBreakEvenWork, or
/// when called from inside another parallel_rows batch; otherwise the
/// rows split into min(threads, rows) near-equal ranges dispatched to
/// the persistent worker pool (thread_pool.hpp) — no threads are
/// constructed per call once the pool is warm. Correctness must not
/// depend on how rows are split or which thread runs a range (see the
/// determinism contract above). The first exception thrown by any range
/// is rethrown on the caller after the batch drains; a cancel flag stops
/// remaining workers from claiming more ranges.
void parallel_rows(std::size_t rows, std::size_t row_work,
                   std::size_t threads,
                   const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace onfiber::phot
