#ifndef FEDCROSS_FL_PARALLEL_H_
#define FEDCROSS_FL_PARALLEL_H_

#include <cstdint>
#include <functional>

#include "util/thread_pool.h"

namespace fedcross::fl {

// Number of threads used for the FL simulation's parallel sections (client
// training fan-out, test-set evaluation, masking overlay). Process-wide;
// shared thread pool. n <= 0 selects std::thread::hardware_concurrency(); 1
// runs the legacy in-line sequential paths with no pool involvement. Any
// other n builds a pool of n worker threads whose ParallelFor runs on n + 1
// runners (the workers plus the calling thread,
// util::ThreadPool::num_runners()); parallel sections split by runners.
// Every parallel section is deterministic by construction (per-slot seeded
// Rngs for training, batch-order reduction for evaluation), so results are
// bit-identical for every thread count.
void SetFlThreads(int n);

// The resolved thread count SetFlThreads selected (never < 1).
int FlThreads();

// The shared worker pool sized to FlThreads(), or nullptr when FlThreads()
// == 1 (callers run their serial path). The pool is built lazily and
// rebuilt when SetFlThreads changes the size.
util::ThreadPool* AcquireFlPool();

// Splits [0, n) into at most one contiguous range per pool runner, each of
// at least min_per_range elements, and runs fn(begin, end) on every range via
// the shared pool (inline when the pool is off or the range is too small).
// The range boundaries depend only on n, min_per_range, and FlThreads(),
// never on scheduling, so callers whose per-element work is
// order-independent across ranges (e.g. element-wise accumulation with a
// fixed per-element operand order) produce bit-identical results at every
// thread count.
void ParallelRanges(std::int64_t n, std::int64_t min_per_range,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_PARALLEL_H_
