#ifndef FEDCROSS_UTIL_THREAD_POOL_H_
#define FEDCROSS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedcross::util {

// Fixed-size worker pool for running independent client-training jobs in
// parallel. Tasks are void() closures; errors must be reported through the
// closure's captured state. Destruction waits for queued work to drain.
class ThreadPool {
 public:
  // num_threads <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task for asynchronous execution.
  void Schedule(std::function<void()> task);

  // Blocks until every scheduled task has finished.
  void Wait();

  // Runs fn(i) for i in [0, count), distributing across the pool, and
  // returns once every index has finished. The calling thread participates
  // in the loop, so ParallelFor may be called from inside a pool task
  // (nested parallelism) without deadlocking: the nested call drains its own
  // indices even when every other worker is busy.
  //
  // Up to num_runners() indices run at once: the caller plus up to
  // num_threads() helpers. Code that splits work into one part per thread
  // sizes the split by num_runners(), not num_threads(), or a runner idles.
  void ParallelFor(int count, const std::function<void(int)>& fn);

  // Worker threads owned by the pool.
  int num_threads() const { return static_cast<int>(workers_.size()); }
  // Threads a ParallelFor runs on: the workers plus the calling thread.
  int num_runners() const { return num_threads() + 1; }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace fedcross::util

#endif  // FEDCROSS_UTIL_THREAD_POOL_H_
