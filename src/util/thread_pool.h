// Deterministic parallel runtime (fixed-size thread pool + data-parallel
// helpers). Concurrency in this library is *structured*: call sites fan work
// out over an index range and merge results in index order, so any thread
// count — including the inline num_threads=1 path — produces byte-identical
// results. Stochastic tasks derive an independent RNG stream from
// (seed, task_index) via DeriveSeed() in util/rng.h instead of sharing a
// sequentially-consumed generator.

#ifndef AUTOFEAT_UTIL_THREAD_POOL_H_
#define AUTOFEAT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autofeat {

namespace obs {
class Counter;
class MetricsRegistry;
class Tracer;
}  // namespace obs

/// Resolves a `num_threads` config knob: 0 = hardware concurrency
/// (at least 1), anything else is taken literally.
size_t ResolveNumThreads(size_t num_threads);

/// \brief Fixed-size worker pool with a shared FIFO task queue.
///
/// Tasks must not throw (ParallelFor catches and re-raises on the caller's
/// behalf); the pool itself never reorders or drops tasks. Destruction
/// drains the queue and joins every worker.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 resolves to hardware concurrency).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; runs as soon as a worker is free. A task with an
  /// `owner` can be withdrawn until a worker takes it.
  void Submit(std::function<void()> task, const void* owner = nullptr);

  /// Drops the queued tasks submitted with `owner` that no worker has
  /// taken yet; returns how many.
  size_t Withdraw(const void* owner);

  /// Workers not running a task, less the tasks already queued for them:
  /// how many submitted tasks would start at once. A snapshot; other
  /// threads may take those workers before the caller submits.
  size_t idle_workers() const;

  /// Attaches a metrics sink (null detaches). Queue/execution stats are
  /// scheduling-dependent, so they register as non-deterministic metrics:
  /// `thread_pool.tasks_submitted`, `thread_pool.tasks_executed`,
  /// `thread_pool.parallel_for.{calls,chunks_caller,chunks_helper}`.
  /// Call before submitting work (the engine attaches at construction).
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const;

  /// Attaches a tracer (null detaches). ParallelFor helper lanes then
  /// record `thread_pool.worker` spans into the tracer's per-thread
  /// buffers, with flow events linking each Submit to its execution.
  /// Worker spans are scheduling-dependent and never enter the
  /// deterministic digest (see obs/trace.h).
  void set_tracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const;

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  struct Task {
    std::function<void()> run;
    const void* owner = nullptr;
  };
  std::deque<Task> queue_;
  bool stop_ = false;
  size_t idle_ = 0;  // workers not running a task
  std::vector<std::thread> workers_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* tasks_submitted_ = nullptr;
  obs::Counter* tasks_executed_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

/// Runs `fn(i)` for every i in [begin, end), chunked by `grain` (minimum
/// iterations per task; 0 behaves like 1). With a null pool or a
/// single-thread pool the loop runs inline on the caller. The caller thread
/// participates in the work, and helpers go only to idle workers, so a pool
/// of N threads applies up to N+1 lanes. Calls nest: a loop inside another
/// loop's iteration gets the workers that are idle at its start (none while
/// its siblings keep the pool busy) and never waits for a helper that has
/// not started. Iterations may run in any order and concurrently — `fn`
/// must only touch per-index state. If any iteration throws, the exception
/// thrown by the lowest-indexed chunk is rethrown on the caller once all
/// chunks finished.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn);

/// Maps `fn` over [0, n) and returns the results in index order —
/// parallelism never reorders output. `fn(i)` must return T and be safe to
/// call concurrently for distinct i.
template <typename T, typename Fn>
std::vector<T> ParallelMap(ThreadPool* pool, size_t n, size_t grain,
                           Fn&& fn) {
  std::vector<T> out(n);
  ParallelFor(pool, 0, n, grain, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace autofeat

#endif  // AUTOFEAT_UTIL_THREAD_POOL_H_
