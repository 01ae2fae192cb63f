#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace autofeat {

size_t ResolveNumThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = ResolveNumThreads(num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  obs::Counter* submitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    submitted = tasks_submitted_;
  }
  obs::Increment(submitted);
  wake_.notify_one();
}

void ThreadPool::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
  tasks_submitted_ = obs::GetCounter(metrics, "thread_pool.tasks_submitted",
                                     /*deterministic=*/false);
  tasks_executed_ = obs::GetCounter(metrics, "thread_pool.tasks_executed",
                                    /*deterministic=*/false);
}

obs::MetricsRegistry* ThreadPool::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_;
}

void ThreadPool::set_tracer(obs::Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracer_ = tracer;
}

obs::Tracer* ThreadPool::tracer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracer_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    obs::Counter* executed;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain remaining tasks even when stopping: ParallelFor may still be
      // waiting on their completion latch.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      executed = tasks_executed_;
    }
    task();
    obs::Increment(executed);
  }
}

namespace {

// Shared state of one ParallelFor invocation: chunks are claimed by an
// atomic cursor (workers and the caller all pull from it) and completion is
// tracked with a latch-style counter.
struct ForState {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  const std::function<void(size_t)>* fn = nullptr;

  std::atomic<size_t> next_chunk{0};
  size_t num_chunks = 0;

  std::mutex mutex;
  std::condition_variable done_cv;
  size_t chunks_finished = 0;

  // First exception by chunk index, so the propagated error does not depend
  // on scheduling.
  std::exception_ptr error;
  size_t error_chunk = 0;

  // Claims and runs chunks until the cursor runs dry; returns how many this
  // lane executed (feeds the caller-vs-helper work-split stats).
  size_t RunChunks() {
    size_t ran = 0;
    for (;;) {
      size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return ran;
      ++ran;
      size_t lo = begin + chunk * grain;
      size_t hi = std::min(end, lo + grain);
      std::exception_ptr caught;
      try {
        for (size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        caught = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (caught && (!error || chunk < error_chunk)) {
        error = caught;
        error_chunk = chunk;
      }
      if (++chunks_finished == num_chunks) done_cv.notify_all();
    }
  }
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  size_t range = end - begin;
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->num_threads() <= 1 || range <= grain) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  ForState state;
  state.begin = begin;
  state.end = end;
  state.grain = grain;
  state.fn = &fn;
  state.num_chunks = (range + grain - 1) / grain;

  obs::MetricsRegistry* metrics = pool->metrics();
  obs::Counter* pf_calls = obs::GetCounter(
      metrics, "thread_pool.parallel_for.calls", /*deterministic=*/false);
  obs::Counter* chunks_caller = obs::GetCounter(
      metrics, "thread_pool.parallel_for.chunks_caller",
      /*deterministic=*/false);
  obs::Counter* chunks_helper = obs::GetCounter(
      metrics, "thread_pool.parallel_for.chunks_helper",
      /*deterministic=*/false);
  obs::Increment(pf_calls);

  // One helper task per worker is enough: each claims chunks until the
  // cursor runs dry. The caller participates too, so the pool being busy
  // with other work never deadlocks this loop.
  size_t helpers = std::min(pool->num_threads(), state.num_chunks - 1);
  std::mutex helper_mutex;
  std::condition_variable helper_cv;
  size_t helpers_live = helpers;  // guarded by helper_mutex
  obs::Tracer* tracer = pool->tracer();
  for (size_t t = 0; t < helpers; ++t) {
    // Captured on the caller thread: the enqueuing span becomes the
    // helper span's parent and the flow id draws the Submit -> execute
    // arrow in the Chrome trace.
    obs::TaskContext ctx = obs::CaptureTaskContext(tracer);
    pool->Submit([&, ctx] {
      obs::ScopedWorkerSpan span(ctx, "thread_pool.worker");
      obs::Increment(chunks_helper, state.RunChunks());
      // Count down under the mutex: once the caller sees zero it destroys
      // these locals, so no helper may touch them after unlocking.
      std::lock_guard<std::mutex> lock(helper_mutex);
      if (--helpers_live == 0) helper_cv.notify_all();
    });
  }
  obs::Increment(chunks_caller, state.RunChunks());
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.done_cv.wait(lock,
                       [&] { return state.chunks_finished == state.num_chunks; });
  }
  // All chunks are done, but helper lambdas may still be on their final
  // instructions; don't let `state` leave scope under them.
  {
    std::unique_lock<std::mutex> lock(helper_mutex);
    helper_cv.wait(lock, [&] { return helpers_live == 0; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace autofeat
