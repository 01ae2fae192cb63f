#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

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
  idle_ = n;  // a worker that has not reached its loop yet is free too
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

void ThreadPool::Submit(std::function<void()> task, const void* owner) {
  obs::Counter* submitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(Task{std::move(task), owner});
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

size_t ThreadPool::Withdraw(const void* owner) {
  std::deque<Task> withdrawn;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->owner == owner) {
      withdrawn.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return withdrawn.size();
}

size_t ThreadPool::idle_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_ > queue_.size() ? idle_ - queue_.size() : 0;
}

obs::Tracer* ThreadPool::tracer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracer_;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    // Drain remaining tasks even when stopping: ParallelFor may still be
    // waiting on their completion latch.
    if (queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front().run);
    queue_.pop_front();
    obs::Counter* executed = tasks_executed_;
    --idle_;
    lock.unlock();
    task();
    task = nullptr;
    obs::Increment(executed);
    lock.lock();
    ++idle_;
  }
}

namespace {

// Shared state of one ParallelFor invocation, owned jointly by the caller
// and every helper it submitted: chunks are claimed by an atomic cursor
// (helpers and the caller all pull from it) and completion is tracked with
// a latch-style counter. The caller never waits for a helper that has not
// started: it withdraws the helpers still queued once the cursor ran dry,
// and a helper that starts late finds nothing to claim and only drops its
// reference.
struct ForState {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  // Valid while any chunk is unfinished; a helper reads it only after it
  // has claimed a chunk, which keeps the caller waiting.
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

  // Claims the next chunk; false once the cursor ran dry.
  bool Claim(size_t* chunk) {
    *chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
    return *chunk < num_chunks;
  }

  // Runs `chunk`, keeping its exception if it is the lowest-indexed one.
  void Run(size_t chunk) {
    size_t lo = begin + chunk * grain;
    size_t hi = std::min(end, lo + grain);
    try {
      for (size_t i = lo; i < hi; ++i) (*fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error || chunk < error_chunk) {
        error = std::current_exception();
        error_chunk = chunk;
      }
    }
  }

  // Counts `ran` chunks as finished and wakes the caller after the last.
  void Finish(size_t ran) {
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mutex);
    chunks_finished += ran;
    if (chunks_finished == num_chunks) done_cv.notify_all();
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

  auto state = std::make_shared<ForState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->fn = &fn;
  state->num_chunks = (range + grain - 1) / grain;

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

  // One helper per idle worker is enough: each claims chunks until the
  // cursor runs dry. Busy workers get none, so a loop nested in another
  // loop's task runs on its own lane while its siblings keep the pool
  // busy, and takes the lanes they free once they are done.
  size_t helpers = std::min(pool->idle_workers(), state->num_chunks - 1);
  obs::Tracer* tracer = pool->tracer();
  for (size_t t = 0; t < helpers; ++t) {
    // Captured on the caller thread: the enqueuing span becomes the
    // helper span's parent and the flow id draws the Submit -> execute
    // arrow in the Chrome trace.
    obs::TaskContext ctx = obs::CaptureTaskContext(tracer);
    auto help = [state, ctx, chunks_helper] {
      size_t chunk;
      if (!state->Claim(&chunk)) return;
      size_t ran = 0;
      {
        obs::ScopedWorkerSpan span(ctx, "thread_pool.worker");
        do {
          state->Run(chunk);
          ++ran;
        } while (state->Claim(&chunk));
        obs::Increment(chunks_helper, ran);
      }
      // Only now may the caller return: the span and the counter above
      // are closed, and this lane touches nothing of the caller's after.
      state->Finish(ran);
    };
    pool->Submit(std::move(help), state.get());
  }
  size_t ran = 0;
  for (size_t chunk; state->Claim(&chunk); ++ran) state->Run(chunk);
  obs::Increment(chunks_caller, ran);
  state->Finish(ran);
  // Helpers no worker has taken would only find the cursor empty; dropping
  // them keeps them from holding workers the next loop could use.
  pool->Withdraw(state.get());
  // Every unfinished chunk was claimed by a helper that is running it.
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(
        lock, [&] { return state->chunks_finished == state->num_chunks; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace autofeat
