#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "src/common/stopwatch.h"

namespace skymr {
namespace {

thread_local BusyAccount* current_account = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Manual predicate loop (not a lambda) so the thread-safety analysis
  // sees the guarded reads happen under mutex_.
  while (!queue_.empty() || active_tasks_ != 0) {
    all_done_.wait(lock);
  }
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) {
      return false;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
    ++active_tasks_;
  }
  RunTask(std::move(task));
  return true;
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::RunTask(std::function<void()> task) {
  // Caller has already incremented active_tasks_ while popping `task`.
  task();
  std::lock_guard<std::mutex> lock(mutex_);
  --active_tasks_;
  if (queue_.empty() && active_tasks_ == 0) {
    all_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.wait(lock);
      }
      if (queue_.empty()) {
        return;  // Shutting down and fully drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
    }
    RunTask(std::move(task));
  }
}

void ParallelFor(ThreadPool* pool, int count,
                 const std::function<void(int)>& fn) {
  if (count <= 0) {
    return;
  }
  // Per-call completion state. A pool-wide WaitIdle would (a) wait on
  // unrelated tasks when several ParallelFor calls share the pool and
  // (b) deadlock when called from inside a task, because the caller
  // itself counts as active. Tracking exactly our `count` tasks — and
  // helping run queued work while waiting — fixes both.
  struct CallState {
    std::mutex mutex;
    std::condition_variable done;
    int remaining = 0;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<CallState>();
  state->remaining = count;

  for (int i = 0; i < count; ++i) {
    // `fn` is captured by reference: ParallelFor does not return before
    // every wrapper has finished, so the reference cannot dangle.
    pool->Submit([state, &fn, i] {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (error != nullptr && state->first_error == nullptr) {
        state->first_error = error;
      }
      if (--state->remaining == 0) {
        state->done.notify_all();
      }
    });
  }

  while (true) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->remaining == 0) {
        break;
      }
    }
    if (pool->TryRunOneTask()) {
      continue;  // Helped drain the queue; re-check completion.
    }
    // Queue momentarily empty: all of this call's tasks are running on
    // other threads (any nested ParallelFor they start helps itself), so
    // blocking here cannot deadlock.
    std::unique_lock<std::mutex> lock(state->mutex);
    while (state->remaining != 0) {
      state->done.wait(lock);
    }
    break;
  }

  if (state->first_error != nullptr) {
    std::rethrow_exception(state->first_error);
  }
}

BusyAccount::BusyAccount() : previous_(current_account) {
  current_account = this;
}

BusyAccount::~BusyAccount() { current_account = previous_; }

double BusyAccount::OneCoreSeconds(double wall_seconds) const {
  return std::max(0.0, wall_seconds + adjust_seconds_);
}

void BusyAccount::ChargeCurrent(double seconds) {
  if (current_account != nullptr) {
    current_account->adjust_seconds_ += seconds;
  }
}

void ParallelChunks(ThreadPool* pool, size_t units, uint64_t work,
                    const std::function<void(size_t)>& fn) {
  if (pool == nullptr || units < 2 || work < kParallelChunksMinWork) {
    for (size_t u = 0; u < units; ++u) {
      fn(u);
    }
    return;
  }
  // Shared with the chunk tasks, which may start after the caller has
  // returned (by then the cursor is exhausted and they do nothing).
  struct Region {
    explicit Region(size_t n) : units(n) {}
    const size_t units;
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    size_t finished = 0;
    double chunk_seconds = 0.0;
    std::exception_ptr first_error;
  };
  // `body` is dereferenced only after a successful claim, and the caller
  // does not return before every claimed unit has finished, so a chunk
  // that starts late never touches a dead `fn`.
  const auto run_chunk = [](Region& region,
                            const std::function<void(size_t)>* body) {
    size_t unit = region.next.fetch_add(1, std::memory_order_relaxed);
    if (unit >= region.units) {
      return;
    }
    const BusyAccount nested;  // Regions the units themselves start.
    const Stopwatch clock;
    size_t ran = 0;
    std::exception_ptr error;
    for (; unit < region.units;
         unit = region.next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        (*body)(unit);
      } catch (...) {
        if (error == nullptr) {
          error = std::current_exception();
        }
      }
      ++ran;
    }
    const double seconds = nested.OneCoreSeconds(clock.ElapsedSeconds());
    std::lock_guard<std::mutex> lock(region.mutex);
    region.chunk_seconds += seconds;
    if (error != nullptr && region.first_error == nullptr) {
      region.first_error = error;
    }
    region.finished += ran;
    if (region.finished == region.units) {
      region.done.notify_all();
    }
  };

  const Stopwatch region_clock;
  auto region = std::make_shared<Region>(units);
  const std::function<void(size_t)>* body = &fn;
  const size_t helpers =
      std::min(static_cast<size_t>(pool->num_threads()), units - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([region, body, run_chunk] { run_chunk(*region, body); });
  }
  run_chunk(*region, body);
  double chunk_seconds = 0.0;
  std::exception_ptr error;
  {
    // Every unclaimed unit is gone, so whatever is left is running on
    // another thread: blocking cannot deadlock, and never helping with
    // queued tasks keeps other queries' work off this task's clock.
    std::unique_lock<std::mutex> lock(region->mutex);
    while (region->finished != units) {
      region->done.wait(lock);
    }
    chunk_seconds = region->chunk_seconds;
    error = region->first_error;
  }
  BusyAccount::ChargeCurrent(chunk_seconds - region_clock.ElapsedSeconds());
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace skymr
