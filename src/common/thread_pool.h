// A fixed-size worker pool used by the MapReduce engine to run map and
// reduce tasks concurrently.
//
// Concurrency contract (checked by Clang -Wthread-safety and by the TSan
// configuration of the test suite):
//  * Submit/WaitIdle/TryRunOneTask are safe to call from any thread,
//    including from inside a running task.
//  * ParallelFor tracks completion per call, so concurrent ParallelFor
//    calls on a shared pool do not wait on each other's tasks, and a task
//    may itself call ParallelFor (nested parallelism): the waiting thread
//    helps execute queued tasks instead of blocking a worker slot, which
//    is what makes nesting deadlock-free even on a 1-thread pool.
//  * Exceptions thrown by a ParallelFor body are caught, the remaining
//    indices still run, and the first exception is rethrown to the
//    caller. Tasks passed to raw Submit must not throw.
//  * ParallelChunks is the fan-out for work *inside* a running task (the
//    reducer's merge and ComparePartitions, DESIGN.md §19): a few chunk
//    tasks pull units from an atomic cursor, the caller pulls too, and it
//    never runs another queued task while it waits. A BusyAccount lets
//    the fanning-out task report its one-core time.

#ifndef SKYMR_COMMON_THREAD_POOL_H_
#define SKYMR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace skymr {

/// Fixed-size thread pool with a Submit/WaitIdle interface.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. The task must not throw.
  void Submit(std::function<void()> task) SKYMR_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished. Note this waits for
  /// *global* idleness; per-call completion is what ParallelFor tracks.
  /// Must not be called from inside a task (the calling task itself
  /// counts as active, so it would never return).
  void WaitIdle() SKYMR_EXCLUDES(mutex_);

  /// Dequeues and runs one pending task on the calling thread. Returns
  /// false when the queue was empty. Lets waiting threads help drain the
  /// queue (see ParallelFor) instead of occupying a worker.
  bool TryRunOneTask() SKYMR_EXCLUDES(mutex_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Default parallelism: hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop() SKYMR_EXCLUDES(mutex_);

  /// Runs `task` and maintains the active count / idle signal around it.
  void RunTask(std::function<void()> task) SKYMR_EXCLUDES(mutex_);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_ SKYMR_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  int active_tasks_ SKYMR_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ SKYMR_GUARDED_BY(mutex_) = false;
};

/// Runs `count` indexed tasks on `pool` and waits for exactly those tasks
/// to finish. `fn(i)` is invoked once for each i in [0, count). Safe to
/// call concurrently from multiple threads and from inside pool tasks;
/// the first exception thrown by `fn` is rethrown after all indices ran.
void ParallelFor(ThreadPool* pool, int count,
                 const std::function<void(int)>& fn);

/// Estimated work, in tuple visits, below which ParallelChunks runs its
/// units serially on the caller: under it, waking pool workers costs
/// about as much as the work itself. A constant, not a tuning knob.
inline constexpr uint64_t kParallelChunksMinWork = 2048;

/// Runs `fn(u)` once for every unit u in [0, units) and returns when all
/// have finished. `work` is the caller's estimate of the whole region in
/// tuple visits. With a pool, at least two units and `work` at or above
/// kParallelChunksMinWork, the units are shared by at most
/// num_threads() + 1 chunks (pool tasks plus the caller) that pull them
/// from an atomic cursor; otherwise they run in order on the caller.
/// Units must be independent of each other. The caller runs units but no
/// other queued task, and once the cursor is exhausted it blocks only
/// for units already running. The first exception thrown by `fn` is
/// rethrown after every unit ran. The summed run time of the chunks is
/// charged to the caller's BusyAccount in place of the region's wall
/// time.
void ParallelChunks(ThreadPool* pool, size_t units, uint64_t work,
                    const std::function<void(size_t)>& fn);

/// The one-core time of a task that fans out through ParallelChunks.
/// Constructing an account installs it as the calling thread's current
/// account until it is destroyed; accounts nest. Every ParallelChunks
/// region started on the thread while it is current swaps the region's
/// wall time for the summed run time of its chunks, wherever they ran.
/// The account's OneCoreSeconds is then the task's serial time plus its
/// own chunks' time, and never includes another task's work.
class BusyAccount {
 public:
  BusyAccount();
  ~BusyAccount();

  BusyAccount(const BusyAccount&) = delete;
  BusyAccount& operator=(const BusyAccount&) = delete;

  /// The task's one-core seconds, given the wall seconds it took.
  double OneCoreSeconds(double wall_seconds) const;

 private:
  friend void ParallelChunks(ThreadPool* pool, size_t units, uint64_t work,
                             const std::function<void(size_t)>& fn);

  /// Adds `seconds` (negative to remove wall time) to the calling
  /// thread's current account, if any.
  static void ChargeCurrent(double seconds);

  BusyAccount* previous_;
  double adjust_seconds_ = 0.0;
};

}  // namespace skymr

#endif  // SKYMR_COMMON_THREAD_POOL_H_
