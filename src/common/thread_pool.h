// A fixed-size thread pool shared by every concurrent planning query of a
// process (engine/service.h). Only PlannerService constructs one, sized by
// PlannerServiceOptions::threads (the planner's one thread count), and a
// synthesis runs serially inside the service task that owns its signature.
// Work enters only through a TaskGroup: each query submits its independent
// work items through its own group, the workers drain the groups
// round-robin — so overlapping queries interleave fairly instead of
// queueing behind each other — and TaskGroup::Wait blocks on exactly its
// own subset of tasks.
// While waiting, a thread *helps*: it keeps executing pending tasks (from
// any group) instead of sleeping, which makes it safe for a pool task to
// submit further tasks and wait on them — the pattern the planning service
// uses to run whole requests as pool tasks without deadlocking.
//
// Callers that need ordered output write to preallocated slot i and merge in
// index order afterwards; the parallel result is then byte-identical to the
// serial path.
#ifndef P2_COMMON_THREAD_POOL_H_
#define P2_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"

namespace p2 {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. With num_threads <= 1 no workers are
  /// spawned and TaskGroup::Submit runs tasks inline — the serial path
  /// stays free of thread-creation cost; only deferred tasks
  /// (ReserveDeferred) queue, to be run by the waiting thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// An independently waitable subset of the pool's tasks. Groups sharing a
  /// pool are scheduled round-robin: one task from each group with pending
  /// work, repeatedly, so no group's backlog starves another's. Errors are
  /// isolated per group — a throwing task fail-fasts the *rest of its own
  /// group* (remaining tasks are drained unrun) and Wait() rethrows the
  /// first one, while other groups keep running unaffected.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    /// Waits for any in-flight tasks (a destroyed group must not leave
    /// workers holding pointers into it); a pending error is swallowed —
    /// call Wait() first if you care.
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueues a task onto the shared pool under this group. Tasks may
    /// themselves submit to and wait on *other* groups of the same pool
    /// (waiting helps, see Wait); submitting to their own group and then
    /// waiting on it from inside a task of that group is not supported.
    void Submit(std::function<void()> task);

    /// Blocks until every task submitted to *this group* has finished, then
    /// rethrows the first exception any of them threw. Other groups' tasks
    /// do not delay the return beyond fair scheduling. While this group has
    /// unfinished tasks the calling thread executes pending pool tasks
    /// (its own group's first, by round-robin position) instead of
    /// sleeping, so calling Wait from inside a pool task cannot deadlock.
    void Wait();

    /// Reserves a slot for a task that is not enqueued yet: Wait() keeps
    /// blocking (and helping) until the reservation is settled by exactly
    /// one CommitDeferred (which enqueues the follow-up task) or
    /// AbandonDeferred. This is the deferral primitive behind non-blocking
    /// cache lookups: a task that must pause for an external event reserves
    /// its slot, returns (freeing the worker to run other groups' tasks),
    /// and the event's continuation commits the follow-up — no thread ever
    /// blocks in between. Reserve BEFORE registering the continuation, or a
    /// fast continuation could commit against a reservation that does not
    /// exist yet. Inline (<= 1 thread) pools defer the same way — callers
    /// on other threads can fire the continuation — and the committed task
    /// runs on whichever thread is waiting on the pool.
    void ReserveDeferred();
    /// Enqueues `task` against one earlier ReserveDeferred(). Safe from any
    /// thread, including callbacks running outside the pool; the task is
    /// scheduled like a Submit()ted one (round-robin, per-group fail-fast,
    /// helpable from Wait). The group may be gone by the time this returns:
    /// the committed task can run and the group's Wait return as soon as
    /// the pool lock is released, so the call never touches the group after
    /// that.
    void CommitDeferred(std::function<void()> task);
    /// Releases one earlier ReserveDeferred() without enqueueing anything.
    void AbandonDeferred();

    /// Cancel-aware Wait: like Wait(), but when `token` aborts (explicit
    /// cancel, or deadline expiry — which never notifies a condition
    /// variable, so the sleep is bounded by the armed deadline instead)
    /// `on_abort` is invoked exactly once, outside the pool lock. Its job
    /// is to flush this group's deferred reservations back into the queue
    /// — their tasks observe the cancellation and unwind — because this
    /// Wait, like the plain one, returns only once in-flight work AND
    /// reservations have drained. With a token that cannot be cancelled
    /// this is exactly Wait().
    void Wait(const CancelToken& token, const std::function<void()>& on_abort);

   private:
    friend class ThreadPool;

    ThreadPool& pool_;
    // All fields below are guarded by pool_.mu_.
    std::deque<std::function<void()>> queue_;
    std::int64_t in_flight_ = 0;  ///< queued + currently running tasks
    bool scheduled_ = false;      ///< linked into pool_.ready_
    std::exception_ptr first_error_;
  };

 private:
  void WorkerLoop();
  /// Pops the next (round-robin) task and runs it. `lock` must hold mu_ on
  /// entry and holds it again on return; the task itself runs unlocked.
  void RunOneTask(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  /// Signals workers: a group gained work, or the pool is shutting down.
  std::condition_variable work_available_;
  /// Signals group waiters: a task finished or new help is available.
  std::condition_variable progress_;
  /// Groups with queued tasks, in round-robin order. A group appears at most
  /// once; the scheduler pops the front group's next task and requeues the
  /// group at the back while it still has work.
  std::deque<TaskGroup*> ready_;
  bool shutting_down_ = false;
};

}  // namespace p2

#endif  // P2_COMMON_THREAD_POOL_H_
