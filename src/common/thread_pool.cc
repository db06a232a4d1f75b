#include "common/thread_pool.h"

#include <utility>

namespace p2 {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 1) return;  // inline mode
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Members (default_group_ included) are destroyed only after this body,
  // so queued tasks may still exist here. The workers drain them: the wait
  // predicate below lets a worker exit only once ready_ is empty, so every
  // queued task of every surviving group runs before the joins return, and
  // default_group_'s destructor (the first member teardown) finds nothing
  // left to wait for. The pool must outlive caller-owned groups — their
  // destructors touch pool state — so destroy every group before its pool
  // (as PlannerService does by declaring request_tasks_ after pool_).
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunOneTask(std::unique_lock<std::mutex>& lock) {
  TaskGroup* group = ready_.front();
  ready_.pop_front();
  std::function<void()> task = std::move(group->queue_.front());
  group->queue_.pop_front();
  if (group->queue_.empty()) {
    group->scheduled_ = false;
  } else {
    // Round-robin: the group goes to the back so other groups' tasks
    // interleave with its remaining backlog.
    ready_.push_back(group);
  }
  // Fail fast *within the group*: once one of its tasks has thrown, drain
  // the rest of that group unrun — its Wait() is about to rethrow anyway.
  const bool skip = group->first_error_ != nullptr;
  lock.unlock();
  if (!skip) {
    try {
      task();
    } catch (...) {
      std::unique_lock<std::mutex> error_lock(mu_);
      if (group->first_error_ == nullptr) {
        group->first_error_ = std::current_exception();
      }
    }
  }
  lock.lock();
  --group->in_flight_;
  // Wake group waiters: either their group just completed, or (if this task
  // submitted work) there is something new to help with.
  progress_.notify_all();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return shutting_down_ || !ready_.empty(); });
    if (ready_.empty()) return;  // shutting down and fully drained
    RunOneTask(lock);
  }
}

ThreadPool::TaskGroup::~TaskGroup() {
  try {
    Wait();
  } catch (...) {
    // A group destroyed without Wait() drops its error; destructors must
    // not throw.
  }
}

void ThreadPool::TaskGroup::Submit(std::function<void()> task) {
  if (pool_.workers_.empty()) {
    // Inline mode: run immediately, honouring the same per-group fail-fast
    // and first-error-wins contracts as the workers.
    {
      std::unique_lock<std::mutex> lock(pool_.mu_);
      if (first_error_ != nullptr) return;
    }
    try {
      task();
    } catch (...) {
      std::unique_lock<std::mutex> lock(pool_.mu_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(pool_.mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    if (!scheduled_) {
      scheduled_ = true;
      pool_.ready_.push_back(this);
    }
  }
  pool_.work_available_.notify_one();
  // Helping waiters sleep on progress_, not work_available_.
  pool_.progress_.notify_all();
}

void ThreadPool::TaskGroup::Wait() {
  // Inline mode ran every Submit()ted task already; only deferred tasks can
  // be in flight, and their commits land in ready_ for this loop to run.
  std::unique_lock<std::mutex> lock(pool_.mu_);
  while (in_flight_ > 0) {
    if (!pool_.ready_.empty()) {
      // Help instead of sleeping: run the next round-robin task (possibly
      // another group's). This is what lets a pool task wait on a group it
      // populated without idling a worker — or deadlocking when every
      // worker is itself a waiter.
      pool_.RunOneTask(lock);
      continue;
    }
    pool_.progress_.wait(lock, [this] {
      return in_flight_ == 0 || !pool_.ready_.empty();
    });
  }
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::TaskGroup::ReserveDeferred() {
  std::unique_lock<std::mutex> lock(pool_.mu_);
  ++in_flight_;
}

void ThreadPool::TaskGroup::CommitDeferred(std::function<void()> task) {
  // Read the pool before publishing the task. The caller is usually a
  // foreign thread (an owner settling a flight): once mu_ is released the
  // task may run, the group's Wait return and the group be destroyed, so
  // nothing after the unlock may touch `this`.
  ThreadPool& pool = pool_;
  {
    std::unique_lock<std::mutex> lock(pool.mu_);
    // in_flight_ already counts this task, since ReserveDeferred.
    queue_.push_back(std::move(task));
    if (!scheduled_) {
      scheduled_ = true;
      pool.ready_.push_back(this);
    }
  }
  pool.work_available_.notify_one();
  pool.progress_.notify_all();
}

void ThreadPool::TaskGroup::AbandonDeferred() {
  {
    std::unique_lock<std::mutex> lock(pool_.mu_);
    --in_flight_;
  }
  pool_.progress_.notify_all();
}

void ThreadPool::TaskGroup::Wait(const CancelToken& token,
                                 const std::function<void()>& on_abort) {
  if (!token.CanBeCancelled()) {
    Wait();
    return;
  }
  // Register before the first predicate check (the AddCancelWaiter
  // contract): Cancel() notifies progress_, so an explicit abort wakes this
  // waiter promptly. Deadline expiry never notifies — the sleep is bounded
  // by the armed deadline, and the next iteration's cancel_requested()
  // latches the expiry. Declared before `lock` so the lock releases mu_
  // before the waiter unregisters.
  CancelWaiter waiter(token, &pool_.mu_, &pool_.progress_);
  std::unique_lock<std::mutex> lock(pool_.mu_);
  bool abort_observed = false;
  while (in_flight_ > 0) {
    // Safe while holding a registered mutex: cancel_requested() latches but
    // never notifies.
    if (!abort_observed && token.cancel_requested()) {
      abort_observed = true;
      lock.unlock();
      on_abort();
      lock.lock();
      continue;
    }
    if (!pool_.ready_.empty()) {
      pool_.RunOneTask(lock);
      continue;
    }
    const auto wake = [&] {
      return in_flight_ == 0 || !pool_.ready_.empty() ||
             (!abort_observed && token.cancel_requested());
    };
    const auto deadline = token.deadline();
    if (!abort_observed && deadline.has_value()) {
      // An elapsed deadline falls straight through; the loop above then
      // latches it and runs the abort hook — no spin, because once
      // abort_observed is set this branch is never taken again.
      pool_.progress_.wait_until(lock, *deadline, wake);
    } else {
      pool_.progress_.wait(lock, wake);
    }
  }
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::TaskGroup::ParallelFor(
    std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  for (std::int64_t i = 0; i < n; ++i) {
    Submit([&fn, i] { fn(i); });
  }
  Wait();
}

void ThreadPool::Submit(std::function<void()> task) {
  default_group_.Submit(std::move(task));
}

void ThreadPool::Wait() { default_group_.Wait(); }

void ThreadPool::ParallelFor(std::int64_t n,
                             const std::function<void(std::int64_t)>& fn) {
  default_group_.ParallelFor(n, fn);
}

}  // namespace p2
