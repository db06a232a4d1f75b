#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancel.h"

namespace p2 {
namespace {

TEST(TaskGroup, RunsEveryTaskExactlyOnce) {
  // The pipeline's contract: task i writes slot i, so the merged output is
  // independent of scheduling.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ThreadPool::TaskGroup group(pool);
    std::vector<std::atomic<int>> runs(257);
    std::vector<std::int64_t> out(257);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      group.Submit([&runs, &out, i] {
        runs[i].fetch_add(1);
        out[i] = static_cast<std::int64_t>(i * i);
      });
    }
    group.Wait();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " task " << i;
      EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
    }
  }
}

TEST(TaskGroup, WaitRethrowsFirstTaskErrorAndGroupStaysUsable) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 10; ++i) {
      group.Submit([i] {
        if (i == 3) throw std::runtime_error("boom");
      });
    }
    EXPECT_THROW(group.Wait(), std::runtime_error);
    // The error is consumed: the same group keeps accepting work.
    std::atomic<int> count{0};
    for (int i = 0; i < 5; ++i) {
      group.Submit([&count] { count.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(count.load(), 5);
  }
}

TEST(TaskGroup, ReusableAcrossWaves) {
  ThreadPool pool(3);
  ThreadPool::TaskGroup group(pool);
  std::atomic<std::int64_t> sum{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (std::int64_t i = 0; i < 10; ++i) {
      group.Submit([&sum, i] { sum.fetch_add(i); });
    }
    group.Wait();
    EXPECT_EQ(sum.load(), (wave + 1) * 45);
  }
}

TEST(TaskGroup, WaitCoversOnlyItsOwnSubset) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup slow(pool);
  ThreadPool::TaskGroup fast(pool);
  std::atomic<int> slow_done{0};
  std::atomic<int> fast_done{0};
  for (int i = 0; i < 8; ++i) {
    slow.Submit([&slow_done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      slow_done.fetch_add(1);
    });
    fast.Submit([&fast_done] { fast_done.fetch_add(1); });
  }
  fast.Wait();
  EXPECT_EQ(fast_done.load(), 8);  // waits on its subset, not the pool
  slow.Wait();
  EXPECT_EQ(slow_done.load(), 8);
}

TEST(TaskGroup, GroupsInterleaveRoundRobin) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<char> sequence;
  ThreadPool::TaskGroup a(pool);
  ThreadPool::TaskGroup b(pool);
  // A floods the pool first; B's single task must not queue behind all of
  // A's backlog — round-robin picks it within roughly one task per group.
  for (int i = 0; i < 20; ++i) {
    a.Submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard<std::mutex> lock(mu);
      sequence.push_back('a');
    });
  }
  b.Submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    sequence.push_back('b');
  });
  a.Wait();
  b.Wait();
  ASSERT_EQ(sequence.size(), 21u);
  const auto b_pos =
      std::find(sequence.begin(), sequence.end(), 'b') - sequence.begin();
  EXPECT_LT(b_pos, 12) << "b starved behind a's backlog";
}

TEST(TaskGroup, ErrorsAreIsolatedPerGroup) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ThreadPool::TaskGroup failing(pool);
    ThreadPool::TaskGroup healthy(pool);
    std::atomic<int> healthy_done{0};
    for (int i = 0; i < 10; ++i) {
      failing.Submit([i] {
        if (i == 3) throw std::runtime_error("boom");
      });
      healthy.Submit([&healthy_done] { healthy_done.fetch_add(1); });
    }
    EXPECT_THROW(failing.Wait(), std::runtime_error);
    healthy.Wait();  // unaffected by the other group's failure
    EXPECT_EQ(healthy_done.load(), 10);
    // A failed group keeps working afterwards (first-error-wins, then reset).
    std::atomic<int> again{0};
    for (int i = 0; i < 5; ++i) {
      failing.Submit([&again] { again.fetch_add(1); });
    }
    failing.Wait();
    EXPECT_EQ(again.load(), 5);
  }
}

TEST(TaskGroup, WaitHelpsFromInsideAPoolTask) {
  // Two orchestration tasks occupy both workers, then each fans out onto
  // the same pool and waits. Without help-while-waiting this deadlocks:
  // every worker would be blocked in Wait with the subtasks queued behind
  // them. The planning service runs whole requests exactly like this.
  ThreadPool pool(2);
  std::atomic<int> subtasks_done{0};
  ThreadPool::TaskGroup orchestrations(pool);
  for (int r = 0; r < 2; ++r) {
    orchestrations.Submit([&pool, &subtasks_done] {
      ThreadPool::TaskGroup items(pool);
      for (int i = 0; i < 16; ++i) {
        items.Submit([&subtasks_done] { subtasks_done.fetch_add(1); });
      }
      items.Wait();
    });
  }
  orchestrations.Wait();
  EXPECT_EQ(subtasks_done.load(), 32);
}

TEST(TaskGroup, InlineModeRunsTasksImmediately) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0);  // no workers: Submit runs inline
  ThreadPool::TaskGroup group(pool);
  int count = 0;
  group.Submit([&count] { ++count; });
  EXPECT_EQ(count, 1);
  group.Wait();
  // Inline tasks capture errors like workers do; Wait rethrows.
  group.Submit([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

// ---- deferred tasks (ISSUE 9) ---------------------------------------------

TEST(TaskGroup, DeferredReservationHoldsWaitUntilCommitted) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  std::atomic<bool> ran{false};
  group.ReserveDeferred();  // Wait must not return while this is pending
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    group.CommitDeferred([&ran] { ran.store(true); });
  });
  group.Wait();  // returns only after the committed task actually ran
  EXPECT_TRUE(ran.load());
  committer.join();
}

// A foreign committer can be the last thread inside a group: once its task
// ran, Wait returns and the owner may destroy the group while
// CommitDeferred is still unwinding. CommitDeferred must not read the group
// after publishing the task; ThreadSanitizer reports the race if it does.
TEST(TaskGroup, GroupMayBeDestroyedWhileAForeignCommitUnwinds) {
  for (int threads : {1, 2}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 200; ++round) {
      auto group = std::make_unique<ThreadPool::TaskGroup>(pool);
      group->ReserveDeferred();
      std::atomic<bool> ran{false};
      std::thread committer([g = group.get(), &ran] {
        g->CommitDeferred([&ran] { ran.store(true); });
      });
      group->Wait();
      group.reset();
      committer.join();
      EXPECT_TRUE(ran.load()) << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(TaskGroup, AbandonDeferredReleasesTheReservation) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  group.ReserveDeferred();
  std::thread abandoner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    group.AbandonDeferred();
  });
  group.Wait();  // unblocked by the abandonment, with nothing to run
  abandoner.join();
}

// Inline pools defer for real: a reservation holds Wait until another
// thread commits, and the committed task runs on the waiting thread.
TEST(TaskGroup, InlineModeWaitRunsTasksCommittedFromOtherThreads) {
  ThreadPool pool(1);
  ThreadPool::TaskGroup group(pool);
  group.ReserveDeferred();
  group.ReserveDeferred();
  std::thread::id ran_on;
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    group.CommitDeferred([&ran_on] { ran_on = std::this_thread::get_id(); });
    group.AbandonDeferred();
  });
  group.Wait();  // returns only after the committed task ran, here
  committer.join();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(TaskGroup, CancellableWaitInvokesAbortHookOnceAndDrains) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  CancelSource source;
  std::atomic<int> aborts{0};
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  // The waiter may help-run this task itself, so its release must not
  // depend on the abort hook (which only the waiter can run): the
  // canceller thread releases it right after cancelling.
  group.Submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.fetch_add(1);
  });
  // A reservation a continuation will commit later — the abort hook plays
  // that continuation's role, the way the pipeline's kick commits every
  // pending deferred member on cancellation. Wait cannot return before the
  // hook runs: only the committed task releases this reservation.
  group.ReserveDeferred();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.Cancel();
    release.store(true);
  });
  group.Wait(source.token(), [&] {
    aborts.fetch_add(1);
    group.CommitDeferred([&done] { done.fetch_add(1); });
  });
  canceller.join();
  EXPECT_EQ(aborts.load(), 1);  // the hook fires exactly once
  EXPECT_EQ(done.load(), 2);    // both the task and the committed deferral ran
}

TEST(TaskGroup, CancellableWaitWithNullTokenIsPlainWait) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    group.Submit([&done] { done.fetch_add(1); });
  }
  bool aborted = false;
  group.Wait(CancelToken(), [&aborted] { aborted = true; });
  EXPECT_EQ(done.load(), 8);
  EXPECT_FALSE(aborted);
}

TEST(TaskGroup, DestructorDrainsInFlightTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  {
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 32; ++i) {
      group.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
    // No Wait(): the destructor must drain, or workers would run tasks of a
    // dead group.
  }
  EXPECT_EQ(done.load(), 32);
}

}  // namespace
}  // namespace p2
