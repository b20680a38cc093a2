#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fl::common {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIterationsIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> hits(64, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPoolTest, ConcurrentAccumulationIsComplete) {
  ThreadPool pool(8);
  std::atomic<std::int64_t> sum{0};
  const std::size_t n = 10'000;
  pool.ParallelFor(n, [&](std::size_t i) {
    sum += static_cast<std::int64_t>(i);
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(n * (n - 1) / 2));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](std::size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(20, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 50 * 20);
}

// Occupies a pool's one worker until Release(), so a test controls whether
// the tasks queued behind it can be claimed.
class BusyWorker {
 public:
  explicit BusyWorker(ThreadPool& pool)
      : handle_(pool.Submit([gate = gate_.get_future().share(),
                             started = &started_] {
          started->set_value();
          gate.wait();
        })) {
    started_.get_future().wait();
  }
  void Release() { gate_.set_value(); }
  void Join() { handle_.Wait(); }

 private:
  std::promise<void> gate_;
  std::promise<void> started_;
  ThreadPool::Handle handle_;
};

TEST(ThreadPoolTest, SubmittedTasksAllRunAndReportTheirResults) {
  ThreadPool pool(3);
  std::vector<std::shared_ptr<int>> results;
  std::vector<ThreadPool::Handle> handles;
  for (int i = 0; i < 200; ++i) {
    auto result = std::make_shared<int>(0);
    results.push_back(result);
    handles.push_back(pool.Submit([result, i] { *result = i * i; }));
  }
  for (int i = 0; i < 200; ++i) {
    handles[i].Wait();
    EXPECT_EQ(*results[i], i * i);
  }
}

TEST(ThreadPoolTest, WaitRunsAnUnclaimedTaskInline) {
  ThreadPool pool(1);
  BusyWorker busy(pool);
  std::thread::id ran_on;
  ThreadPool::Handle h =
      pool.Submit([&ran_on] { ran_on = std::this_thread::get_id(); });
  h.Wait();  // the only worker is busy: this thread claims the task
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  h.Wait();  // empty now: returns at once
  busy.Release();
  busy.Join();
}

TEST(ThreadPoolTest, WaitOnAClaimedTaskRunsQueuedTasksMeanwhile) {
  ThreadPool pool(1);
  BusyWorker busy(pool);  // claimed by the only worker, running until freed
  std::thread::id ran_on;
  ThreadPool::Handle queued = pool.Submit([&] {
    ran_on = std::this_thread::get_id();
    busy.Release();
  });
  // The worker cannot reach the queued task; this thread runs it while it
  // waits, which frees the worker's task.
  busy.Join();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  queued.Wait();
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsSubmittedTasksInWait) {
  int runs = 0;
  ThreadPool::Handle h;
  {
    ThreadPool pool(0);
    h = pool.Submit([&runs] { ++runs; });
  }  // the handle outlives its pool
  EXPECT_EQ(runs, 0);
  h.Wait();
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, DroppedHandleCancelsAnUnclaimedTask) {
  ThreadPool pool(1);
  BusyWorker busy(pool);
  auto ran = std::make_shared<std::atomic<int>>(0);
  auto inputs = std::make_shared<int>(7);
  {
    ThreadPool::Handle h = pool.Submit([ran, inputs] { ran->fetch_add(1); });
  }  // dropped without blocking while the worker is busy
  EXPECT_EQ(inputs.use_count(), 1);  // the task and its captures are gone
  busy.Release();
  busy.Join();
  // The worker has passed the dropped entry once a later task is done.
  pool.Submit([] {}).Wait();
  EXPECT_EQ(ran->load(), 0);
}

TEST(ThreadPoolTest, PoolDestroyedWithTasksQueuedRunsEachExactlyOnce) {
  std::vector<ThreadPool::Handle> handles;
  auto runs = std::make_shared<std::atomic<int>>(0);
  {
    ThreadPool pool(1);
    BusyWorker busy(pool);
    for (int i = 0; i < 5; ++i) {
      handles.push_back(pool.Submit([runs] { runs->fetch_add(1); }));
    }
    busy.Release();
    busy.Join();
  }  // joins the worker, which drained the queue
  EXPECT_EQ(runs->load(), 5);
  for (ThreadPool::Handle& h : handles) h.Wait();
  EXPECT_EQ(runs->load(), 5);  // each task ran exactly once
}

TEST(ThreadPoolTest, SubmittedExceptionRethrowsInWait) {
  ThreadPool pool(2);
  ThreadPool::Handle h =
      pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(h.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, QueueWaitObserverSeesSubmittedTasks) {
  ThreadPool pool(1);
  std::atomic<int> observed{0};
  pool.SetQueueWaitObserver([&](std::int64_t us) {
    EXPECT_GE(us, 0);
    observed.fetch_add(1);
  });
  std::promise<void> ran;
  // Waiting on the promise, not the handle, leaves the task to the worker,
  // which reports its queue wait before running it.
  ThreadPool::Handle h = pool.Submit([&ran] { ran.set_value(); });
  ran.get_future().wait();
  EXPECT_EQ(observed.load(), 1);
  h.Wait();
}

}  // namespace
}  // namespace fl::common
