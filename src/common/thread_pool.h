// Fixed-size worker pool with a blocking ParallelFor — the compute substrate
// for the parallel round engine (simulation_runner) and any other data-
// parallel fan-out that mirrors the paper's Aggregator tree (Sec. 4.2):
// independent work items execute concurrently, results are merged by the
// caller in a fixed order so a given (seed, thread-count) pair is
// reproducible regardless of scheduling. Submit hands over one task whose
// result the caller collects later (a fleet device's job).
//
// Distinct from actor::ThreadPoolContext on purpose: the actor context is a
// fire-and-forget task executor for message-driven actors; this pool is a
// synchronous fork-join primitive for bulk numeric work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fl::common {

class ThreadPool {
  struct Submitted;  // a Submit()ted task's shared state (below)

 public:
  // Spawns `threads` workers (0 is allowed: ParallelFor then runs inline on
  // the calling thread, and Submit()ted tasks run in Handle::Wait).
  explicit ThreadPool(std::size_t threads);
  // Joins the workers once they have drained the queue; a Submit()ted task
  // whose handle was dropped is skipped, not run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Runs fn(i) for every i in [0, n) across the workers; the calling thread
  // participates too. Blocks until every iteration has finished. Iterations
  // are claimed dynamically, so callers that need determinism must make each
  // fn(i) independent of execution order (see simulation_runner's fixed
  // shard-merge). If an iteration throws, remaining unclaimed iterations are
  // skipped and the first exception is rethrown here.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  // One Submit()ted task. Whoever claims it first runs it: a worker, or the
  // thread that calls Wait(). Move-only; a default-constructed handle holds
  // no task.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&&) noexcept = default;
    Handle& operator=(Handle&& other) noexcept;
    // Dropping an unclaimed task cancels it without blocking; a claimed one
    // runs to completion on its worker.
    ~Handle() { Cancel(); }

    // Runs the task on the calling thread if no worker has claimed it yet,
    // else runs other queued pool tasks until its worker finishes, and
    // blocks only when the queue is empty; the handle is empty afterwards.
    // Rethrows what the task threw. Returns at once on an empty handle.
    // Must not race the pool's destruction.
    void Wait();

   private:
    friend class ThreadPool;
    explicit Handle(std::shared_ptr<Submitted> state)
        : state_(std::move(state)) {}
    void Cancel();
    std::shared_ptr<Submitted> state_;
  };

  // Queues `task` for a worker and returns at once. The task must own what
  // it reads and writes (say, a shared_ptr to its inputs and result): its
  // handle may be dropped, or the pool destroyed, before it runs.
  Handle Submit(std::function<void()> task);

  // Observer for queue wait: called once per pool task ParallelFor or
  // Submit enqueues, with the microseconds between enqueue and the moment a
  // worker dequeued it (telemetry feeds this into its thread-pool queue-wait
  // histogram). Not synchronized against in-flight ParallelFor or Submit
  // calls — install it while the pool is quiescent (right after
  // construction). The observer itself may be invoked from several workers
  // concurrently. Null (the default) costs one branch per enqueue.
  void SetQueueWaitObserver(std::function<void(std::int64_t)> observer) {
    queue_wait_observer_ = std::move(observer);
  }

 private:
  struct ForState {
    std::mutex mu;
    std::condition_variable done_cv;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;       // next unclaimed iteration
    std::size_t in_flight = 0;  // claimed but not yet finished
    bool stop = false;          // set on first exception
    std::exception_ptr error;
  };

  // A Submit()ted task and who has it. A worker and Handle::Wait race to
  // move it from kQueued to kRunning; Handle's destructor moves an
  // unclaimed task straight to kDone.
  struct Submitted {
    enum class Stage { kQueued, kRunning, kDone };
    std::mutex mu;
    std::condition_variable done_cv;
    Stage stage = Stage::kQueued;
    std::function<void()> task;  // released once claimed or cancelled
    std::exception_ptr error;
    ThreadPool* pool = nullptr;  // whose queue Wait() helps drain
  };

  static void RunIterations(ForState& s);
  // Runs the task if it is still queued; returns once it has run here or
  // someone else has it.
  static void RunIfUnclaimed(Submitted& s);
  // Appends to the worker queue, timing the wait if an observer is set.
  // Caller holds queue_mu_.
  void EnqueueLocked(std::function<void()> task);
  // Pops and runs one queued task on the calling thread; false when the
  // queue is empty.
  bool RunOneQueued();
  void WorkerLoop();

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::queue<std::function<void()>> tasks_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  std::function<void(std::int64_t)> queue_wait_observer_;
};

}  // namespace fl::common
