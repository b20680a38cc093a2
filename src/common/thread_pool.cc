#include "src/common/thread_pool.h"

#include <chrono>
#include <memory>

namespace fl::common {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown with nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

bool ThreadPool::RunOneQueued() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::EnqueueLocked(std::function<void()> task) {
  if (!queue_wait_observer_) {
    tasks_.push(std::move(task));
    return;
  }
  // Queue-wait telemetry: time from enqueue to a worker picking the task
  // up. A task that turns out to have nothing left to do still reports —
  // that delay is real scheduling latency.
  const auto enqueued = std::chrono::steady_clock::now();
  tasks_.push([this, enqueued, task = std::move(task)] {
    queue_wait_observer_(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - enqueued)
                             .count());
    task();
  });
}

ThreadPool::Handle ThreadPool::Submit(std::function<void()> task) {
  auto state = std::make_shared<Submitted>();
  state->task = std::move(task);
  if (!workers_.empty()) {
    state->pool = this;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      EnqueueLocked([state] { RunIfUnclaimed(*state); });
    }
    queue_cv_.notify_one();
  }
  return Handle(std::move(state));
}

void ThreadPool::RunIfUnclaimed(Submitted& s) {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.stage != Submitted::Stage::kQueued) return;
    s.stage = Submitted::Stage::kRunning;
    task = std::move(s.task);
  }
  std::exception_ptr error;
  try {
    task();
  } catch (...) {
    error = std::current_exception();
  }
  task = nullptr;  // the task's captures die on the thread that ran it
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.error = error;
    s.stage = Submitted::Stage::kDone;
  }
  s.done_cv.notify_all();
}

ThreadPool::Handle& ThreadPool::Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    Cancel();
    state_ = std::move(other.state_);
  }
  return *this;
}

void ThreadPool::Handle::Cancel() {
  if (state_ == nullptr) return;
  std::function<void()> dropped;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    if (state_->stage == Submitted::Stage::kQueued) {
      state_->stage = Submitted::Stage::kDone;
      dropped = std::move(state_->task);
    }
  }
  state_.reset();
}

void ThreadPool::Handle::Wait() {
  if (state_ == nullptr) return;
  const std::shared_ptr<Submitted> s = std::move(state_);
  RunIfUnclaimed(*s);
  // A worker has it: rather than sleep, take on work the workers have not
  // reached yet.
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(s->mu);
      if (s->stage == Submitted::Stage::kDone) break;
    }
    if (s->pool == nullptr || !s->pool->RunOneQueued()) break;
  }
  std::unique_lock<std::mutex> lk(s->mu);
  s->done_cv.wait(lk, [&] { return s->stage == Submitted::Stage::kDone; });
  if (s->error) std::rethrow_exception(s->error);
}

void ThreadPool::RunIterations(ForState& s) {
  for (;;) {
    std::size_t i;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      if (s.stop || s.next >= s.n) return;
      i = s.next++;
      ++s.in_flight;
    }
    try {
      (*s.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(s.mu);
      if (!s.error) s.error = std::current_exception();
      s.stop = true;
    }
    {
      std::lock_guard<std::mutex> lk(s.mu);
      --s.in_flight;
      if (s.in_flight == 0 && (s.stop || s.next >= s.n)) {
        s.done_cv.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared state is kept alive by each queued helper: a helper may start
  // after the caller has already drained the loop and returned.
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;

  const std::size_t helpers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    for (std::size_t h = 0; h < helpers; ++h) {
      EnqueueLocked([state] { RunIterations(*state); });
    }
  }
  queue_cv_.notify_all();

  RunIterations(*state);

  std::unique_lock<std::mutex> lk(state->mu);
  state->done_cv.wait(lk, [&] {
    return state->in_flight == 0 && (state->stop || state->next >= state->n);
  });
  // All fn(i) calls have returned; late-starting helpers will see next >= n
  // and exit without touching fn (which dies with this frame).
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace fl::common
