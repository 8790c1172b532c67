#include "exec/pool.hpp"

#include <stdexcept>

namespace pmo::exec {

namespace {

// True while the current thread is executing a parallel_for task (or the
// caller's inline share of one) — the nesting guard is process-wide on
// purpose: a task of pool A fanning out on pool B deadlocks just as
// easily as self-nesting, so both are rejected.
thread_local bool t_in_parallel_for = false;

struct NestGuard {
  NestGuard() { t_in_parallel_for = true; }
  ~NestGuard() { t_in_parallel_for = false; }
};

}  // namespace

int hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool in_parallel_task() noexcept { return t_in_parallel_for; }

ThreadPool::ThreadPool(int threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(static_cast<std::size_t>(threads > 0 ? threads - 1 : 0));
  for (int w = 1; w < threads; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::drain(const IndexFn& fn, std::size_t end) {
  NestGuard guard;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      // Cancel: park the cursor past the end so no further index is
      // claimed. In-flight invocations on other threads finish normally.
      next_.store(end, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    const IndexFn* fn = nullptr;
    std::size_t end = 0;
    {
      std::unique_lock lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      end = end_;
    }
    drain(*fn, end);
    {
      std::lock_guard lk(mu_);
      if (--active_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::run_tasks(const std::vector<Task>& tasks) {
  parallel_for(tasks.size(), [&tasks](std::size_t i) { tasks[i](); });
}

void ThreadPool::parallel_for(std::size_t n, const IndexFn& fn) {
  if (t_in_parallel_for) {
    throw std::logic_error(
        "exec::ThreadPool::parallel_for called from inside a task "
        "(nested parallelism is rejected; restructure into one loop)");
  }
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline: no dispatch, exceptions propagate directly.
    NestGuard guard;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard lk(mu_);
    fn_ = &fn;
    end_ = n;
    next_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_work_.notify_all();
  drain(fn, n);  // the caller works too
  std::exception_ptr err;
  {
    std::unique_lock lk(mu_);
    cv_done_.wait(lk, [&] { return active_ == 0; });
    fn_ = nullptr;
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace pmo::exec
