// Minimal fixed-size thread pool for data-parallel index loops.
//
// The paper's §5.1 evaluation names a "multi-threaded octree"; this is the
// repo's execution layer for that: a fixed worker team created once, one
// `parallel_for` primitive over [0, n) index ranges, and first-exception
// propagation. Deliberately not a task graph — no futures, no work
// stealing, no nesting. Deterministic decomposition is the caller's
// contract: indices are handed out dynamically, so a correct caller
// writes results only to per-index (or per-chunk) slots and never lets
// the outcome depend on which worker ran an index or in what order.
// ClusterSim (concurrent rank replicas) and the droplet solver's chunked
// stencil gather (amr/mesh_backend.hpp) are the two in-tree users; both
// keep their results bit-identical across thread counts by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pmo::exec {

/// Usable hardware concurrency, always >= 1 (hardware_concurrency() is
/// allowed to report 0 when unknown).
int hardware_threads() noexcept;

/// True while the calling thread is executing a parallel_for task (or the
/// caller's inline share of one). Lets layered components that would fan
/// out on a pool (the droplet solve's chunked gather inside a cluster
/// lane) detect that they are already inside a task and fall back to
/// inline execution instead of tripping the nesting guard.
bool in_parallel_task() noexcept;

class ThreadPool {
 public:
  /// `threads` is the TOTAL concurrency of parallel_for — the calling
  /// thread participates in every loop, so a pool of `threads` spawns
  /// `threads - 1` workers. threads <= 1 spawns none and runs every loop
  /// inline; threads == 0 means hardware_threads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the participating caller).
  int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  using IndexFn = std::function<void(std::size_t)>;

  /// Runs fn(i) for every i in [0, n) and blocks until all of them
  /// finished. Indices are claimed atomically one at a time (dynamic
  /// scheduling; cheap relative to the coarse-grained chunks this repo
  /// feeds it). If any invocation throws, remaining indices are
  /// abandoned, every worker quiesces, and the FIRST captured exception
  /// is rethrown on the calling thread; the pool stays usable. Calling
  /// parallel_for from inside a task (any pool) throws std::logic_error —
  /// nesting is rejected, not silently serialized.
  void parallel_for(std::size_t n, const IndexFn& fn);

  using Task = std::function<void()>;

  /// Runs each task exactly once, concurrently across the pool, and
  /// blocks until all finished (parallel_for over the task list). This is
  /// the serve pattern: task 0 is the droplet mutator, tasks 1..N are
  /// reader lanes querying pinned snapshots. Tasks must not wait on each
  /// other — with one thread they run sequentially in index order, so any
  /// cross-task wait deadlocks. Layered code that would fan out again
  /// (persist's merge, the solver's chunked sweep) detects
  /// in_parallel_task() and runs inline instead.
  void run_tasks(const std::vector<Task>& tasks);

 private:
  void worker_main();
  /// Claims and runs indices until the job is exhausted or cancelled.
  void drain(const IndexFn& fn, std::size_t end);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  // Job slot, all guarded by mu_ (workers copy what they need while
  // holding the lock; end_ is immutable for the job's duration).
  const IndexFn* fn_ = nullptr;
  std::size_t end_ = 0;
  std::uint64_t generation_ = 0;
  int active_ = 0;  ///< workers that have not finished the current job
  bool stop_ = false;
  std::exception_ptr first_error_;
  // The only cross-thread hot path: next index to claim.
  std::atomic<std::size_t> next_{0};
};

}  // namespace pmo::exec
