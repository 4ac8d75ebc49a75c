// Shared thread-pool runtime: the single owner of all compute threads.
//
// The paper's executors (§IV-D) assume the host engine exploits hardware
// parallelism; this subsystem provides it without sacrificing the
// reproducibility pillar. One persistent pool serves every parallel site —
// kernels (intra-op), graph executors (inter-op), and the data pipeline —
// replacing the former ad-hoc OpenMP regions that forked a fresh team per
// call and composed badly with the PrefetchLoader worker.
//
// Determinism contract: parallel work is decomposed as a pure function of
// the *problem* (range and grain; dependency structure), never of the
// thread count. Chunks write disjoint state and reductions combine chunk
// partials in fixed chunk order, so results are bit-identical at any
// D500_THREADS setting — including fully serial execution.
//
// Synchronization: the pool owns the only mutex and condition variable.
// Every "wait until done" is a Latch counted down under that lock, so no
// completion can fall between a waiter's check and its sleep.
//
// Knob: D500_THREADS = total compute threads (workers + the calling
// thread). Default: hardware concurrency. 1 = fully serial, no workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace d500 {

/// A count of outstanding work, changed only by the pool under its lock
/// (submit counts jobs in, count_down counts one out) and awaited with
/// ThreadPool::wait. Whoever counts it to zero touches it no further, so a
/// latch can live on its waiter's stack.
class Latch {
 public:
  explicit Latch(int count = 0) : count_(count) {}
  Latch(const Latch&) = delete;  // queued jobs hold its address
  Latch& operator=(const Latch&) = delete;

  /// Lock-free completion poll: true once the count reached zero.
  bool done() const { return count_.load(std::memory_order_acquire) == 0; }

 private:
  friend class ThreadPool;
  std::atomic<int> count_;
};

class ThreadPool {
 public:
  /// A queued job runs fn(ctx, arg). The pool owns nothing: the submitter
  /// keeps `ctx` alive until the job has run or has been retracted.
  using JobFn = void (*)(void* ctx, std::int64_t arg);

  /// The process-wide pool, created on first use with D500_THREADS threads.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total compute threads: workers plus the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Tears down the workers and restarts the pool with `threads` total
  /// compute threads (>= 1). Test hook backing the determinism contract
  /// (results must not change with the thread count). Must not be called
  /// while parallel work is in flight.
  void reset(int threads);

  /// Queues `copies` jobs fn(ctx, arg), each counted into `latch` (if any)
  /// now and out when it returns or is retracted. Jobs must not throw, and
  /// must block only through wait().
  void submit(JobFn fn, void* ctx, std::int64_t arg, Latch* latch = nullptr,
              int copies = 1);

  /// Removes every queued, not yet started job whose context is `ctx`,
  /// counting each out of its latch. Jobs already running are untouched.
  void retract(const void* ctx);

  /// Counts one out of `latch`; at zero, wakes every sleeper.
  void count_down(Latch& latch);

  /// Blocks until `latch` reads zero, running queued jobs meanwhile if
  /// `run_jobs` (so a pool without workers still makes progress). A caller
  /// whose thread_local scratch is still in use by running helpers passes
  /// false: a job run on this thread could reuse that scratch.
  void wait(Latch& latch, bool run_jobs = true);

 private:
  explicit ThreadPool(int threads);
  /// The job loop of wait() and, with until == nullptr, of every worker.
  void serve(Latch* until, bool run_jobs);

  /// Queue entry, plus its enqueue timestamp feeding the
  /// "pool.queue_wait_ns" histogram (0 when metrics are off — not sampled).
  struct Job {
    JobFn fn;
    void* ctx;
    std::int64_t arg;
    Latch* latch;
    std::int64_t enq_ns;
  };
  // The queue: a grow-only ring (capacity a power of two). mu_ held.
  Job& slot(std::size_t k) { return ring_[(head_ + k) & (ring_.size() - 1)]; }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Job> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  int sleepers_ = 0;  // threads in wait(run_jobs = false) on cv_
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

namespace detail {
/// Type-erased chunk body: calls (*static_cast<F*>(fn))(lo, hi).
using ChunkFn = void (*)(void* fn, std::int64_t lo, std::int64_t hi);

template <typename F>
void call_chunk(void* fn, std::int64_t lo, std::int64_t hi) {
  (*static_cast<F*>(fn))(lo, hi);
}

/// Multi-chunk, multi-thread body of parallel_for (threadpool.cpp).
void parallel_for_impl(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       ChunkFn body, void* fn);
}  // namespace detail

/// Deterministic parallel loop over [begin, end). The range is cut into
/// ceil(range/grain) chunks of `grain` iterations (last chunk short) — a
/// pure function of the range, never of the thread count — and
/// fn(chunk_begin, chunk_end) runs exactly once per chunk, possibly
/// concurrently, with the calling thread participating. The caller must
/// ensure chunks touch disjoint state; combine any per-chunk partials in
/// chunk order afterwards to stay deterministic. The first exception thrown
/// by fn is rethrown on the calling thread after in-flight chunks drain.
///
/// The functor is passed by address through a trampoline, never converted
/// to std::function, and the loop's state lives on the caller's stack: a
/// warm fan-out allocates nothing at any thread count.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  if (end <= begin) return;
  const std::int64_t g = grain < 1 ? 1 : grain;
  const std::int64_t nchunks = (end - begin + g - 1) / g;
  if (nchunks == 1 || ThreadPool::instance().num_threads() == 1) {
    // Serial path: identical chunk decomposition, executed in order.
    for (std::int64_t c = 0; c < nchunks; ++c) {
      const std::int64_t lo = begin + c * g;
      const std::int64_t hi = lo + g < end ? lo + g : end;
      fn(lo, hi);
    }
    return;
  }
  using F = std::remove_reference_t<Fn>;
  detail::parallel_for_impl(
      begin, end, g, &detail::call_chunk<F>,
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

/// Runs tasks 0..deps.size()-1 on the pool respecting a dependency DAG:
/// deps[i] = number of prerequisites of task i; unblocks[i] lists the tasks
/// whose dependency count drops when i completes (one entry per edge).
/// Ready tasks are scheduled concurrently (inter-op parallelism); with a
/// single-thread pool, tasks run inline in deterministic FIFO order. The
/// first exception aborts scheduling of further tasks and is rethrown after
/// in-flight tasks drain. Throws Error on a stalled (cyclic) graph.
void run_task_graph(const std::vector<std::vector<int>>& unblocks,
                    std::vector<int> deps,
                    const std::function<void(int)>& fn);

}  // namespace d500
