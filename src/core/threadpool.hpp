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

  /// Counts reset() calls. The workers of a new generation start with
  /// empty thread_local scratch, so whoever primed the old ones compares
  /// this to know when to prime again.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

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

  /// Runs fn(ctx, 0) once on every pool thread, the caller included, and
  /// returns when all have. Each worker takes exactly one copy: a copy
  /// holds its worker until every copy has started. Broadcasts from
  /// several threads at once do not interleave: each queues its copies in
  /// one go, and workers take jobs in queue order.
  void on_every_thread(JobFn fn, void* ctx);

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
  std::atomic<std::uint64_t> generation_{0};
};

/// Who asks a ThreadScratch site for its buffer.
///   kCaller — the thread running the kernel, before it fans out (workers
///             get the caller's pointer). Only a thread that runs whole
///             kernels needs it: with a serial schedule, that is always
///             the stepping thread.
///   kHelper — every thread that runs a parallel_for chunk of the kernel,
///             each for a buffer of its own. Which pool threads those are
///             changes from call to call, at any schedule.
enum class ScratchUse { kCaller, kHelper };

namespace detail {
/// Adds a ThreadScratch site's primer to the list prime_thread_scratch runs.
void register_scratch_site(void (*prime)(), ScratchUse use);
}  // namespace detail

/// Grows the calling thread's buffer at every ThreadScratch site (or, with
/// `helper_sites_only`, at every kHelper site) to the largest size any
/// thread has asked of that site, and allocates the thread's shard of the
/// queue-wait histogram that serving a pool job records into.
void prime_thread_scratch(bool helper_sites_only = false);

/// Grow-only per-thread kernel scratch for the call site named by the tag
/// type `Site`: get(n) returns this thread's buffer of at least n elements,
/// allocating only to grow it. The site keeps the largest n any thread has
/// asked for, so prime_thread_scratch() can grow a thread ahead of time:
/// an inter-op schedule moves kernels between threads from step to step,
/// and a kHelper site is used by whichever threads claim chunks. Hand pool
/// workers the caller's pointer from a kCaller site: get() inside a
/// parallel_for body returns the executing worker's own buffer.
template <typename T, typename Site, ScratchUse Use = ScratchUse::kCaller>
class ThreadScratch {
 public:
  static T* get(std::size_t n) {
    [[maybe_unused]] static const bool registered =
        (detail::register_scratch_site(&prime, Use), true);
    std::size_t high = high_.load();
    while (high < n && !high_.compare_exchange_weak(high, n)) {
    }
    return grow(n);
  }

 private:
  static T* grow(std::size_t n) {
    thread_local std::vector<T> buf;
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }
  static void prime() { grow(high_.load()); }

  static inline std::atomic<std::size_t> high_{0};
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

/// A dependency DAG for run_task_graph: deps[i] = number of prerequisites
/// of task i; unblocks[i] lists the tasks whose count drops when i
/// completes (one entry per edge). reset() also sizes the scratch a run
/// works in, so running a graph built once allocates nothing.
struct TaskGraph {
  std::vector<std::vector<int>> unblocks;
  std::vector<int> deps;
  std::vector<int> pending;  // per-run dependency counts
  std::vector<int> ready;    // per-run FIFO of the serial path

  /// `n` tasks, no edges.
  void reset(std::size_t n);
  /// Task `to` waits for task `from`.
  void add_edge(int from, int to);
};

namespace detail {
/// Type-erased task body: calls (*static_cast<F*>(fn))(task).
using TaskFn = void (*)(void* fn, int task);

template <typename F>
void call_task(void* fn, int task) {
  (*static_cast<F*>(fn))(task);
}

void run_task_graph_impl(TaskGraph& g, TaskFn body, void* fn);
}  // namespace detail

/// Runs every task of `g` once on the pool, each after its prerequisites:
/// ready tasks are scheduled concurrently (inter-op parallelism); with a
/// single-thread pool, tasks run inline in deterministic FIFO order. The
/// first exception aborts scheduling of further tasks and is rethrown after
/// in-flight tasks drain. Throws Error on a stalled (cyclic) graph. Like
/// parallel_for, `fn` is reached through a trampoline.
template <typename Fn>
void run_task_graph(TaskGraph& g, Fn&& fn) {
  using F = std::remove_reference_t<Fn>;
  detail::run_task_graph_impl(
      g, &detail::call_task<F>,
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

}  // namespace d500
