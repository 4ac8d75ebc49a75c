#include "core/threadpool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#include "core/error.hpp"
#include "core/metrics_registry.hpp"
#include "core/trace.hpp"

namespace d500 {

namespace {

int env_thread_count() {
  if (const char* v = std::getenv("D500_THREADS")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n >= 1) return static_cast<int>(std::min(n, 1024L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Histogram& queue_wait_histogram() {
  static Histogram& h =
      MetricsRegistry::instance().histogram("pool.queue_wait_ns");
  return h;
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(env_thread_count());
  return pool;
}

ThreadPool::ThreadPool(int threads) : ring_(64) { reset(threads); }

ThreadPool::~ThreadPool() { reset(1); }  // joins every worker

void ThreadPool::reset(int threads) {
  D500_CHECK_MSG(threads >= 1, "thread pool needs >= 1 thread");
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  {
    std::lock_guard lock(mu_);
    stopping_ = false;
    head_ = size_ = 0;
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  // threads counts the calling thread; workers are the rest. Wait until all
  // are up, so none does its one-time setup inside a later step.
  Latch started(threads - 1);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    workers_.emplace_back([this, &started] {
      if (metrics_enabled()) queue_wait_histogram().prepare_thread();
      count_down(started);
      serve(nullptr, /*run_jobs=*/true);
    });
  wait(started, /*run_jobs=*/false);
}

void ThreadPool::submit(JobFn fn, void* ctx, std::int64_t arg, Latch* latch,
                        int copies) {
  // Stamp the enqueue time only when someone will look at it: the
  // dequeue side samples "pool.queue_wait_ns" from the delta.
  const std::int64_t enq = metrics_enabled() ? metrics_detail::now_ns() : 0;
  bool wake_one;
  {
    std::lock_guard lock(mu_);
    // A thread that waits without running jobs would swallow the single
    // wake-up meant for a worker.
    wake_one = copies == 1 && sleepers_ == 0;
    if (latch) latch->count_.fetch_add(copies, std::memory_order_relaxed);
    for (int i = 0; i < copies; ++i) {
      if (size_ == ring_.size()) {
        // A new high-water mark: double the ring, unrolled from head_.
        std::vector<Job> bigger(ring_.size() * 2);
        for (std::size_t k = 0; k < size_; ++k) bigger[k] = slot(k);
        ring_.swap(bigger);
        head_ = 0;
      }
      slot(size_++) = Job{fn, ctx, arg, latch, enq};
    }
  }
  wake_one ? cv_.notify_one() : cv_.notify_all();
}

void ThreadPool::retract(const void* ctx) {
  std::unique_lock lock(mu_);
  bool zero = false;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < size_; ++k) {
    const Job job = slot(k);
    if (job.ctx != ctx) {
      slot(kept++) = job;
    } else if (job.latch) {
      zero |= job.latch->count_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }
  }
  size_ = kept;
  lock.unlock();
  if (zero) cv_.notify_all();
}

void ThreadPool::count_down(Latch& latch) {
  std::unique_lock lock(mu_);
  if (latch.count_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  lock.unlock();  // first, so the woken waiters do not block on mu_ again
  cv_.notify_all();
}

void ThreadPool::wait(Latch& latch, bool run_jobs) {
  if (!latch.done()) serve(&latch, run_jobs);
}

void ThreadPool::serve(Latch* until, bool run_jobs) {
  std::unique_lock lock(mu_);
  while (until ? until->count_.load(std::memory_order_relaxed) != 0
               : !stopping_) {
    if (!run_jobs || size_ == 0) {
      TraceSpan idle("threadpool", "idle");
      sleepers_ += !run_jobs;
      cv_.wait(lock);
      sleepers_ -= !run_jobs;
      continue;
    }
    const Job job = slot(0);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    lock.unlock();
    if (job.enq_ns != 0 && metrics_enabled())
      queue_wait_histogram().record(
          static_cast<double>(metrics_detail::now_ns() - job.enq_ns));
    {
      D500_TRACE_SCOPE("threadpool", "task");
      job.fn(job.ctx, job.arg);
    }
    if (job.latch) count_down(*job.latch);
    lock.lock();
  }
  // Pass on a submit's wake-up that landed here but took no job.
  if (run_jobs && size_ > 0) cv_.notify_one();
}

namespace {

/// One parallel_for call, on the caller's stack. Chunks are claimed with
/// one atomic counter; the decomposition itself is fixed up front.
struct Loop {
  detail::ChunkFn body;
  void* fn;
  std::int64_t begin, end, grain, nchunks;
  std::atomic<std::int64_t> next{0};  // next unclaimed chunk
  std::atomic<bool> failed{false};
  std::exception_ptr error{};  // written once, by whoever set `failed`
};

/// Claims and runs chunks until none remain (or an error aborts the loop).
void run_chunks(void* ctx, std::int64_t) {
  Loop& loop = *static_cast<Loop*>(ctx);
  while (!loop.failed.load(std::memory_order_relaxed)) {
    const std::int64_t c = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= loop.nchunks) return;
    const std::int64_t lo = loop.begin + c * loop.grain;
    try {
      loop.body(loop.fn, lo, std::min(lo + loop.grain, loop.end));
    } catch (...) {
      if (!loop.failed.exchange(true)) loop.error = std::current_exception();
    }
  }
}

}  // namespace

namespace {

/// One on_every_thread call, on the caller's stack.
struct Broadcast {
  Broadcast(ThreadPool::JobFn f, void* c, int copies)
      : fn(f), ctx(c), started(copies) {}
  ThreadPool::JobFn fn;
  void* ctx;
  Latch started;  // copies not yet started
};

void run_broadcast_copy(void* ctx, std::int64_t) {
  Broadcast& b = *static_cast<Broadcast*>(ctx);
  b.fn(b.ctx, 0);
  ThreadPool& pool = ThreadPool::instance();
  pool.count_down(b.started);
  pool.wait(b.started, /*run_jobs=*/false);
}

/// Every ThreadScratch site's primer, with the site's ScratchUse.
struct ScratchSites {
  std::mutex mu;
  std::vector<std::pair<void (*)(), ScratchUse>> primers;  // guarded by mu
};

ScratchSites& scratch_sites() {
  static ScratchSites sites;
  return sites;
}

}  // namespace

void ThreadPool::on_every_thread(JobFn fn, void* ctx) {
  const int copies = num_threads() - 1;
  Broadcast b(fn, ctx, copies);
  Latch done;
  if (copies > 0) submit(&run_broadcast_copy, &b, 0, &done, copies);
  fn(ctx, 0);
  // Without running jobs: this thread taking a copy would leave a worker
  // without one.
  wait(done, /*run_jobs=*/false);
}

void detail::register_scratch_site(void (*prime)(), ScratchUse use) {
  ScratchSites& s = scratch_sites();
  std::lock_guard lock(s.mu);
  s.primers.emplace_back(prime, use);
}

void prime_thread_scratch(bool helper_sites_only) {
  if (metrics_enabled()) queue_wait_histogram().prepare_thread();
  ScratchSites& s = scratch_sites();
  std::lock_guard lock(s.mu);
  for (const auto& [prime, use] : s.primers)
    if (!helper_sites_only || use == ScratchUse::kHelper) prime();
}

void detail::parallel_for_impl(std::int64_t begin, std::int64_t end,
                               std::int64_t grain, ChunkFn body, void* fn) {
  // The template wrapper (threadpool.hpp) handled the empty and serial
  // cases; here the range is non-empty, grain >= 1, and the pool has
  // workers to fan out to.
  ThreadPool& pool = ThreadPool::instance();
  Loop loop{body, fn, begin, end, grain, (end - begin + grain - 1) / grain};
  Latch helpers;
  pool.submit(&run_chunks, &loop, 0, &helpers,
              static_cast<int>(std::min<std::int64_t>(
                  loop.nchunks - 1, pool.num_threads() - 1)));
  run_chunks(&loop, 0);
  // Every chunk is claimed. Helpers still queued would find nothing to do:
  // take them back, and wait only for the ones already running. Kernels
  // hand their helpers this thread's thread_local buffers, so no other job
  // may run here until those helpers are done.
  pool.retract(&loop);
  pool.wait(helpers, /*run_jobs=*/false);
  if (loop.error) std::rethrow_exception(loop.error);
}

void TaskGraph::reset(std::size_t n) {
  unblocks.assign(n, {});
  deps.assign(n, 0);
  pending.reserve(n);
  ready.reserve(n);
}

void TaskGraph::add_edge(int from, int to) {
  unblocks[static_cast<std::size_t>(from)].push_back(to);
  ++deps[static_cast<std::size_t>(to)];
}

namespace {

/// One run_task_graph call, on the caller's stack.
struct GraphRun {
  const std::vector<std::vector<int>>& unblocks;
  std::vector<int>& pending;  // decremented through std::atomic_ref
  detail::TaskFn body;
  void* fn;
  std::atomic<bool> failed{false};
  std::exception_ptr error{};  // written once, by whoever set `failed`
  Latch tasks{0};            // queued or running tasks
};

void run_graph_task(void* ctx, std::int64_t arg) {
  GraphRun& g = *static_cast<GraphRun*>(ctx);
  const auto i = static_cast<std::size_t>(arg);
  if (g.failed.load(std::memory_order_relaxed)) return;
  try {
    g.body(g.fn, static_cast<int>(i));
  } catch (...) {
    if (!g.failed.exchange(true)) g.error = std::current_exception();
    return;
  }
  // Successors are counted into g.tasks before this task is counted out,
  // so the latch cannot reach zero while work remains.
  for (int c : g.unblocks[i])
    if (std::atomic_ref<int>(g.pending[static_cast<std::size_t>(c)])
            .fetch_sub(1, std::memory_order_acq_rel) == 1)
      ThreadPool::instance().submit(&run_graph_task, &g, c, &g.tasks);
}

}  // namespace

void detail::run_task_graph_impl(TaskGraph& g, TaskFn body, void* fn) {
  const std::size_t n = g.deps.size();
  D500_CHECK_MSG(g.unblocks.size() == n,
                 "run_task_graph: unblocks/deps size mismatch");
  if (n == 0) return;

  // Both scratch vectors keep their capacity across runs.
  g.pending.assign(g.deps.begin(), g.deps.end());
  g.ready.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (g.deps[i] == 0) g.ready.push_back(static_cast<int>(i));

  ThreadPool& pool = ThreadPool::instance();
  if (pool.num_threads() == 1) {
    // Serial path: FIFO over ready tasks, seeded in index order — a fixed,
    // deterministic topological schedule.
    for (std::size_t k = 0; k < g.ready.size(); ++k) {
      const int i = g.ready[k];
      body(fn, i);
      for (int c : g.unblocks[static_cast<std::size_t>(i)])
        if (--g.pending[static_cast<std::size_t>(c)] == 0) g.ready.push_back(c);
    }
    D500_CHECK_MSG(g.ready.size() == n,
                   "run_task_graph: dependency graph stalled (cycle?)");
    return;
  }

  GraphRun run{g.unblocks, g.pending, body, fn};
  for (int r : g.ready) pool.submit(&run_graph_task, &run, r, &run.tasks);
  // The calling thread works the pool queue (graph tasks and any nested
  // parallel_for helpers) until nothing is queued or running.
  pool.wait(run.tasks);
  if (run.error) std::rethrow_exception(run.error);
  // With no error, a task that never ran is one still waiting on a count.
  D500_CHECK_MSG(std::none_of(g.pending.begin(), g.pending.end(),
                              [](int d) { return d > 0; }),
                 "run_task_graph: dependency graph stalled (cycle?)");
}

}  // namespace d500
