// Inference serving tests: bucket-spec parsing, the AdaptiveBatcher
// controller, RequestQueue launch conditions (target fill, deadline expiry,
// close-flush), the shape-bucketed plan cache (hit/miss bookkeeping,
// padding at bucket boundaries), the headline determinism contract — a
// request's reply is bitwise identical solo vs. coalesced into any batch —
// zero heap allocations on the warm serving path (counting global
// allocator, as in test_memory_plan), and SessionPool end-to-end under
// every policy including shutdown with in-flight requests. The suite
// carries the `threads` label so it runs under D500_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "models/builders.hpp"
#include "serve/loadgen.hpp"
#include "serve/pool.hpp"
#include "serve/session.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator (binary-wide, same pattern as test_memory_plan):
// the zero-allocation test snapshots it around warm run_batch calls.

namespace {
std::atomic<std::int64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
// The nothrow forms too (std::stable_sort's temporary buffer comes from
// one): left to the runtime, a sanitizer's own nothrow new would pair
// with the free below and be reported as an alloc-dealloc mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, static_cast<std::size_t>(a));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, static_cast<std::size_t>(a));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace d500::serve {
namespace {

constexpr std::int64_t kInDim = 12;
constexpr std::int64_t kClasses = 5;

Model test_model(std::uint64_t seed = 31) {
  return models::mlp(1, kInDim, {16, 8}, kClasses, seed, /*with_loss=*/false);
}

/// `n` random input rows of kInDim floats.
std::vector<float> make_inputs(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n * kInDim));
  for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

/// Requests i.. over `inputs`, replies into `outputs` (caller-sized).
std::vector<InferenceSession::Request> make_requests(
    const std::vector<float>& inputs, std::vector<float>* outputs) {
  const auto n = static_cast<std::int64_t>(inputs.size()) / kInDim;
  outputs->assign(static_cast<std::size_t>(n * kClasses), 0.0f);
  std::vector<InferenceSession::Request> reqs(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    reqs[static_cast<std::size_t>(i)].input = inputs.data() + i * kInDim;
    reqs[static_cast<std::size_t>(i)].output = outputs->data() + i * kClasses;
  }
  return reqs;
}

// ---------------------------------------------------------------------------
// parse_buckets

TEST(ServeBuckets, ParsesSortsAndDedupes) {
  EXPECT_EQ(parse_buckets("8,2,1,4,2"),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(ServeBuckets, EnforcesLeadingOne) {
  EXPECT_EQ(parse_buckets("4,16"), (std::vector<std::int64_t>{1, 4, 16}));
}

TEST(ServeBuckets, InvalidSpecFallsBackToDefault) {
  const std::vector<std::int64_t> def{1, 2, 4, 8, 16, 32};
  EXPECT_EQ(parse_buckets(""), def);
  EXPECT_EQ(parse_buckets("banana"), def);
  EXPECT_EQ(parse_buckets("4,x,8"), def);
  EXPECT_EQ(parse_buckets("0,-3"), def);
}

// ---------------------------------------------------------------------------
// AdaptiveBatcher

TEST(ServeAdaptiveBatcher, WidensOnBacklogNarrowsOnUnderfilledExpiry) {
  AdaptiveBatcher b(16);
  EXPECT_EQ(b.target(), 1);
  b.observe(/*launched=*/1, /*backlog=*/4, /*expired=*/false);
  EXPECT_EQ(b.target(), 2);
  b.observe(2, 8, false);
  EXPECT_EQ(b.target(), 4);
  b.observe(4, 100, false);
  b.observe(8, 100, false);
  b.observe(16, 100, false);
  EXPECT_EQ(b.target(), 16);  // clamped at max

  // Load drops: deadline launches go out far under target -> halve.
  b.observe(/*launched=*/2, /*backlog=*/0, /*expired=*/true);
  EXPECT_EQ(b.target(), 8);
  b.observe(1, 0, true);
  b.observe(1, 0, true);
  b.observe(1, 0, true);
  EXPECT_EQ(b.target(), 1);  // floor
  // A well-filled expiry launch does not narrow.
  b.observe(1, 0, true);
  EXPECT_EQ(b.target(), 1);
}

// ---------------------------------------------------------------------------
// RequestQueue

TEST(ServeRequestQueue, TargetFillLaunchesWithoutDeadline) {
  RequestQueue q(64);
  InferenceSession::Request r[4];
  for (auto& x : r) {
    x.arrival_ns = serve_now_ns();
    ASSERT_TRUE(q.push(&x));
  }
  InferenceSession::Request* out[8] = {};
  bool expired = true;
  const std::size_t n = q.pop_batch(out, 8, /*target=*/4,
                                    /*deadline_ns=*/std::int64_t{1} << 60,
                                    &expired);
  EXPECT_EQ(n, 4u);
  EXPECT_FALSE(expired);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], &r[i]);  // FIFO
  EXPECT_EQ(q.depth(), 0);
}

TEST(ServeRequestQueue, DeadlineExpiryLaunchesPartialBatch) {
  RequestQueue q(64);
  InferenceSession::Request r;
  r.arrival_ns = serve_now_ns();
  ASSERT_TRUE(q.push(&r));
  InferenceSession::Request* out[8] = {};
  bool expired = false;
  const std::int64_t t0 = serve_now_ns();
  // Target 8 can never fill (only one request): must launch on the 2 ms
  // deadline instead of blocking.
  const std::size_t n =
      q.pop_batch(out, 8, /*target=*/8, /*deadline_ns=*/2000000, &expired);
  const std::int64_t waited = serve_now_ns() - t0;
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(expired);
  EXPECT_EQ(out[0], &r);
  EXPECT_GE(waited, 1000000);  // actually waited toward the deadline
}

TEST(ServeRequestQueue, CloseFlushesThenReturnsZero) {
  RequestQueue q(64);
  InferenceSession::Request r[3];
  for (auto& x : r) {
    x.arrival_ns = serve_now_ns();
    ASSERT_TRUE(q.push(&x));
  }
  q.close();
  EXPECT_FALSE(q.push(&r[0]));  // rejected after close
  InferenceSession::Request* out[8] = {};
  bool expired = false;
  // Close overrides an unreachable target: queued work flushes...
  EXPECT_EQ(q.pop_batch(out, 8, 32, std::int64_t{1} << 60, &expired), 3u);
  // ...and a drained closed queue reports end-of-stream.
  EXPECT_EQ(q.pop_batch(out, 8, 32, std::int64_t{1} << 60, &expired), 0u);
}

// ---------------------------------------------------------------------------
// InferenceSession: plan cache + padding

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::disable();
    Arena::instance().set_mode(ArenaMode::kArena);
    ThreadPool::instance().reset(2);
  }
};

TEST_F(ServingTest, BucketForSnapsUpToNearestPlan) {
  InferenceSession s(test_model(), {1, 2, 4, 8}, "t");
  EXPECT_EQ(s.bucket_for(1), 1);
  EXPECT_EQ(s.bucket_for(2), 2);
  EXPECT_EQ(s.bucket_for(3), 4);
  EXPECT_EQ(s.bucket_for(4), 4);
  EXPECT_EQ(s.bucket_for(5), 8);
  EXPECT_EQ(s.bucket_for(8), 8);
  EXPECT_EQ(s.max_batch(), 8);
}

TEST_F(ServingTest, PlanCachePrecompilesOncePerBucketAndNeverAgain) {
  InferenceSession s(test_model(), {1, 2, 4}, "t");
  EXPECT_EQ(s.plans_compiled(), 3);

  const std::vector<float> in = make_inputs(4, 5);
  std::vector<float> out;
  auto reqs = make_requests(in, &out);
  std::vector<InferenceSession::Request*> p;
  for (auto& r : reqs) p.push_back(&r);

  s.run_batch(p.data(), 1);  // exact bucket 1
  s.run_batch(p.data(), 3);  // padded into bucket 4
  s.run_batch(p.data(), 4);  // exact bucket 4
  s.run_batch(p.data(), 2);  // exact bucket 2
  EXPECT_EQ(s.plans_compiled(), 3);  // no new compiles after construction
  EXPECT_EQ(s.dispatches(0), 1);
  EXPECT_EQ(s.dispatches(1), 1);
  EXPECT_EQ(s.dispatches(2), 2);  // n=3 and n=4 both hit bucket 4
  EXPECT_EQ(s.padded_rows(), 1);  // only the n=3 launch padded (one row)
}

TEST_F(ServingTest, BatchedRepliesAreBitwiseIdenticalToSolo) {
  const Model m = test_model();
  const std::vector<std::int64_t> buckets{1, 2, 4, 8};
  const std::int64_t n = 8;
  const std::vector<float> in = make_inputs(n, 77);

  // Reference: every request served alone (exact bucket-1 plan).
  std::vector<float> solo_out;
  {
    InferenceSession solo(m, buckets, "solo");
    auto reqs = make_requests(in, &solo_out);
    for (auto& r : reqs) {
      InferenceSession::Request* p = &r;
      solo.run_batch(&p, 1);
    }
  }

  // Every coalesced size 2..8, including non-bucket sizes (3 pads into 4,
  // 5/6/7 into 8): each request's rows must match its solo run bit for bit.
  for (std::int64_t k = 2; k <= n; ++k) {
    InferenceSession s(m, buckets, "batched");
    std::vector<float> out;
    auto reqs = make_requests(in, &out);
    std::vector<InferenceSession::Request*> p;
    for (std::int64_t i = 0; i < k; ++i)
      p.push_back(&reqs[static_cast<std::size_t>(i)]);
    s.run_batch(p.data(), k);
    EXPECT_EQ(std::memcmp(out.data(), solo_out.data(),
                          static_cast<std::size_t>(k * kClasses) *
                              sizeof(float)),
              0)
        << "batch " << k << " diverged from solo replies";
    for (std::int64_t i = 0; i < k; ++i)
      EXPECT_TRUE(reqs[static_cast<std::size_t>(i)].done.load());
  }
}

TEST_F(ServingTest, StalePaddingFromPriorBatchesCannotLeakIntoReplies) {
  // Run a full batch first so the padding rows of the bucket-8 feed hold
  // real stale data, then serve fewer requests through the same plan.
  const Model m = test_model();
  InferenceSession s(m, {1, 8}, "stale");
  const std::vector<float> big = make_inputs(8, 123);
  std::vector<float> big_out;
  auto big_reqs = make_requests(big, &big_out);
  std::vector<InferenceSession::Request*> bp;
  for (auto& r : big_reqs) bp.push_back(&r);
  s.run_batch(bp.data(), 8);

  const std::vector<float> small = make_inputs(3, 321);
  std::vector<float> small_out;
  auto small_reqs = make_requests(small, &small_out);
  std::vector<InferenceSession::Request*> sp;
  for (auto& r : small_reqs) sp.push_back(&r);
  s.run_batch(sp.data(), 3);  // bucket 8, rows 3..7 are stale

  std::vector<float> ref_out;
  InferenceSession ref(m, {1, 8}, "ref");
  auto ref_reqs = make_requests(small, &ref_out);
  for (auto& r : ref_reqs) {
    InferenceSession::Request* p = &r;
    ref.run_batch(&p, 1);
  }
  EXPECT_EQ(std::memcmp(small_out.data(), ref_out.data(),
                        small_out.size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// The zero-allocation guarantee on the warm serving path.

TEST_F(ServingTest, WarmRunBatchDoesZeroHeapAllocations) {
  ThreadPool::instance().reset(1);
  InferenceSession s(test_model(), {1, 2, 4, 8}, "zeroalloc");
  const std::vector<float> in = make_inputs(8, 9);
  std::vector<float> out;
  auto reqs = make_requests(in, &out);
  std::vector<InferenceSession::Request*> p;
  for (auto& r : reqs) p.push_back(&r);

  // One pass over every bucket (and a padded size) to warm any remaining
  // lazy state beyond the constructor's warmup.
  for (const std::int64_t k : {1, 2, 3, 4, 8}) s.run_batch(p.data(), k);

  const std::int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 3; ++rep)
    for (const std::int64_t k : {1, 2, 3, 4, 8}) s.run_batch(p.data(), k);
  const std::int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << (after - before) << " heap allocations across warm serving batches";
}

// ---------------------------------------------------------------------------
// SessionPool end-to-end.

PoolOptions pool_opts(Policy policy, int sessions = 2,
                      std::int64_t max_batch = 8,
                      std::int64_t deadline_us = 2000) {
  PoolOptions o;
  o.sessions = sessions;
  o.policy = policy;
  o.max_batch = max_batch;
  o.deadline_us = deadline_us;
  o.buckets = {1, 2, 4, 8};
  return o;
}

TEST_F(ServingTest, PoolServesEveryPolicyBitwiseEqualToSolo) {
  const Model m = test_model();
  const std::int64_t n = 64;
  const std::vector<float> in = make_inputs(n, 2024);

  std::vector<float> ref_out;
  {
    InferenceSession solo(m, {1, 2, 4, 8}, "ref");
    auto reqs = make_requests(in, &ref_out);
    for (auto& r : reqs) {
      InferenceSession::Request* p = &r;
      solo.run_batch(&p, 1);
    }
  }

  for (const Policy policy : {Policy::kNone, Policy::kFixed, Policy::kDeadline,
                              Policy::kAdaptive}) {
    SessionPool pool(m, pool_opts(policy));
    pool.start();
    std::vector<float> out;
    auto reqs = make_requests(in, &out);
    for (auto& r : reqs) ASSERT_TRUE(pool.submit(&r));
    pool.shutdown();  // drains in-flight + queued, joins workers
    for (auto& r : reqs) pool.wait(r);  // all done after drain
    EXPECT_EQ(std::memcmp(out.data(), ref_out.data(),
                          out.size() * sizeof(float)),
              0)
        << "policy " << policy_name(policy) << " diverged from solo replies";
    const SessionPool::Stats st = pool.stats();
    EXPECT_EQ(st.requests, n);
    EXPECT_GE(st.batches, 1);
    if (policy == Policy::kNone) EXPECT_EQ(st.max_batch_launched, 1);
  }
}

TEST_F(ServingTest, DeadlinePolicyLaunchesPartialBatchWithoutMoreArrivals) {
  SessionPool pool(test_model(),
                   pool_opts(Policy::kDeadline, /*sessions=*/1,
                             /*max_batch=*/8, /*deadline_us=*/1500));
  pool.start();
  const std::vector<float> in = make_inputs(1, 7);
  std::vector<float> out;
  auto reqs = make_requests(in, &out);
  ASSERT_TRUE(pool.submit(&reqs[0]));
  // No further arrivals: only the deadline can launch this request.
  pool.wait(reqs[0]);
  EXPECT_TRUE(reqs[0].done.load());
  const SessionPool::Stats st = pool.stats();
  EXPECT_GE(st.deadline_launches, 1);
  pool.shutdown();
}

TEST_F(ServingTest, ShutdownDrainsInFlightRequestsAndRejectsNew) {
  // Fixed policy with a batch the submissions cannot fill: every request
  // is still queued (in flight) when shutdown starts, and the drain must
  // flush them all. Submitters race shutdown from several threads to give
  // TSan real interleavings.
  const Model m = test_model();
  SessionPool pool(m, pool_opts(Policy::kFixed, 2, 8));
  pool.start();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;  // 20 total: never a multiple of 8 in queue
  const std::vector<float> in = make_inputs(kThreads * kPerThread, 55);
  std::vector<float> out;
  auto reqs = make_requests(in, &out);
  std::atomic<int> accepted{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (pool.submit(&reqs[static_cast<std::size_t>(t * kPerThread + i)]))
          accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  pool.shutdown();
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);
  for (auto& r : reqs) {
    pool.wait(r);
    EXPECT_TRUE(r.done.load());
  }
  // Post-shutdown submissions are rejected, not lost silently.
  InferenceSession::Request late;
  late.input = in.data();
  std::vector<float> late_out(kClasses);
  late.output = late_out.data();
  EXPECT_FALSE(pool.submit(&late));
  EXPECT_EQ(pool.stats().requests, kThreads * kPerThread);
}

TEST_F(ServingTest, OpenLoopLoadGenCompletesEveryRequest) {
  SessionPool pool(test_model(), pool_opts(Policy::kAdaptive));
  pool.start();
  const std::vector<float> samples = make_inputs(16, 99);
  LoadGenOptions lg;
  lg.requests = 200;
  lg.rate_rps = 20000.0;
  lg.seed = 7;
  const LoadGenResult res = run_open_loop(pool, lg, samples.data(), 16);
  EXPECT_EQ(res.completed, 200);
  EXPECT_EQ(res.latency_s.size(), 200u);
  EXPECT_GT(res.throughput_rps, 0.0);
  for (const double l : res.latency_s) EXPECT_GT(l, 0.0);
}

}  // namespace
}  // namespace d500::serve
