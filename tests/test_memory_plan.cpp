// Static memory planner + arena tests: liveness/aliasing correctness of
// plan_memory, the 64-byte alignment contract on every tensor payload,
// arena free-list recycling (including under concurrency), bit-identical
// executor results with the planner on/off at 1/2/4 threads, and the
// headline guarantee — a warm PlanExecutor training step performs zero
// heap allocations, asserted with a counting global allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/executor.hpp"
#include "graph/memory_plan.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator. Replacing operator new/delete in one TU
// replaces them binary-wide, so every container growth, string, Tensor and
// arena fresh block in the test process bumps the counter. The zero-
// allocation test snapshots it around warm step() calls.

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

namespace d500 {
namespace {

// ---------------------------------------------------------------------------
// plan_memory: combinatorial correctness.

TEST(MemoryPlan, EmptyRequestSetYieldsEmptyPlan) {
  const MemoryPlan plan = plan_memory({});
  EXPECT_TRUE(plan.placement.empty());
  EXPECT_TRUE(plan.buffer_bytes.empty());
  EXPECT_EQ(plan.planned_bytes(), 0u);
  EXPECT_EQ(plan.naive_bytes, 0u);
  EXPECT_TRUE(plan_is_valid(plan, {}));
}

TEST(MemoryPlan, ChainReusesDeadBuffers) {
  // a(0..1) -> b(1..2) -> c(2..3): b cannot take a's buffer (a is still
  // read at b's defining step), but c can (a died at 1 < 2).
  const std::vector<BufferRequest> reqs = {
      {256, 0, 1}, {256, 1, 2}, {256, 2, 3}};
  const MemoryPlan plan = plan_memory(reqs);
  ASSERT_TRUE(plan_is_valid(plan, reqs));
  EXPECT_NE(plan.placement[0], plan.placement[1]);
  EXPECT_EQ(plan.placement[2], plan.placement[0]);
  EXPECT_EQ(plan.buffer_bytes.size(), 2u);
  EXPECT_LT(plan.planned_bytes(), plan.naive_bytes);
}

TEST(MemoryPlan, StrictAdjacencyNeverShares) {
  // A value last read at step d must not share with a value defined at
  // step d — the kernel would overwrite its own input mid-step.
  const std::vector<BufferRequest> reqs = {{64, 0, 2}, {64, 2, 4}};
  const MemoryPlan plan = plan_memory(reqs);
  ASSERT_TRUE(plan_is_valid(plan, reqs));
  EXPECT_NE(plan.placement[0], plan.placement[1]);
}

TEST(MemoryPlan, ZeroByteRequestsGetNoBuffer) {
  const std::vector<BufferRequest> reqs = {{0, 0, 5}, {128, 1, 2}, {0, 3, 4}};
  const MemoryPlan plan = plan_memory(reqs);
  ASSERT_TRUE(plan_is_valid(plan, reqs));
  EXPECT_EQ(plan.placement[0], -1);
  EXPECT_GE(plan.placement[1], 0);
  EXPECT_EQ(plan.placement[2], -1);
}

TEST(MemoryPlan, PinnedValuesAreNeverRecycled) {
  // kStepLiveForever (training activations, declared outputs) keeps a
  // buffer occupied for the rest of the step sequence.
  const std::vector<BufferRequest> reqs = {
      {64, 0, kStepLiveForever}, {64, 1, kStepLiveForever}, {64, 2, 3}};
  const MemoryPlan plan = plan_memory(reqs);
  ASSERT_TRUE(plan_is_valid(plan, reqs));
  EXPECT_NE(plan.placement[0], plan.placement[1]);
  EXPECT_NE(plan.placement[2], plan.placement[0]);
  EXPECT_NE(plan.placement[2], plan.placement[1]);
  EXPECT_EQ(plan.planned_bytes(), plan.naive_bytes);
}

TEST(MemoryPlan, BestFitPrefersSmallestSufficientBuffer) {
  // Two dead buffers of 1024 and 256 bytes; a 200-byte request must land
  // in the 256-byte one (tightest fit), leaving the big one intact.
  const std::vector<BufferRequest> reqs = {
      {1024, 0, 0}, {256, 0, 0}, {200, 2, 3}};
  const MemoryPlan plan = plan_memory(reqs);
  ASSERT_TRUE(plan_is_valid(plan, reqs));
  EXPECT_EQ(plan.placement[2], plan.placement[1]);
  EXPECT_EQ(plan.planned_bytes(), std::size_t{1024 + 256});
}

TEST(MemoryPlan, GrowsLargestBufferWhenNoneFits) {
  // Dead buffers of 64 and 128; a 512-byte request grows the 128 one
  // (least added capacity) instead of opening a third buffer.
  const std::vector<BufferRequest> reqs = {{64, 0, 0}, {128, 0, 0}, {512, 2, 3}};
  const MemoryPlan plan = plan_memory(reqs);
  ASSERT_TRUE(plan_is_valid(plan, reqs));
  EXPECT_EQ(plan.placement[2], plan.placement[1]);
  EXPECT_EQ(plan.buffer_bytes.size(), 2u);
  EXPECT_EQ(plan.planned_bytes(), std::size_t{64 + 512});
}

TEST(MemoryPlan, BufferOrderIsAscendingByDefStep) {
  const std::vector<BufferRequest> reqs = {
      {64, 4, 5}, {64, 0, 1}, {64, 2, 3}, {64, 6, 7}};
  const MemoryPlan plan = plan_memory(reqs);
  ASSERT_TRUE(plan_is_valid(plan, reqs));
  for (const auto& order : plan.buffer_order) {
    for (std::size_t k = 1; k < order.size(); ++k)
      EXPECT_LT(reqs[static_cast<std::size_t>(order[k - 1])].def_step,
                reqs[static_cast<std::size_t>(order[k])].def_step);
  }
}

TEST(MemoryPlan, FuzzedIntervalsAlwaysProduceValidPlans) {
  Rng rng(0xD500);
  for (int iter = 0; iter < 200; ++iter) {
    const int n = 1 + static_cast<int>(rng.below(40));
    std::vector<BufferRequest> reqs;
    reqs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      BufferRequest r;
      r.bytes = rng.below(8) == 0 ? 0 : (1 + rng.below(4096));
      r.def_step = static_cast<int>(rng.below(22)) - 1;  // -1 = feed
      r.last_step = rng.below(6) == 0
                        ? kStepLiveForever
                        : r.def_step + static_cast<int>(rng.below(8));
      reqs.push_back(r);
    }
    const MemoryPlan plan = plan_memory(reqs);
    ASSERT_TRUE(plan_is_valid(plan, reqs)) << "iter " << iter;
    ASSERT_LE(plan.planned_bytes(), plan.naive_bytes) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// Arena: alignment contract, free-list recycling, mode handling.

std::uintptr_t addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(Arena, PayloadsAre64ByteAlignedInBothModes) {
  Arena& a = Arena::instance();
  const ArenaMode saved = a.mode();
  for (ArenaMode m : {ArenaMode::kArena, ArenaMode::kMalloc}) {
    a.set_mode(m);
    for (std::int64_t n : {1, 7, 16, 63, 64, 65, 4097}) {
      float* p = arena_alloc_floats(n);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(addr(p) % 64, 0u) << "n=" << n;
      p[0] = 1.0f;
      p[n - 1] = 2.0f;
      arena_free_floats(p);
    }
  }
  a.set_mode(saved);
}

TEST(Arena, TensorStorageIs64ByteAligned) {
  // Satellite of the arena work: every Tensor payload (zeroed ctor,
  // uninitialized, clone) obeys the vectorization alignment contract.
  for (std::int64_t n : {1, 3, 17, 64, 100, 1000}) {
    Tensor t({n});
    EXPECT_EQ(addr(t.data()) % 64, 0u) << "Tensor({" << n << "})";
    Tensor u = Tensor::uninitialized({n, 2});
    EXPECT_EQ(addr(u.data()) % 64, 0u) << "uninitialized({" << n << ",2})";
    const Tensor c = u.clone();
    EXPECT_EQ(addr(c.data()) % 64, 0u) << "clone";
  }
}

TEST(Arena, FreeListRecyclesSameSizeClass) {
  Arena& a = Arena::instance();
  const ArenaMode saved = a.mode();
  a.set_mode(ArenaMode::kArena);
  float* p1 = arena_alloc_floats(1000);  // class 4096 B
  arena_free_floats(p1);
  const Arena::Stats before = a.stats();
  float* p2 = arena_alloc_floats(900);  // same 4096 B class
  const Arena::Stats after = a.stats();
  EXPECT_EQ(p2, p1) << "same-class allocation must come off the free list";
  EXPECT_EQ(after.reuse_hits, before.reuse_hits + 1);
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks);
  arena_free_floats(p2);
  a.set_mode(saved);
}

TEST(Arena, MallocModeFreesToHeapAndCachesNothing) {
  Arena& a = Arena::instance();
  const ArenaMode saved = a.mode();
  a.set_mode(ArenaMode::kMalloc);
  const Arena::Stats before = a.stats();
  float* p = arena_alloc_floats(512);
  arena_free_floats(p);
  const Arena::Stats after = a.stats();
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
  EXPECT_EQ(after.cached_bytes, before.cached_bytes);
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks + 1);
  a.set_mode(saved);
}

TEST(Arena, ModeSwitchMidBlockFreesByBlockModeNotCurrentMode) {
  // Blocks record their mode at allocation time, so flipping D500_ARENA
  // semantics mid-process can never free-list a malloc block or leak an
  // arena block.
  Arena& a = Arena::instance();
  const ArenaMode saved = a.mode();
  a.set_mode(ArenaMode::kArena);
  float* arena_blk = arena_alloc_floats(123);
  a.set_mode(ArenaMode::kMalloc);
  float* malloc_blk = arena_alloc_floats(123);
  const Arena::Stats before = a.stats();
  arena_free_floats(arena_blk);  // freed under malloc mode -> free list
  a.set_mode(ArenaMode::kArena);
  arena_free_floats(malloc_blk);  // freed under arena mode -> heap
  const Arena::Stats after = a.stats();
  EXPECT_EQ(after.freed_blocks, before.freed_blocks + 2);
  EXPECT_GT(after.cached_bytes, before.cached_bytes);  // only the arena block
  a.set_mode(saved);
}

TEST(Arena, TrimReleasesCachedBlocks) {
  Arena& a = Arena::instance();
  const ArenaMode saved = a.mode();
  a.set_mode(ArenaMode::kArena);
  arena_free_floats(arena_alloc_floats(2048));
  EXPECT_GT(a.stats().cached_bytes, 0u);
  a.trim();
  EXPECT_EQ(a.stats().cached_bytes, 0u);
  a.set_mode(saved);
}

TEST(Arena, StatsAppearInTraceSummary) {
  // Satellite: trace summaries carry the allocator picture alongside the
  // span roll-up, so one artifact answers "where did the memory go".
  const std::string s = Trace::summary();
  EXPECT_NE(s.find("arena:"), std::string::npos) << s;
  EXPECT_NE(s.find("reuse hits"), std::string::npos) << s;
}

TEST(ArenaThreads, ConcurrentAllocFreeKeepsStatsCoherent) {
  Arena& a = Arena::instance();
  const ArenaMode saved = a.mode();
  a.set_mode(ArenaMode::kArena);
  const Arena::Stats before = a.stats();
  ThreadPool::instance().reset(4);
  parallel_for(0, 512, 16, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::int64_t n = 1 + (i % 97) * 13;
      float* p = arena_alloc_floats(n);
      EXPECT_NE(p, nullptr);
      EXPECT_EQ(addr(p) % 64, 0u);
      p[0] = static_cast<float>(i);
      p[n - 1] = -1.0f;
      arena_free_floats(p);
    }
  });
  const Arena::Stats after = a.stats();
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
  EXPECT_EQ(after.freed_blocks, before.freed_blocks + 512);
  a.set_mode(saved);
}

// ---------------------------------------------------------------------------
// Executor determinism: the planner must be invisible to the numerics —
// bit-identical outputs and gradients with memory_plan on/off, serial and
// parallel, at 1/2/4 threads, for every model builder.

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0)
      << what << ": payload differs";
}

TensorMap model_feeds(const Model& m, std::uint64_t seed) {
  Network net = build_network(m);
  Rng rng(seed);
  TensorMap feeds;
  for (const auto& iname : net.inputs()) {
    Tensor t(net.input_shape(iname));
    if (iname == "labels") {
      for (std::int64_t i = 0; i < t.elements(); ++i)
        t.at(i) = static_cast<float>(rng.below(4));
    } else {
      t.fill_uniform(rng, -1, 1);
    }
    feeds[iname] = std::move(t);
  }
  return feeds;
}

struct RunResult {
  TensorMap outputs;
  TensorMap grads;
};

RunResult run_backprop(GraphExecutor& exec, const TensorMap& feeds) {
  RunResult r;
  r.outputs = exec.inference_and_backprop(feeds, "loss");
  for (const auto& [pname, gname] : exec.network().gradients())
    r.grads[gname] = exec.network().fetch_tensor(gname);
  return r;
}

void check_planner_bit_identity(const Model& m, const char* label) {
  const TensorMap feeds = model_feeds(m, 77);

  ThreadPool::instance().reset(1);
  ReferenceExecutor ref(build_network(m));
  const RunResult expected = run_backprop(ref, feeds);
  ASSERT_FALSE(expected.outputs.empty()) << label;

  for (int threads : {1, 2, 4}) {
    for (bool planner : {false, true}) {
      for (bool par : {false, true}) {
        ThreadPool::instance().reset(threads);
        ExecOptions o;
        o.memory_plan = planner;
        o.parallel = par;
        PlanExecutor ex(build_network(m), "mem-bitid", o);
        const RunResult got = run_backprop(ex, feeds);
        const std::string cfg = std::string(label) +
                                (planner ? " plan" : " noplan") +
                                (par ? "+par" : "") + " @" +
                                std::to_string(threads) + "t";
        ASSERT_EQ(got.outputs.size(), expected.outputs.size()) << cfg;
        for (const auto& [oname, t] : expected.outputs)
          expect_bitwise_equal(got.outputs.at(oname), t,
                               cfg + " output " + oname);
        ASSERT_EQ(got.grads.size(), expected.grads.size()) << cfg;
        for (const auto& [gname, t] : expected.grads)
          expect_bitwise_equal(got.grads.at(gname), t, cfg + " " + gname);
      }
    }
  }
}

TEST(MemoryPlanExecutor, MlpBitIdenticalPlannerOnOff) {
  check_planner_bit_identity(models::mlp(4, 32, {24, 16}, 4, 11), "mlp");
}

TEST(MemoryPlanExecutor, LenetBitIdenticalPlannerOnOff) {
  check_planner_bit_identity(models::lenet(2, 1, 12, 12, 4, 12), "lenet");
}

TEST(MemoryPlanExecutor, ResnetBitIdenticalPlannerOnOff) {
  check_planner_bit_identity(models::resnet(2, 3, 8, 8, 4, 4, 1, 13),
                             "resnet");
}

TEST(MemoryPlanExecutor, AlexnetLikeBitIdenticalPlannerOnOff) {
  check_planner_bit_identity(models::alexnet_like(2, 14, /*with_loss=*/true),
                             "alexnet_like");
}

TEST(MemoryPlanExecutor, PlannerShrinksInferenceFootprint) {
  ThreadPool::instance().reset(1);
  const Model m = models::resnet(2, 3, 8, 8, 4, 4, 1, 13);
  ExecOptions o;
  PlanExecutor ex(build_network(m), "mem-footprint", o);
  ex.inference(model_feeds(m, 5));
  EXPECT_GT(ex.planned_bytes(), 0u);
  EXPECT_LT(ex.planned_bytes(), ex.plan_naive_bytes())
      << "interval reuse must beat one-buffer-per-value";
}

TEST(MemoryPlanExecutor, StepViewsAreStableAndMatchBackprop) {
  ThreadPool::instance().reset(1);
  const Model m = models::mlp(4, 32, {24, 16}, 4, 11);
  const TensorMap feeds = model_feeds(m, 21);
  ExecOptions o;
  PlanExecutor a(build_network(m), "mem-step", o);
  PlanExecutor b(build_network(m), "mem-iab", o);

  const TensorMap& v1 = a.step(feeds, "loss");
  const float loss1 = v1.at("loss").at(0);
  const float* logits1 = v1.at("logits").data();
  const TensorMap& v2 = a.step(feeds, "loss");
  // Warm steps rewrite the same storage: the view aliases the same payload
  // and, with identical feeds, reproduces the run bit for bit.
  EXPECT_EQ(v2.at("logits").data(), logits1);
  EXPECT_EQ(v2.at("loss").at(0), loss1);

  const TensorMap out = b.inference_and_backprop(feeds, "loss");
  EXPECT_EQ(out.at("loss").at(0), loss1);
  for (const auto& [pname, gname] : a.network().gradients())
    expect_bitwise_equal(a.network().fetch_tensor(gname),
                         b.network().fetch_tensor(gname), gname);
}

// ---------------------------------------------------------------------------
// The headline guarantee: once compiled and warmed, a training step does
// ZERO heap allocations — no tensor churn, no container growth, nothing.

/// Heap allocations across 5 warm steps on a `threads`-thread pool.
std::int64_t warm_step_allocs(const Model& m, int threads, bool parallel) {
  Trace::disable();  // deterministic gate state for the counted window
  Arena::instance().set_mode(ArenaMode::kArena);
  ThreadPool::instance().reset(threads);
  const TensorMap feeds = model_feeds(m, 3);
  ExecOptions o;  // deferred engine, planner on
  o.parallel = parallel;
  PlanExecutor ex(build_network(m), "zero-alloc", o);
  for (int i = 0; i < 3; ++i) ex.step(feeds, "loss");  // compile + warm

  const std::int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) ex.step(feeds, "loss");
  const std::int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  ThreadPool::instance().reset(1);
  return after - before;
}

/// Serial steps and multi-thread fan-out alike, with the plan's task
/// graphs on and off: the pool's dispatch keeps its per-call state on the
/// caller's stack, and a task graph's scratch is sized at compile time.
void check_zero_alloc_warm_steps(const Model& m, const char* label) {
  for (bool parallel : {false, true})
    for (int threads : {1, 2, 4})
      EXPECT_EQ(warm_step_allocs(m, threads, parallel), 0)
          << label << (parallel ? " parallel" : " serial") << " @" << threads
          << "t: heap allocations across 5 warm steps";
}

/// Heap allocations across 5 warm steps of an executor warmed on a
/// 2-thread pool that then grew to 4 threads (one step runs in between):
/// the new workers start with empty scratch, and the executor must notice
/// the new pool generation and prime them again.
std::int64_t warm_step_allocs_after_reset(const Model& m, bool parallel) {
  Trace::disable();
  Arena::instance().set_mode(ArenaMode::kArena);
  ThreadPool::instance().reset(2);
  const TensorMap feeds = model_feeds(m, 3);
  ExecOptions o;
  o.parallel = parallel;
  PlanExecutor ex(build_network(m), "zero-alloc-reset", o);
  for (int i = 0; i < 3; ++i) ex.step(feeds, "loss");
  ThreadPool::instance().reset(4);
  ex.step(feeds, "loss");

  const std::int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) ex.step(feeds, "loss");
  const std::int64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  ThreadPool::instance().reset(1);
  return after - before;
}

TEST(MemoryPlanExecutor, WarmStepsAfterPoolResetDoZeroHeapAllocations) {
  const Model lenet = models::lenet(2, 1, 12, 12, 4, 12);
  const Model resnet = models::resnet(2, 3, 8, 8, 4, 4, 1, 13);
  for (bool parallel : {false, true}) {
    EXPECT_EQ(warm_step_allocs_after_reset(lenet, parallel), 0)
        << "lenet" << (parallel ? " parallel" : " serial");
    EXPECT_EQ(warm_step_allocs_after_reset(resnet, parallel), 0)
        << "resnet" << (parallel ? " parallel" : " serial");
  }
}

TEST(MemoryPlanExecutor, WarmMlpStepsDoZeroHeapAllocations) {
  check_zero_alloc_warm_steps(models::mlp(4, 32, {24, 16}, 4, 11), "mlp");
}

TEST(MemoryPlanExecutor, WarmLenetStepsDoZeroHeapAllocations) {
  check_zero_alloc_warm_steps(models::lenet(2, 1, 12, 12, 4, 12), "lenet");
  // At batch 8 and 28x28 the forward's loops split into many parallel_for
  // chunks (NR = 16, as in AVX2 builds): c1's 448 tiles at grain 27 run in
  // 17 chunks and its pad copy in 2, c2's 72 tiles at grain 1 in 72 and
  // its pad copy in 3, the first max pool in 3. At 12x12, c1 and both
  // pad copies run as one chunk each.
  check_zero_alloc_warm_steps(models::lenet(8, 1, 28, 28, 10, 12),
                              "lenet 28x28");
}

TEST(MemoryPlanExecutor, WarmResnetStepsDoZeroHeapAllocations) {
  // Fused conv/BN forward plus the conv backward's grow-only workspace.
  check_zero_alloc_warm_steps(models::resnet(2, 3, 8, 8, 4, 4, 1, 13),
                              "resnet");
}

}  // namespace
}  // namespace d500
