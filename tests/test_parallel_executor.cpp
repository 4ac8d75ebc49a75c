// Shared thread pool + inter-op parallel execution tests: parallel_for
// decomposition/exceptions, run_task_graph scheduling, and the determinism
// contract — PlanExecutor, with its parallel mode on and off, must be
// bit-identical to the serial ReferenceExecutor at any D500_THREADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/threadpool.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/executor.hpp"
#include "graph/model.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"

namespace d500 {
namespace {

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  int calls = 0;
  parallel_for(0, 0, 4, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, GrainLargerThanRangeRunsOneChunk) {
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for(2, 7, 100, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::int64_t, std::int64_t>{2, 7}));
}

TEST(ParallelFor, ChunkingIsAPureFunctionOfTheRange) {
  // The decomposition must not depend on the thread count: same chunk set
  // at 1, 2 and 4 threads.
  auto decompose = [](int threads) {
    ThreadPool::instance().reset(threads);
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    parallel_for(0, 103, 10, [&](std::int64_t lo, std::int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto one = decompose(1);
  ASSERT_EQ(one.size(), 11u);  // ceil(103/10)
  EXPECT_EQ(one.back(), (std::pair<std::int64_t, std::int64_t>{100, 103}));
  EXPECT_EQ(decompose(2), one);
  EXPECT_EQ(decompose(4), one);
}

TEST(ParallelFor, EveryIterationRunsExactlyOnce) {
  ThreadPool::instance().reset(4);
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadPool::instance().reset(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::int64_t lo, std::int64_t) {
                     if (lo == 42) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception drains.
  int sum = 0;
  std::mutex mu;
  parallel_for(0, 10, 1, [&](std::int64_t lo, std::int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    sum += static_cast<int>(lo);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  ThreadPool::instance().reset(4);
  std::vector<int> out(64, 0);
  parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      parallel_for(0, 8, 1, [&](std::int64_t jlo, std::int64_t jhi) {
        for (std::int64_t j = jlo; j < jhi; ++j)
          out[static_cast<std::size_t>(i * 8 + j)] = static_cast<int>(i + j);
      });
  });
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(out[i * 8 + j], i + j);
}

TEST(ThreadPool, OnEveryThreadRunsOncePerThread) {
  for (int threads : {1, 2, 4}) {
    ThreadPool::instance().reset(threads);
    struct Seen {
      std::mutex mu;
      std::vector<std::thread::id> ids;
    } seen;
    ThreadPool::instance().on_every_thread(
        [](void* ctx, std::int64_t) {
          auto& s = *static_cast<Seen*>(ctx);
          std::lock_guard<std::mutex> lock(s.mu);
          s.ids.push_back(std::this_thread::get_id());
        },
        &seen);
    std::sort(seen.ids.begin(), seen.ids.end());
    EXPECT_EQ(seen.ids.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(std::unique(seen.ids.begin(), seen.ids.end()), seen.ids.end())
        << threads << " threads: a thread ran twice";
  }
}

// Two threads broadcasting at once (two serial plans priming the pool) must
// both finish.
TEST(ThreadPool, ConcurrentBroadcastsComplete) {
  ThreadPool::instance().reset(4);
  std::atomic<int> runs{0};
  const auto body = [](void* ctx, std::int64_t) {
    static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  const auto broadcaster = [&] {
    for (int i = 0; i < 20; ++i) ThreadPool::instance().on_every_thread(body, &runs);
  };
  std::thread a(broadcaster), b(broadcaster);
  a.join();
  b.join();
  EXPECT_EQ(runs.load(), 2 * 20 * 4);
  ThreadPool::instance().reset(1);
}

// Grows a counter per element constructed, so a test can see whether a
// thread's scratch at a site was grown.
struct Counted {
  static inline std::atomic<int> made{0};
  Counted() { made.fetch_add(1); }
};

TEST(ThreadScratch, HelperOnlyPrimingSkipsCallerSites) {
  struct CallerSite;
  struct HelperSite;
  using Caller = ThreadScratch<Counted, CallerSite>;
  using Helper = ThreadScratch<Counted, HelperSite, ScratchUse::kHelper>;
  Caller::get(100);
  Helper::get(30);
  int helper_only = 0, all = 0;
  std::thread([&] {
    const int before = Counted::made.load();
    prime_thread_scratch(/*helper_sites_only=*/true);
    helper_only = Counted::made.load() - before;
  }).join();
  std::thread([&] {
    const int before = Counted::made.load();
    prime_thread_scratch();
    all = Counted::made.load() - before;
  }).join();
  EXPECT_EQ(helper_only, 30);
  EXPECT_EQ(all, 130);
}

TEST(RunTaskGraph, RespectsDependencies) {
  ThreadPool::instance().reset(4);
  // Diamond: 0 -> {1, 2} -> 3.
  TaskGraph g;
  g.reset(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(g.deps, (std::vector<int>{0, 1, 1, 2}));
  // The graph is reusable: each run starts from the same counts.
  for (int run = 0; run < 2; ++run) {
    std::mutex mu;
    std::vector<int> done;
    run_task_graph(g, [&](int t) {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(t);
    });
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done.front(), 0);
    EXPECT_EQ(done.back(), 3);
  }
}

TEST(RunTaskGraph, CycleIsReportedNotDeadlocked) {
  ThreadPool::instance().reset(2);
  // 1 and 2 wait on each other; only 0 can run.
  TaskGraph g;
  g.reset(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  EXPECT_THROW(run_task_graph(g, [&](int) {}), Error);
}

TEST(RunTaskGraph, ExceptionPropagatesToCaller) {
  ThreadPool::instance().reset(4);
  TaskGraph g;
  g.reset(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_THROW(run_task_graph(g,
                              [&](int t) {
                                if (t == 1) throw std::runtime_error("task");
                              }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Executor determinism: bit-identical outputs and gradients vs. the
// ReferenceExecutor for every model builder, at 1, 2 and 4 threads.

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0)
      << what << ": payload differs";
}

TensorMap model_feeds(const Model& m, std::uint64_t seed) {
  // Feed every declared input: image-like data uniform in [-1, 1], labels
  // as small class ids.
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

RunResult run_backprop(GraphExecutor& exec, const TensorMap& feeds,
                       const std::string& loss = "loss") {
  RunResult r;
  r.outputs = exec.inference_and_backprop(feeds, loss);
  for (const auto& [pname, gname] : exec.network().gradients())
    r.grads[gname] = exec.network().fetch_tensor(gname);
  return r;
}

/// PlanExecutor with `parallel` off and on, at 1, 2 and 4 threads, against
/// the serial ReferenceExecutor: outputs and gradients bit for bit, for
/// each loss value in turn (one executor per engine serves them all).
void check_model_determinism(const Model& m, const char* label,
                             const std::vector<std::string>& losses = {
                                 "loss"}) {
  const TensorMap feeds = model_feeds(m, 77);

  ThreadPool::instance().reset(1);
  ReferenceExecutor ref(build_network(m));
  std::vector<RunResult> expected;
  for (const std::string& loss : losses) {
    expected.push_back(run_backprop(ref, feeds, loss));
    ASSERT_FALSE(expected.back().outputs.empty()) << label;
  }

  for (bool parallel : {false, true}) {
    for (int threads : {1, 2, 4}) {
      ThreadPool::instance().reset(threads);
      ExecOptions o;
      o.parallel = parallel;
      PlanExecutor plan(build_network(m), "plan", o);
      for (std::size_t l = 0; l < losses.size(); ++l) {
        const std::string where = std::string(label) + " loss=" + losses[l] +
                                  (parallel ? " parallel" : " serial") +
                                  " @" + std::to_string(threads) + "t";
        const RunResult got = run_backprop(plan, feeds, losses[l]);
        ASSERT_EQ(got.outputs.size(), expected[l].outputs.size()) << where;
        for (const auto& [oname, t] : expected[l].outputs)
          expect_bitwise_equal(got.outputs.at(oname), t,
                               where + " output " + oname);
        ASSERT_EQ(got.grads.size(), expected[l].grads.size()) << where;
        for (const auto& [gname, t] : expected[l].grads)
          expect_bitwise_equal(got.grads.at(gname), t, where + " " + gname);
      }
    }
  }
}

TEST(PlanExecutorParallel, MlpBitIdenticalToReference) {
  check_model_determinism(models::mlp(4, 32, {24, 16}, 4, 11), "mlp");
}

TEST(PlanExecutorParallel, LenetBitIdenticalToReference) {
  check_model_determinism(models::lenet(2, 1, 12, 12, 4, 12), "lenet");
}

TEST(PlanExecutorParallel, ResnetBitIdenticalToReference) {
  check_model_determinism(models::resnet(2, 3, 8, 8, 4, 4, 1, 13), "resnet");
}

TEST(PlanExecutorParallel, AlexnetLikeBitIdenticalToReference) {
  check_model_determinism(models::alexnet_like(2, 14, /*with_loss=*/true),
                          "alexnet_like");
}

/// The cases the backward's accumulation rules must get right: one node
/// reading a value on two inputs, a parameter shared by two nodes, a branch
/// that never reaches the loss, and a loss value another node consumes.
Model backward_edge_case_model() {
  Rng rng(5);
  ModelBuilder b("edge-cases");
  b.input("data", {4, 6});
  b.input("labels", {4});  // model_feeds draws labels from 0..3
  b.input("target", {4, 4});
  auto param = [&](const std::string& name, Shape shape) {
    Tensor t(std::move(shape));
    t.fill_uniform(rng, -0.5f, 0.5f);
    b.initializer(name, std::move(t));
  };
  param("w1", {6, 6});
  param("b1", {6});
  param("w2", {4, 6});
  param("b2", {4});
  param("b3", {4});
  param("w4", {2, 6});
  param("b4", {2});
  b.node("Linear", {"data", "w1", "b1"}, {"h"});
  b.node("Add", {"h", "h"}, {"d"}, {}, "self_add");
  b.node("Linear", {"d", "w2", "b2"}, {"z1"}, {}, "shared_w_a");
  b.node("Linear", {"h", "w2", "b3"}, {"z2"}, {}, "shared_w_b");
  b.node("Add", {"z1", "z2"}, {"logits"});
  b.node("Linear", {"h", "w4", "b4"}, {"dead"}, {}, "off_loss_branch");
  b.node("SoftmaxCrossEntropy", {"logits", "labels"}, {"loss"});
  b.node("MSELoss", {"z2", "target"}, {"aux"});
  b.node("Add", {"loss", "aux"}, {"total"}, {}, "loss_consumer");
  b.output("dead");
  b.output("loss");
  b.output("total");
  return b.build();
}

TEST(PlanExecutorParallel, BackwardEdgeCasesBitIdenticalToReference) {
  // "loss": its consumer's backward never runs, and w4/b4 get zero
  // gradients. "total": loss and aux are inner values with one consumer.
  check_model_determinism(backward_edge_case_model(), "edge-cases",
                          {"loss", "total", "loss"});
}

TEST(PlanExecutorParallel, InferenceMatchesReferenceAndFiresEvents) {
  struct Counter : Event {
    int before_op = 0, after_op = 0, before_inf = 0, after_inf = 0;
    bool on_event(const EventInfo& info) override {
      switch (info.point) {
        case EventPoint::kBeforeOperator: ++before_op; break;
        case EventPoint::kAfterOperator: ++after_op; break;
        case EventPoint::kBeforeInference: ++before_inf; break;
        case EventPoint::kAfterInference: ++after_inf; break;
        default: break;
      }
      return true;
    }
  };
  const Model m = models::lenet(2, 1, 12, 12, 4, 21);
  const TensorMap feeds = model_feeds(m, 5);

  ThreadPool::instance().reset(1);
  ReferenceExecutor ref(build_network(m));
  const TensorMap expected = ref.inference(feeds);

  ThreadPool::instance().reset(4);
  ExecOptions o;
  o.parallel = true;
  PlanExecutor par(build_network(m), "plan-parallel", o);
  auto counter = std::make_shared<Counter>();
  par.add_event(counter);
  const TensorMap got = par.inference(feeds);
  for (const auto& [oname, t] : expected)
    expect_bitwise_equal(got.at(oname), t, "inference output " + oname);
  // Passes may fuse nodes: count the executor's own network.
  const int n_nodes = static_cast<int>(par.network().nodes().size());
  EXPECT_EQ(counter->before_op, n_nodes);
  EXPECT_EQ(counter->after_op, n_nodes);
  EXPECT_EQ(counter->before_inf, 1);
  EXPECT_EQ(counter->after_inf, 1);
}

TEST(PlanExecutorParallel, HonorsMemoryLimit) {
  ThreadPool::instance().reset(4);
  ExecOptions o;
  o.parallel = true;
  PlanExecutor par(build_network(models::lenet(2, 1, 12, 12, 4, 31)),
                   "plan-parallel", o);
  par.set_memory_limit(1);  // absurdly small: first allocation must trip it
  EXPECT_THROW(par.inference(model_feeds(models::lenet(2, 1, 12, 12, 4, 31), 5)),
               OutOfMemoryError);
}

TEST(PlanExecutor, ParallelOptionBitIdenticalToSerialPlan) {
  const Model m = models::resnet(2, 3, 8, 8, 4, 4, 1, 41);
  const TensorMap feeds = model_feeds(m, 9);

  ThreadPool::instance().reset(1);
  ExecOptions serial_opts;
  PlanExecutor serial(build_network(m), "plan-serial", serial_opts);
  const RunResult expected = run_backprop(serial, feeds);

  for (int threads : {1, 4}) {
    ThreadPool::instance().reset(threads);
    ExecOptions par_opts;
    par_opts.parallel = true;
    PlanExecutor par(build_network(m), "plan-parallel", par_opts);
    const RunResult got = run_backprop(par, feeds);
    for (const auto& [oname, t] : expected.outputs)
      expect_bitwise_equal(got.outputs.at(oname), t, "plan output " + oname);
    for (const auto& [gname, t] : expected.grads)
      expect_bitwise_equal(got.grads.at(gname), t, "plan " + gname);
  }
}

}  // namespace
}  // namespace d500
