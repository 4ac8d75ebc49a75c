// Property-based graph fuzzing: randomly generated valid models (random
// operator chains with residual branches over 4-D feature maps, then a
// classifier head) must satisfy, for every seed:
//   1. shape inference agrees with what executors actually produce;
//   2. all three framework engines match the reference executor;
//   3. parameter gradients match the reference across engines;
//   4. serialize -> deserialize -> execute is bit-identical.
// This is the white-box counterpart of the paper's ONNX correctness tests:
// instead of a fixed operator conformance suite, the DAG space itself is
// sampled.
//
// The differential training harness below extends the property to whole
// training runs: the same random model trained with bucketed-allreduce
// DSGD must produce bit-identical parameters and losses within each
// executor engine across thread counts (1/2/4) and communication-overlap
// on/off — the executors' determinism contracts composed with the
// ring-equivalent nonblocking collectives.
#include <gtest/gtest.h>

#include "core/threadpool.hpp"
#include "dist/dist_optimizer.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/shape_inference.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "ops/gemm.hpp"
#include "train/optimizers.hpp"

namespace d500 {
namespace {

/// Builds a random model: stem conv, then `depth` random layers (conv /
/// activation / pool / batchnorm / residual add), then GAP + Linear +
/// softmax-CE loss. All choices driven by the seed.
Model random_model(std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t batch = 1 + static_cast<std::int64_t>(rng.below(3));
  std::int64_t ch = 2 + static_cast<std::int64_t>(rng.below(3));
  std::int64_t hw = 8 + static_cast<std::int64_t>(rng.below(3)) * 2;
  const std::int64_t classes = 3;

  ModelBuilder b("fuzz_" + std::to_string(seed));
  b.input("data", {batch, ch, hw, hw});
  std::string cur = "data";
  // Value -> channel count for residual candidates at the current spatial
  // size.
  std::vector<std::pair<std::string, std::int64_t>> residual_pool{{cur, ch}};
  int name_id = 0;
  auto fresh = [&](const std::string& tag) {
    return tag + std::to_string(name_id++);
  };

  const int depth = 2 + static_cast<int>(rng.below(4));
  for (int d = 0; d < depth; ++d) {
    switch (rng.below(5)) {
      case 0: {  // conv (3x3 same-pad, random filter count)
        const std::int64_t f = 2 + static_cast<std::int64_t>(rng.below(4));
        const std::string w = fresh("w"), bias = fresh("b"), out = fresh("v");
        Tensor wt({f, ch, 3, 3});
        wt.fill_kaiming(rng, ch * 9);
        b.initializer(w, std::move(wt));
        b.initializer(bias, Tensor({f}));
        b.node("Conv2D", {cur, w, bias}, {out},
               Attrs{{"kernel", std::int64_t{3}}, {"pad", std::int64_t{1}}});
        cur = out;
        ch = f;
        residual_pool.clear();
        residual_pool.emplace_back(cur, ch);
        break;
      }
      case 1: {  // activation
        const char* kinds[] = {"ReLU", "Sigmoid", "Tanh"};
        const std::string out = fresh("v");
        b.node(kinds[rng.below(3)], {cur}, {out});
        cur = out;
        residual_pool.emplace_back(cur, ch);
        break;
      }
      case 2: {  // pool (only while spatial size allows)
        if (hw >= 4) {
          const std::string out = fresh("v");
          b.node(rng.below(2) ? "MaxPool2D" : "AvgPool2D", {cur}, {out},
                 Attrs{{"kernel", std::int64_t{2}}, {"stride", std::int64_t{2}}});
          cur = out;
          hw /= 2;
          residual_pool.clear();
          residual_pool.emplace_back(cur, ch);
        }
        break;
      }
      case 3: {  // batchnorm
        const std::string g = fresh("g"), beta = fresh("be"), out = fresh("v");
        Tensor gamma({ch});
        gamma.fill(1.0f);
        b.initializer(g, std::move(gamma));
        b.initializer(beta, Tensor({ch}));
        b.node("BatchNorm", {cur, g, beta}, {out},
               Attrs{{"channels", ch}});
        cur = out;
        residual_pool.emplace_back(cur, ch);
        break;
      }
      case 4: {  // residual add with a shape-compatible earlier value
        std::vector<std::string> candidates;
        for (const auto& [name, c] : residual_pool)
          if (c == ch && name != cur) candidates.push_back(name);
        if (!candidates.empty()) {
          const std::string other =
              candidates[rng.below(candidates.size())];
          const std::string out = fresh("v");
          b.node("Add", {cur, other}, {out});
          cur = out;
          residual_pool.emplace_back(cur, ch);
        }
        break;
      }
    }
  }

  b.node("GlobalAvgPool", {cur}, {"gap"});
  const std::string fw = fresh("w"), fb = fresh("b");
  Tensor wt({classes, ch});
  wt.fill_kaiming(rng, ch);
  b.initializer(fw, std::move(wt));
  b.initializer(fb, Tensor({classes}));
  b.node("Linear", {"gap", fw, fb}, {"logits"});
  b.output("logits");
  b.input("labels", {batch});
  b.node("SoftmaxCrossEntropy", {"logits", "labels"}, {"loss"});
  b.output("loss");
  return b.build();
}

TensorMap random_feeds(const Model& m, std::uint64_t seed) {
  Rng rng(seed * 31 + 7);
  TensorMap feeds;
  for (const auto& in : m.graph_inputs) {
    Tensor t(m.input_shapes.at(in));
    if (in == "labels") {
      for (std::int64_t i = 0; i < t.elements(); ++i)
        t.at(i) = static_cast<float>(rng.below(3));
    } else {
      t.fill_uniform(rng, -1, 1);
    }
    feeds[in] = std::move(t);
  }
  return feeds;
}

class FuzzGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzGraphs, AllExecutorsAgreeForwardAndBackward) {
  const std::uint64_t seed = GetParam();
  const Model m = random_model(seed);
  const TensorMap feeds = random_feeds(m, seed);

  // Property 1: shape inference is truthful.
  const auto shapes = infer_shapes(m);
  ReferenceExecutor ref(build_network(m));
  const TensorMap want = ref.inference(feeds);
  for (const auto& out : m.graph_outputs)
    ASSERT_EQ(want.at(out).shape(), shapes.at(out)) << out;

  // Property 2+3: every engine reproduces forward outputs and gradients.
  ref.inference_and_backprop(feeds, "loss");
  for (const Framework* fw : all_frameworks()) {
    auto exec = fw->compile(m);
    const TensorMap got = exec->inference(feeds);
    for (const auto& out : m.graph_outputs) {
      const Tensor& a = got.at(out);
      const Tensor& r = want.at(out);
      ASSERT_EQ(a.elements(), r.elements());
      for (std::int64_t i = 0; i < r.elements(); ++i)
        ASSERT_NEAR(a.at(i), r.at(i), 5e-3f)
            << fw->name() << " " << out << "[" << i << "] seed=" << seed;
    }
    exec->inference_and_backprop(feeds, "loss");
    for (const auto& [pname, gname] : ref.network().gradients()) {
      const Tensor& rg = ref.network().fetch_tensor(gname);
      const Tensor& eg = exec->network().fetch_tensor(gname);
      for (std::int64_t i = 0; i < rg.elements(); ++i)
        ASSERT_NEAR(eg.at(i), rg.at(i),
                    5e-3f + 0.01f * std::abs(rg.at(i)))
            << fw->name() << " " << gname << "[" << i << "] seed=" << seed;
    }
  }

  // Property 4: serialization round trip is execution-identical.
  const Model reloaded = deserialize_model(serialize_model(m));
  ReferenceExecutor ref2(build_network(reloaded));
  const TensorMap again = ref2.inference(feeds);
  for (const auto& out : m.graph_outputs) {
    const Tensor& a = again.at(out);
    const Tensor& r = want.at(out);
    for (std::int64_t i = 0; i < r.elements(); ++i)
      ASSERT_EQ(a.at(i), r.at(i)) << "serialization changed " << out;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzGraphs,
                         ::testing::Range<std::uint64_t>(1, 21),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- differential training harness ----------------------------------------

/// FNV-1a over raw bytes (same checksum bench_parallel_executor prints).
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

enum class Engine { kReference, kParallel, kPlan };
constexpr Engine kEngines[] = {Engine::kReference, Engine::kParallel,
                               Engine::kPlan};
const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kReference: return "reference";
    case Engine::kParallel: return "plan{parallel}";
    default: return "plan";
  }
}

struct TrainRun {
  std::uint64_t param_checksum = 0;
  std::vector<float> losses;
};

/// Trains the seed's random model for 3 steps with bucketed-allreduce DSGD
/// on a 2-rank world (both ranks see the same minibatch, so statistical
/// behaviour matches single-process SGD while every collective still
/// runs); returns rank 0's parameter checksum and per-step losses.
/// `passes` selects the plan engines' compiler pipeline (D500_PASSES
/// syntax); the reference engine ignores it. `fault` (optional) installs a
/// fault schedule on the world before training.
TrainRun differential_train(Engine engine, int threads, bool overlap,
                            std::uint64_t seed,
                            const std::string& passes = "all",
                            const FaultPlan* fault = nullptr) {
  ThreadPool::instance().reset(threads);
  const Model m = random_model(seed);
  SimMpi mpi(2);
  if (fault) mpi.set_fault_plan(*fault);
  TrainRun run;
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    std::unique_ptr<GraphExecutor> exec;
    switch (engine) {
      case Engine::kReference:
        exec = std::make_unique<ReferenceExecutor>(build_network(m));
        break;
      case Engine::kParallel:
      case Engine::kPlan: {
        ExecOptions opts;
        opts.parallel = engine == Engine::kParallel;
        opts.overlap_comm = overlap;
        opts.passes = passes;
        exec = std::make_unique<PlanExecutor>(build_network(m), "plan", opts);
        break;
      }
    }
    auto base = std::make_unique<GradientDescentOptimizer>(*exec, 0.05);
    BucketOptions bopts;
    bopts.cap_bytes = 1024;  // small cap: multiple buckets on most seeds
    bopts.overlap = overlap ? 1 : 0;
    BucketedDecentralized opt(std::move(base), comm, bopts);
    opt.set_loss_value("loss");
    std::vector<float> losses;
    for (int s = 0; s < 3; ++s) {
      const TensorMap feeds = random_feeds(m, seed + 1000 * (s + 1));
      losses.push_back(opt.train(feeds).at("loss").at(0));
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      const Network& net = exec->network();
      std::uint64_t h = 1469598103934665603ull;
      for (const auto& pname : net.parameters()) {
        const Tensor& p = net.fetch_tensor(pname);
        h = fnv1a(h, p.data(), p.bytes());
      }
      run.param_checksum = h;
      run.losses = std::move(losses);
    }
  });
  return run;
}

class FuzzTrainingDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTrainingDifferential, BitIdenticalAcrossThreadsAndOverlap) {
  const std::uint64_t seed = GetParam();
  const int pool_before = ThreadPool::instance().num_threads();

  // Engine baselines: 1 thread, overlap off.
  std::map<Engine, TrainRun> baseline;
  for (Engine e : kEngines) baseline[e] = differential_train(e, 1, false, seed);

  // Every engine trains bit-identically to the reference: parameter
  // checksum and every loss.
  const TrainRun& ref = baseline[Engine::kReference];
  for (Engine e : kEngines) {
    EXPECT_EQ(baseline[e].param_checksum, ref.param_checksum)
        << engine_name(e) << " seed=" << seed;
    ASSERT_EQ(baseline[e].losses.size(), ref.losses.size());
    for (std::size_t s = 0; s < ref.losses.size(); ++s)
      EXPECT_EQ(baseline[e].losses[s], ref.losses[s])
          << engine_name(e) << " seed=" << seed << " step " << s;
  }

  // The differential sweep: every (threads, overlap) cell must reproduce
  // its engine's baseline exactly — parameters and losses, bit for bit.
  for (Engine e : kEngines) {
    for (int threads : {1, 2, 4}) {
      for (bool overlap : {false, true}) {
        const TrainRun got = differential_train(e, threads, overlap, seed);
        EXPECT_EQ(got.param_checksum, baseline[e].param_checksum)
            << engine_name(e) << " threads=" << threads
            << " overlap=" << overlap << " seed=" << seed;
        ASSERT_EQ(got.losses.size(), baseline[e].losses.size());
        for (std::size_t s = 0; s < got.losses.size(); ++s)
          EXPECT_EQ(got.losses[s], baseline[e].losses[s])
              << engine_name(e) << " threads=" << threads
              << " overlap=" << overlap << " seed=" << seed << " step " << s;
      }
    }
  }
  ThreadPool::instance().reset(pool_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTrainingDifferential,
                         ::testing::Range<std::uint64_t>(1, 7),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- compiler-pass axis -----------------------------------------------------

/// The pass-pipeline extension of the differential property: on the plan
/// engine, every individual compiler pass — and the whole pipeline — must
/// train to bit-identical parameters and losses as the unrewritten graph,
/// at every thread count. This is the fusion bit-identity contract
/// (DESIGN.md §10) composed with the executor determinism contract: fused
/// kernels reproduce the exact hop values (+0.0 gradient canonicalization,
/// ReLU masks from stored outputs) the unfused graph produces.
class FuzzPassDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPassDifferential, EveryPassTrainsBitIdenticalToUnfused) {
  const std::uint64_t seed = GetParam();
  const int pool_before = ThreadPool::instance().num_threads();

  const TrainRun base =
      differential_train(Engine::kPlan, 1, false, seed, "none");
  const char* specs[] = {"constfold",      "fuse-conv-bn", "fuse-bias-relu",
                         "fuse-epilogue",  "fuse-elementwise", "dce", "all"};
  for (const char* passes : specs) {
    for (int threads : {1, 2, 4}) {
      const TrainRun got =
          differential_train(Engine::kPlan, threads, false, seed, passes);
      EXPECT_EQ(got.param_checksum, base.param_checksum)
          << "passes=" << passes << " threads=" << threads << " seed=" << seed;
      ASSERT_EQ(got.losses.size(), base.losses.size());
      for (std::size_t s = 0; s < got.losses.size(); ++s)
        EXPECT_EQ(got.losses[s], base.losses[s])
            << "passes=" << passes << " threads=" << threads
            << " seed=" << seed << " step " << s;
    }
  }
  ThreadPool::instance().reset(pool_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPassDifferential,
                         ::testing::Range<std::uint64_t>(1, 5),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- epilogue-mode axis -----------------------------------------------------

/// The GEMM-epilogue extension of the differential property: with the full
/// pass pipeline (so fuse-epilogue installs bias/activation chains on
/// Linear/MatMul/Conv nodes), training under EpilogueMode::kFused — chains
/// applied in registers at tile-store time — must be bit-identical to the
/// kPost oracle (the pre-fusion two-pass sweeps), at every thread count.
class FuzzEpilogueModeDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEpilogueModeDifferential, FusedTrainsBitIdenticalToPostOracle) {
  const std::uint64_t seed = GetParam();
  const int pool_before = ThreadPool::instance().num_threads();
  const EpilogueMode mode_before = gemm_epilogue_mode();

  set_gemm_epilogue_mode(EpilogueMode::kPost);
  const TrainRun oracle = differential_train(Engine::kPlan, 1, false, seed);

  for (const EpilogueMode mode : {EpilogueMode::kPost, EpilogueMode::kFused}) {
    set_gemm_epilogue_mode(mode);
    for (int threads : {1, 2, 4}) {
      const TrainRun got =
          differential_train(Engine::kPlan, threads, false, seed);
      EXPECT_EQ(got.param_checksum, oracle.param_checksum)
          << "mode=" << epilogue_mode_name(mode) << " threads=" << threads
          << " seed=" << seed;
      ASSERT_EQ(got.losses.size(), oracle.losses.size());
      for (std::size_t s = 0; s < got.losses.size(); ++s)
        EXPECT_EQ(got.losses[s], oracle.losses[s])
            << "mode=" << epilogue_mode_name(mode) << " threads=" << threads
            << " seed=" << seed << " step " << s;
    }
  }
  set_gemm_epilogue_mode(mode_before);
  ThreadPool::instance().reset(pool_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEpilogueModeDifferential,
                         ::testing::Range<std::uint64_t>(1, 5),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- fault-schedule axis ----------------------------------------------------

/// Eager-DSGD training of the seed's random model under a lateness
/// schedule: 2 ranks over the stale-substituting board (dist/eager.hpp),
/// same feeds/steps as differential_train.
TrainRun eager_fuzz_train(std::uint64_t seed, const FaultPlan& plan,
                          std::int64_t bound) {
  ThreadPool::instance().reset(1);
  const Model m = random_model(seed);
  SimMpi mpi(2);
  mpi.set_fault_plan(plan);
  EagerAllreduce board(2, bound);
  TrainRun run;
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    ReferenceExecutor exec(build_network(m));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, 0.05);
    EagerDecentralized opt(std::move(base), comm, board);
    opt.set_loss_value("loss");
    std::vector<float> losses;
    for (int s = 0; s < 3; ++s) {
      const TensorMap feeds = random_feeds(m, seed + 1000 * (s + 1));
      losses.push_back(opt.train(feeds).at("loss").at(0));
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      const Network& net = exec.network();
      std::uint64_t h = 1469598103934665603ull;
      for (const auto& pname : net.parameters()) {
        const Tensor& p = net.fetch_tensor(pname);
        h = fnv1a(h, p.data(), p.bytes());
      }
      run.param_checksum = h;
      run.losses = std::move(losses);
    }
  });
  return run;
}

/// The fault extension of the differential property: random graphs ×
/// random fault schedules. The synchronous path must be bit-identical to
/// the injector-off run under any timing-only schedule (drops+retries and
/// straggler delays never change data); the eager path must stay finite
/// and reproduce its checksum exactly per (model seed, fault seed).
class FuzzFaultAxis : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzFaultAxis, SyncUnchangedEagerReproduciblePerSchedule) {
  const std::uint64_t seed = GetParam();
  const int pool_before = ThreadPool::instance().num_threads();

  const TrainRun clean =
      differential_train(Engine::kReference, 1, false, seed);
  for (const std::uint64_t fault_seed : {3ull, 11ull}) {
    FaultPlan timing;
    timing.enabled = true;
    timing.seed = fault_seed;
    timing.drop_prob = 0.2;
    timing.max_retries = 8;
    timing.retry_timeout_us = 3;
    timing.slow_rank = 1;
    timing.slow_us = 20;
    const TrainRun faulted = differential_train(Engine::kReference, 1, false,
                                                seed, "all", &timing);
    EXPECT_EQ(faulted.param_checksum, clean.param_checksum)
        << "seed=" << seed << " fault_seed=" << fault_seed;
    EXPECT_EQ(faulted.losses, clean.losses)
        << "seed=" << seed << " fault_seed=" << fault_seed;

    FaultPlan late;
    late.enabled = true;
    late.seed = fault_seed;
    late.late_prob = 0.5;
    const TrainRun eager = eager_fuzz_train(seed, late, /*bound=*/1);
    for (float l : eager.losses)
      EXPECT_TRUE(std::isfinite(l))
          << "seed=" << seed << " fault_seed=" << fault_seed;
    const TrainRun again = eager_fuzz_train(seed, late, /*bound=*/1);
    EXPECT_EQ(again.param_checksum, eager.param_checksum)
        << "seed=" << seed << " fault_seed=" << fault_seed;
    EXPECT_EQ(again.losses, eager.losses)
        << "seed=" << seed << " fault_seed=" << fault_seed;
  }
  ThreadPool::instance().reset(pool_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFaultAxis,
                         ::testing::Range<std::uint64_t>(1, 5),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace d500
