// Cross-level integration tests — the meta-framework claims exercised end
// to end:
//  * Use Case 2: a model authored once is exchanged between frameworks
//    through the serialized format, with identical inference results.
//  * save -> load -> train equivalence (reproducibility pillar).
//  * a custom operator participating in a full network under a framework
//    executor.
//  * on-disk dataset -> record pipeline -> framework training (Levels 2+1).
//  * distributed training over framework executors (Levels 3+1).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <mutex>
#include <string>

#include <unistd.h>

#include "core/env.hpp"
#include "data/dataset.hpp"
#include "data/pipeline.hpp"
#include "data/sampler.hpp"
#include "dist/dist_optimizer.hpp"
#include "frameworks/framework.hpp"
#include "graph/microbatch.hpp"
#include "graph/shape_inference.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "train/optimizers.hpp"
#include "train/trainer.hpp"

namespace d500 {
namespace {

TEST(Integration, ModelExchangeAcrossFrameworks) {
  // Author in one place, serialize, deserialize, run everywhere —
  // Use Case 2 ("reuse networks across frameworks").
  const Model authored = models::resnet(2, 3, 16, 16, 10, 8, 1, 91);
  const auto bytes = serialize_model(authored);
  const Model exchanged = deserialize_model(bytes);

  Rng rng(4);
  TensorMap feeds;
  Tensor d({2, 3, 16, 16});
  d.fill_uniform(rng, -1, 1);
  feeds["data"] = d;
  feeds["labels"] = Tensor({2});

  ReferenceExecutor ref(build_network(authored));
  const Tensor want = ref.inference(feeds).at("logits");
  for (const Framework* fw : all_frameworks()) {
    auto exec = fw->compile(exchanged);
    const Tensor got = exec->inference(feeds).at("logits");
    for (std::int64_t i = 0; i < want.elements(); ++i)
      ASSERT_NEAR(got.at(i), want.at(i), 5e-3f) << fw->name() << " i=" << i;
  }
}

TEST(Integration, SaveLoadTrainIsBitReproducible) {
  // Per-process names: several checkouts may run ctest on one host.
  const std::string path =
      scratch_dir() + "/integ_model_" + std::to_string(getpid()) + ".d5m";
  const Model m = models::mlp(8, 20, {16}, 4, 92);
  save_model(m, path);
  const Model loaded = load_model(path);
  std::filesystem::remove(path);

  auto train_5_steps = [&](const Model& model) {
    ReferenceExecutor exec(build_network(model));
    MomentumOptimizer opt(exec, 0.1, 0.9);
    opt.set_loss_value("loss");
    Rng rng(7);
    for (int s = 0; s < 5; ++s) {
      TensorMap feeds;
      Tensor d({8, 20});
      d.fill_uniform(rng, -1, 1);
      feeds["data"] = std::move(d);
      Tensor l({8});
      for (int i = 0; i < 8; ++i) l.at(i) = static_cast<float>(i % 4);
      feeds["labels"] = std::move(l);
      opt.train(feeds);
    }
    std::vector<float> out;
    for (const auto& p : exec.network().parameters()) {
      const Tensor& t = exec.network().fetch_tensor(p);
      out.insert(out.end(), t.data(), t.data() + t.elements());
    }
    return out;
  };

  const auto a = train_5_steps(m);
  const auto b = train_5_steps(loaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "bit-reproducibility broken at " << i;
}

TEST(Integration, CustomOperatorInsideNetworkUnderFramework) {
  // MedianPool2D (the paper's custom-operator example) wired into a graph
  // and executed by every framework engine.
  Rng rng(6);
  Tensor w({4, 1 * 6 * 6});
  w.fill_kaiming(rng, 36);
  Tensor b({4});
  const Model m = ModelBuilder("custom")
                      .input("data", {2, 1, 12, 12})
                      .initializer("fc.w", std::move(w))
                      .initializer("fc.b", std::move(b))
                      .node("MedianPool2D", {"data"}, {"pooled"},
                            Attrs{{"kernel", std::int64_t{2}}})
                      .node("Flatten", {"pooled"}, {"flat"})
                      .node("Linear", {"flat", "fc.w", "fc.b"}, {"logits"})
                      .output("logits")
                      .build();
  TensorMap feeds;
  Tensor d({2, 1, 12, 12});
  d.fill_uniform(rng, -1, 1);
  feeds["data"] = d;

  ReferenceExecutor ref(build_network(m));
  const Tensor want = ref.inference(feeds).at("logits");
  for (const Framework* fw : all_frameworks()) {
    auto exec = fw->compile(m);
    const Tensor got = exec->inference(feeds).at("logits");
    for (std::int64_t i = 0; i < want.elements(); ++i)
      ASSERT_NEAR(got.at(i), want.at(i), 1e-4f) << fw->name();
  }
}

TEST(Integration, RecordPipelineFeedsFrameworkTraining) {
  // Levels 2+1: materialized on-disk records -> pseudo-shuffle pipeline ->
  // minibatches -> framework executor training.
  const std::string dir =
      scratch_dir() + "/integ_pipeline_" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  DatasetSpec spec{"integ", 1, 12, 12, 4, 128};
  ProceduralImageDataset src(spec, 93);
  const MaterializedDataset mat =
      materialize_dataset(src, dir, "integ", /*shards=*/2, /*quality=*/90);

  RecordPipeline pipe(mat.shard_paths, spec, /*shuffle_buffer=*/64,
                      DecoderKind::kTurboSim, 5);
  const Model m = models::lenet(16, 1, 12, 12, 4, 93);
  auto exec = ptsim().compile(m);
  auto opt = ptsim().native_adam(*exec, 0.01);
  opt->set_loss_value("loss");

  double first = 0, last = 0;
  const int steps = 24;
  for (int s = 0; s < steps; ++s) {
    Batch b = pipe.next_batch(16);
    TensorMap feeds;
    feeds["data"] = std::move(b.data);
    feeds["labels"] = std::move(b.labels);
    const auto out = opt->train(feeds);
    if (s == 0) first = out.at("loss").at(0);
    last = out.at("loss").at(0);
  }
  EXPECT_LT(last, first) << "training through the on-disk pipeline failed";
  std::filesystem::remove_all(dir);
}

TEST(Integration, DistributedTrainingOverFrameworkExecutors) {
  // Levels 3+1: DSGD where each rank runs a *framework* executor (not the
  // reference one) — the combination Listing 8 advertises.
  const int world = 2;
  const std::int64_t per = 4;
  const Model model = models::mlp(per, 16, {12}, 3, 94);

  SimMpi mpi(world);
  std::vector<std::vector<float>> params(world);
  std::mutex mu;
  mpi.run([&](Communicator& comm) {
    auto exec = cf2sim().compile(model);
    auto base = std::make_unique<GradientDescentOptimizer>(*exec, 0.1);
    ConsistentDecentralized dsgd(std::move(base), comm);
    dsgd.set_loss_value("loss");
    Rng rng(100);  // same stream on both ranks; slices differ below
    for (int s = 0; s < 4; ++s) {
      Tensor gd({world * per, 16}), gl({world * per});
      gd.fill_uniform(rng, -1, 1);
      for (std::int64_t i = 0; i < world * per; ++i)
        gl.at(i) = static_cast<float>(rng.below(3));
      TensorMap feeds;
      Tensor d({per, 16}), l({per});
      for (std::int64_t i = 0; i < per; ++i) {
        for (int k = 0; k < 16; ++k)
          d.at(i * 16 + k) = gd.at((comm.rank() * per + i) * 16 + k);
        l.at(i) = gl.at(comm.rank() * per + i);
      }
      feeds["data"] = std::move(d);
      feeds["labels"] = std::move(l);
      dsgd.train(feeds);
    }
    std::lock_guard<std::mutex> lock(mu);
    params[static_cast<std::size_t>(comm.rank())] =
        pack_parameters(exec->network());
  });
  ASSERT_EQ(params[0].size(), params[1].size());
  for (std::size_t i = 0; i < params[0].size(); ++i)
    ASSERT_NEAR(params[0][i], params[1][i], 1e-6f)
        << "synchronous ranks diverged at " << i;
}

TEST(Integration, MicrobatchedModelTrainsEndToEnd) {
  // Level 1 transform + Level 2 training: the micro-batched graph is not
  // just inference-equivalent, it trains.
  const Model m = models::alexnet_like(16, 95, /*with_loss=*/true);
  const auto est = estimate_memory(m);
  MicrobatchTransform tr(est.max_workspace_bytes / 4, {2, 4, 8});
  const Model split = tr.apply(m);

  ReferenceExecutor exec(build_network(split));
  GradientDescentOptimizer opt(exec, 0.1);
  opt.set_loss_value("loss");
  Rng rng(8);
  double first = 0, last = 0;
  for (int s = 0; s < 6; ++s) {
    TensorMap feeds;
    Tensor d({16, 16, 16, 16});
    d.fill_uniform(rng, -1, 1);
    feeds["data"] = std::move(d);
    Tensor l({16});
    for (int i = 0; i < 16; ++i) l.at(i) = static_cast<float>(i % 10);
    feeds["labels"] = std::move(l);
    const auto out = opt.train(feeds);
    if (s == 0) first = out.at("loss").at(0);
    last = out.at("loss").at(0);
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace d500
