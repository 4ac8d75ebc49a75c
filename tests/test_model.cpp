// Tests of the model format: builder validation, binary serialization
// round trips (the reproducibility pillar: a stored model reloads
// bit-identically), text dump, and the stock architecture builders.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include <unistd.h>

#include "core/env.hpp"
#include "graph/model.hpp"
#include "graph/shape_inference.hpp"
#include "models/builders.hpp"

namespace d500 {
namespace {

Model tiny_model() {
  Rng rng(5);
  Tensor w({4, 3});
  w.fill_uniform(rng, -1, 1);
  Tensor b({4});
  return ModelBuilder("tiny")
      .input("data", {2, 3})
      .initializer("w", std::move(w))
      .initializer("b", std::move(b))
      .node("Linear", {"data", "w", "b"}, {"logits"})
      .output("logits")
      .build();
}

TEST(Model, BuilderProducesValidModel) {
  const Model m = tiny_model();
  EXPECT_EQ(m.nodes.size(), 1u);
  EXPECT_EQ(m.parameter_count(), 16);
  EXPECT_NE(m.producer("logits"), nullptr);
  EXPECT_EQ(m.producer("data"), nullptr);
}

TEST(Model, ValidateCatchesMissingInput) {
  Model m = tiny_model();
  m.nodes[0].inputs[0] = "nonexistent";
  EXPECT_THROW(m.validate(), FormatError);
}

TEST(Model, ValidateCatchesDuplicateProduction) {
  Model m = tiny_model();
  ModelNode dup = m.nodes[0];
  dup.name = "dup";
  m.nodes.push_back(dup);
  EXPECT_THROW(m.validate(), FormatError);
}

TEST(Model, ValidateCatchesOutOfOrderNodes) {
  Rng rng(6);
  Model m = tiny_model();
  // Append a node consuming a value produced later -> invalid order.
  ModelNode n;
  n.name = "early";
  n.op_type = "ReLU";
  n.inputs = {"late_value"};
  n.outputs = {"early_out"};
  ModelNode producer;
  producer.name = "late";
  producer.op_type = "ReLU";
  producer.inputs = {"logits"};
  producer.outputs = {"late_value"};
  m.nodes.push_back(n);
  m.nodes.push_back(producer);
  EXPECT_THROW(m.validate(), FormatError);
}

TEST(Model, SerializationRoundTripIsExact) {
  const Model m = models::lenet(4, 1, 28, 28, 10, /*seed=*/77);
  const auto bytes = serialize_model(m);
  const Model m2 = deserialize_model(bytes);

  EXPECT_EQ(m2.name, m.name);
  EXPECT_EQ(m2.nodes.size(), m.nodes.size());
  EXPECT_EQ(m2.graph_inputs, m.graph_inputs);
  EXPECT_EQ(m2.graph_outputs, m.graph_outputs);
  EXPECT_EQ(m2.trainable, m.trainable);
  ASSERT_EQ(m2.initializers.size(), m.initializers.size());
  for (const auto& [name, t] : m.initializers) {
    const Tensor& t2 = m2.initializers.at(name);
    ASSERT_EQ(t2.shape(), t.shape());
    for (std::int64_t i = 0; i < t.elements(); ++i)
      ASSERT_EQ(t2.at(i), t.at(i)) << name << "[" << i << "]";
  }
  for (std::size_t i = 0; i < m.nodes.size(); ++i) {
    EXPECT_EQ(m2.nodes[i].name, m.nodes[i].name);
    EXPECT_EQ(m2.nodes[i].op_type, m.nodes[i].op_type);
    EXPECT_EQ(m2.nodes[i].inputs, m.nodes[i].inputs);
    EXPECT_EQ(m2.nodes[i].outputs, m.nodes[i].outputs);
  }
}

TEST(Model, FileSaveLoad) {
  const std::string path =
      scratch_dir() + "/test_model_" + std::to_string(getpid()) + ".d5m";
  const Model m = models::mlp(2, 8, {16}, 4, 9);
  save_model(m, path);
  const Model m2 = load_model(path);
  EXPECT_EQ(m2.name, m.name);
  EXPECT_EQ(m2.parameter_count(), m.parameter_count());
  std::filesystem::remove(path);
}

TEST(Model, BadMagicThrows) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(deserialize_model(junk), FormatError);
}

TEST(Model, TextDumpMentionsStructure) {
  const std::string text = model_to_text(tiny_model());
  EXPECT_NE(text.find("Linear"), std::string::npos);
  EXPECT_NE(text.find("logits"), std::string::npos);
}

TEST(Builders, MlpShapes) {
  const Model m = models::mlp(8, 20, {32, 16}, 5, 1);
  const auto shapes = infer_shapes(m);
  EXPECT_EQ(shapes.at("logits"), (Shape{8, 5}));
  EXPECT_EQ(shapes.at("loss"), (Shape{1}));
}

TEST(Builders, LenetShapes) {
  const Model m = models::lenet(2, 1, 28, 28, 10, 1);
  const auto shapes = infer_shapes(m);
  EXPECT_EQ(shapes.at("logits"), (Shape{2, 10}));
  // conv1 same-pad 28 -> pool 14 -> conv2 valid 10 -> pool 5
  EXPECT_EQ(shapes.at("p2"), (Shape{2, 16, 5, 5}));
}

TEST(Builders, ResnetShapesAndResidualTopology) {
  const Model m = models::resnet(2, 3, 16, 16, 10, 8, 2, 1);
  const auto shapes = infer_shapes(m);
  EXPECT_EQ(shapes.at("logits"), (Shape{2, 10}));
  // 3 stages with stride-2 between: 16 -> 16 -> 8 -> 4 spatial.
  EXPECT_EQ(shapes.at("gap"), (Shape{2, 32}));
  // Residual adds exist.
  int adds = 0;
  for (const auto& n : m.nodes)
    if (n.op_type == "Add") ++adds;
  EXPECT_EQ(adds, 6);  // 2 blocks x 3 stages
}

TEST(Builders, Resnet50ParameterInventory) {
  const auto shapes = models::resnet50_parameter_shapes();
  std::int64_t total = 0;
  for (const auto& s : shapes) total += shape_elements(s);
  // ResNet-50 has ~25.5M parameters; our conv+bn+fc inventory must land
  // within 2% of that.
  EXPECT_NEAR(static_cast<double>(total), 25.5e6, 0.6e6);
  EXPECT_GT(shapes.size(), 150u);
}

TEST(Builders, DeterministicSeeding) {
  const Model a = models::mlp(2, 4, {8}, 3, 42);
  const Model b = models::mlp(2, 4, {8}, 3, 42);
  const Model c = models::mlp(2, 4, {8}, 3, 43);
  const Tensor& wa = a.initializers.at("fc1.w");
  const Tensor& wb = b.initializers.at("fc1.w");
  const Tensor& wc = c.initializers.at("fc1.w");
  bool differs_c = false;
  for (std::int64_t i = 0; i < wa.elements(); ++i) {
    EXPECT_EQ(wa.at(i), wb.at(i));
    if (wa.at(i) != wc.at(i)) differs_c = true;
  }
  EXPECT_TRUE(differs_c);
}

TEST(ShapeInference, MemoryEstimate) {
  const Model m = models::alexnet_like(32, 3);
  const auto est = estimate_memory(m);
  EXPECT_GT(est.activation_bytes, 0u);
  EXPECT_GT(est.max_workspace_bytes, 0u);
  EXPECT_EQ(est.peak_bytes, est.activation_bytes + est.max_workspace_bytes);
  // The im2col workspace must scale with batch (the §V-C mechanism).
  const auto est2 = estimate_memory(models::alexnet_like(64, 3));
  EXPECT_GT(est2.max_workspace_bytes, est.max_workspace_bytes);
}

}  // namespace
}  // namespace d500
