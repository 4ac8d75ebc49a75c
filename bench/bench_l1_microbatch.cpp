// E4 / Fig. 7 + §V-C — the micro-batching graph transformation.
//
// Reproduced effects:
//  * PTSim (eager, whole-batch im2col conv) exceeds the device memory
//    budget at the full minibatch -> OOM; the transformed graph fits and
//    runs (the paper: PyTorch OOM at minibatch >= 468, transformed ~225ms).
//  * TFSim (direct conv, defensive copies around Split/Concat) worked
//    before the transformation and gets *slower* after it (paper: 350ms ->
//    380ms, extra memory copies).
// Chunk sizes come from the exact DP solver fed with *measured* per-size
// convolution costs (the paper's ILP).
#include <iostream>

#include "common.hpp"
#include "core/rng.hpp"
#include "frameworks/framework.hpp"
#include "graph/microbatch.hpp"
#include "graph/shape_inference.hpp"
#include "models/builders.hpp"

namespace d500::bench {
namespace {

SampleSummary time_executor(GraphExecutor& exec, const TensorMap& feeds,
                            int reruns) {
  exec.inference(feeds);  // warmup / plan compilation
  std::vector<double> times;
  for (int r = 0; r < reruns; ++r) {
    Timer t;
    exec.inference(feeds);
    times.push_back(t.seconds());
  }
  return summarize(times);
}

}  // namespace

int run() {
  const std::int64_t batch = scale_pick<std::int64_t>(32, 96, 192);
  print_bench_header("L1 micro-batching (Fig. 7, paper SV-C)", bench_seed(),
                     "minibatch=" + std::to_string(batch) +
                         " (paper: 468 on AlexNet)");
  const int reruns = scale_pick(3, 7, 15);
  Rng rng(bench_seed());

  const Model model = models::alexnet_like(batch, bench_seed(), false);
  TensorMap feeds;
  Tensor data({batch, 16, 16, 16});
  data.fill_uniform(rng, -1, 1);
  feeds["data"] = std::move(data);

  // Memory budget: between TFSim's (direct conv) and PTSim's (whole-batch
  // im2col) peak — the regime where the paper's asymmetry appears.
  auto pt_probe = ptsim().compile(model);
  pt_probe->inference(feeds);
  const std::size_t pt_peak = pt_probe->last_peak_memory();
  auto tf_probe = tfsim().compile(model);
  tf_probe->inference(feeds);
  const std::size_t tf_peak = tf_probe->last_peak_memory();
  const std::size_t budget = tf_peak + (pt_peak - tf_peak) / 3;
  std::cout << "device memory budget: " << budget / 1024 / 1024
            << " MiB  (ptsim peak " << pt_peak / 1024 / 1024
            << " MiB, tfsim peak " << tf_peak / 1024 / 1024 << " MiB)\n";

  // --- Before the transformation ---
  Table before({"framework", "untransformed result"});
  bool pt_oomed = false;
  {
    auto pt = ptsim().compile(model);
    pt->set_memory_limit(budget);
    try {
      pt->inference(feeds);
      before.add_row({"ptsim", "ran (unexpected)"});
    } catch (const OutOfMemoryError&) {
      pt_oomed = true;
      before.add_row({"ptsim", "OUT OF MEMORY (paper: PyTorch OOM)"});
    }
  }
  SampleSummary tf_before;
  {
    auto tf = tfsim().compile(model);
    tf->set_memory_limit(budget);
    tf_before = time_executor(*tf, feeds, reruns);
    before.add_row({"tfsim", ms(tf_before)});
  }
  std::cout << "\n" << before.to_text();

  // --- Solve micro-batch sizes with measured costs (the ILP step) ---
  const auto shapes = infer_shapes(model);
  const Shape x_shape = shapes.at("data");
  Conv2DParams conv_params;
  conv_params.kernel_h = conv_params.kernel_w = 5;
  conv_params.pad = 2;
  std::vector<std::int64_t> candidates{2, 4, 8, 16, 32};
  MicrobatchCostFn measured_cost = [&](std::int64_t s) {
    MicrobatchOption opt;
    opt.size = s;
    Shape xs = x_shape;
    xs[0] = s;
    opt.memory_bytes = conv_workspace_bytes(xs, 32, conv_params);
    // Measure the actual micro-convolution once.
    Rng r2(bench_seed() + static_cast<std::uint64_t>(s));
    Tensor x(xs), w({32, 16, 5, 5}), b({32});
    x.fill_uniform(r2, -1, 1);
    w.fill_uniform(r2, -1, 1);
    Conv2DOp op(conv_params, ConvBackend::kIm2col);
    Tensor y(op.output_shapes({x.shape(), w.shape(), b.shape()})[0]);
    op.forward({&x, &w, &b}, {&y});  // warmup
    Timer t;
    op.forward({&x, &w, &b}, {&y});
    opt.cost_seconds = t.seconds();
    opt.backend = ConvBackend::kIm2col;
    return opt;
  };

  // Split any conv whose workspace alone exceeds what the budget leaves.
  const std::size_t conv_budget = budget - tf_peak / 2;
  MicrobatchTransform transform(conv_budget, candidates, measured_cost);
  const Model split_model = transform.apply(model);
  int chunks = 0;
  for (const auto& n : split_model.nodes)
    if (n.op_type == "Conv2D") ++chunks;
  std::cout << "\ntransform: conv split into " << chunks
            << " micro-batches (DP over measured per-size costs, budget "
            << conv_budget / 1024 / 1024 << " MiB workspace)\n";

  // --- After the transformation ---
  Table after({"framework", "transformed result", "verdict"});
  SampleSummary pt_after, tf_after;
  bool pt_runs_now = false;
  {
    auto pt = ptsim().compile(split_model);
    pt->set_memory_limit(budget);
    try {
      pt_after = time_executor(*pt, feeds, reruns);
      pt_runs_now = true;
      after.add_row({"ptsim", ms(pt_after),
                     "OOM eliminated (paper: enabled PyTorch, ~225ms)"});
    } catch (const OutOfMemoryError&) {
      after.add_row({"ptsim", "OUT OF MEMORY", "transform insufficient"});
    }
  }
  bool tf_oomed_after = false;
  {
    auto tf = tfsim().compile(split_model);
    tf->set_memory_limit(budget);
    try {
      tf_after = time_executor(*tf, feeds, reruns);
      const double slowdown = tf_after.median / tf_before.median;
      after.add_row({"tfsim", ms(tf_after),
                     "slowdown x" + Table::num(slowdown, 2) +
                         " from split/concat copies (paper: 350->380ms)"});
    } catch (const OutOfMemoryError&) {
      // The defensive Split/Concat copies alone can outgrow a budget
      // that the untransformed direct-conv graph fits.
      tf_oomed_after = true;
      after.add_row({"tfsim", "OUT OF MEMORY",
                     "split/concat copies exceed the budget"});
    }
  }
  std::cout << "\n" << after.to_text();

  std::cout << "\nshape check: ptsim OOM before=" << (pt_oomed ? "yes" : "NO")
            << ", runs after=" << (pt_runs_now ? "yes" : "NO")
            << ", tfsim gains nothing / pays copy overhead="
            << (tf_oomed_after ? "yes (OOM after)"
                : tf_after.median > tf_before.median * 0.97 ? "yes"
                                                            : "NO")
            << "\n(the paper's 8% TFSim slowdown assumes GPU-speed convs; "
               "on CPU the copy cost is real but small relative to the "
               "direct convolution — see EXPERIMENTS.md)\n";
  return 0;
}

}  // namespace d500::bench

int main() { return d500::bench::run(); }
