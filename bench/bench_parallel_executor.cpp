// Inter-op parallel execution: training-step time of a branchy model under
// the shared thread-pool runtime. Rows cover the two parallelism layers
// separately — the reference executor at N threads gets intra-op
// parallelism only (kernels on the pool), as do serial PlanExecutor steps,
// while ExecOptions::parallel also schedules independent branches of the
// forward and backward passes concurrently through the plan's dependency
// tables. The determinism contract is checked alongside the timing: an
// FNV-1a checksum over all outputs and gradients must be identical across
// every executor/thread-count combination. Writes BENCH_parallel.json.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/model.hpp"
#include "graph/visitor.hpp"

namespace d500::bench {
namespace {

/// Inception-style branchy MLP: `branches` independent Linear+ReLU chains
/// of depth `depth` fan out from the input and are summed pairwise into a
/// classifier. The branches share no values, so an inter-op scheduler can
/// run them concurrently; a serial walk cannot.
Model branchy_model(std::int64_t batch, std::int64_t dim, int branches,
                    int depth, std::int64_t classes, std::uint64_t seed) {
  Rng rng(seed);
  ModelBuilder b("branchy");
  b.input("data", {batch, dim});
  std::vector<std::string> ends;
  for (int br = 0; br < branches; ++br) {
    std::string cur = "data";
    for (int l = 0; l < depth; ++l) {
      const std::string p =
          "b" + std::to_string(br) + ".fc" + std::to_string(l);
      Tensor w({dim, dim});
      w.fill_kaiming(rng, dim);
      b.initializer(p + ".w", std::move(w));
      b.initializer(p + ".b", Tensor({dim}));
      b.node("Linear", {cur, p + ".w", p + ".b"}, {p + ".z"}, {}, p);
      b.node("ReLU", {p + ".z"}, {p + ".a"}, {}, p + "_relu");
      cur = p + ".a";
    }
    ends.push_back(cur);
  }
  std::string acc = ends[0];
  for (std::size_t i = 1; i < ends.size(); ++i) {
    const std::string s = "sum" + std::to_string(i);
    b.node("Add", {acc, ends[i]}, {s}, {}, "add" + std::to_string(i));
    acc = s;
  }
  Tensor fw({classes, dim});
  fw.fill_kaiming(rng, dim);
  b.initializer("fc.w", std::move(fw));
  b.initializer("fc.b", Tensor({classes}));
  b.node("Linear", {acc, "fc.w", "fc.b"}, {"logits"}, {}, "fc");
  b.output("logits");
  b.input("labels", {batch});
  b.node("SoftmaxCrossEntropy", {"logits", "labels"}, {"loss"});
  b.output("loss");
  return b.build();
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Checksum over every output and gradient of one training step (TensorMap
/// is ordered, so the hash order is well defined).
std::uint64_t step_checksum(GraphExecutor& exec, const TensorMap& feeds) {
  const TensorMap outs = exec.inference_and_backprop(feeds, "loss");
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, t] : outs) {
    h = fnv1a(h, name.data(), name.size());
    h = fnv1a(h, t.data(), t.bytes());
  }
  for (const auto& [pname, gname] : exec.network().gradients()) {
    const Tensor g = exec.network().fetch_tensor(gname);
    h = fnv1a(h, gname.data(), gname.size());
    h = fnv1a(h, g.data(), g.bytes());
  }
  return h;
}

std::string hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] =
      digits[v & 0xf];
  return s;
}

}  // namespace

int run() {
  const std::int64_t batch = 32;
  const std::int64_t dim = scale_pick<std::int64_t>(192, 192, 256);
  const int branches = 6;
  const int depth = 2;
  const int reruns = bench_reruns();
  const int par_threads = std::max(2, ThreadPool::instance().num_threads());

  print_bench_header(
      "inter-op parallel executor", bench_seed(),
      "branchy mlp: " + std::to_string(branches) + " branches x depth " +
          std::to_string(depth) + ", dim=" + std::to_string(dim) +
          ", batch=" + std::to_string(batch) +
          ", threads=" + std::to_string(par_threads));

  const Model m = branchy_model(batch, dim, branches, depth, /*classes=*/10,
                                bench_seed());
  Rng rng(bench_seed() + 1);
  TensorMap feeds;
  feeds["data"] = Tensor({batch, dim});
  feeds["data"].fill_uniform(rng, -1, 1);
  feeds["labels"] = Tensor({batch});
  for (std::int64_t i = 0; i < batch; ++i)
    feeds["labels"].at(i) = static_cast<float>(rng.below(10));

  struct Row {
    std::string label;
    std::string key;  // report metric prefix
    int threads;
    std::unique_ptr<GraphExecutor> exec;
    std::vector<double> times;
    std::uint64_t checksum = 0;
  };
  auto make_reference_row = [&](const std::string& label,
                                const std::string& key, int threads) {
    Row r;
    r.label = label;
    r.key = key;
    r.threads = threads;
    r.exec = std::make_unique<ReferenceExecutor>(build_network(m));
    return r;
  };
  auto make_plan_row = [&](const std::string& label, const std::string& key,
                           bool inter_op) {
    Row r;
    r.label = label;
    r.key = key;
    r.threads = par_threads;
    ExecOptions o;
    o.parallel = inter_op;
    r.exec = std::make_unique<PlanExecutor>(build_network(m), label, o);
    return r;
  };
  std::vector<Row> rows;
  rows.push_back(make_reference_row("reference (serial)", "reference_serial", 1));
  rows.push_back(make_reference_row("reference, intra-op only",
                                    "reference_intra_op", par_threads));
  rows.push_back(make_plan_row("plan, intra-op only", "plan_serial", false));
  rows.push_back(make_plan_row("plan{parallel}, intra+inter-op",
                               "plan_parallel", true));

  // Interleave the configurations round-robin: one timed step of each per
  // rerun, so background-load drift hits all rows equally instead of
  // biasing whichever happened to be measured first.
  for (auto& r : rows) {
    ThreadPool::instance().reset(r.threads);
    r.exec->inference_and_backprop(feeds, "loss");  // warmup
  }
  for (int rr = 0; rr < reruns; ++rr) {
    for (auto& r : rows) {
      ThreadPool::instance().reset(r.threads);
      Timer t;
      r.exec->inference_and_backprop(feeds, "loss");
      r.times.push_back(t.seconds());
    }
  }
  for (auto& r : rows) {
    ThreadPool::instance().reset(r.threads);
    r.checksum = step_checksum(*r.exec, feeds);
  }

  Table t({"executor", "threads", "step time", "checksum"});
  std::vector<SampleSummary> summaries;
  for (const auto& r : rows) {
    summaries.push_back(summarize(r.times));
    t.add_row({r.label, std::to_string(r.threads), ms(summaries.back()),
               hex(r.checksum)});
  }
  std::cout << t.to_text();

  const double serial = summaries[0].median;
  const double intra = serial / summaries[1].median;
  const double plan_intra = serial / summaries[2].median;
  const double full = serial / summaries[3].median;
  std::cout << "\nspeedup at " << par_threads
            << " threads: reference intra-op only " << Table::num(intra, 2)
            << "x, plan intra-op only " << Table::num(plan_intra, 2)
            << "x, plan intra+inter-op " << Table::num(full, 2) << "x\n";
  const bool deterministic = std::all_of(
      rows.begin(), rows.end(),
      [&](const Row& r) { return r.checksum == rows[0].checksum; });
  std::cout << "determinism: checksums identical across all rows: "
            << (deterministic ? "yes" : "NO") << "\n";

  BenchReport report("parallel_executor");
  for (std::size_t i = 0; i < rows.size(); ++i)
    report.add_summary(rows[i].key + ".step_s", summaries[i], "s");
  report.add_flag("checksums_identical", deterministic);
  // Wall-clock speedup needs real cores; on a host with fewer cores than
  // pool threads the honest expectation is no regression, not speedup, and
  // the flag is left out.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= static_cast<unsigned>(par_threads)) {
    std::cout << "shape check: intra+inter-op speedup > 1: "
              << (full > 1.0 ? "yes" : "NO") << "\n";
    report.add_flag("inter_op_speedup_gt_1", full > 1.0);
  } else {
    std::cout << "shape check: no regression on " << hw
              << "-core host (speedup needs >= " << par_threads
              << " cores): " << (full > 0.85 ? "yes" : "NO") << "\n";
  }
  report.write_file("BENCH_parallel.json");
  return deterministic ? 0 : 1;
}

}  // namespace d500::bench

int main() { return d500::bench::run(); }
