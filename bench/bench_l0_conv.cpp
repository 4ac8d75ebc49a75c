// E1 / Fig. 6a — Level 0 convolution benchmark.
//
// For each simulated framework, measures the native Conv2D kernel and the
// same kernel wrapped as a Deep500 custom operator across the C ABI
// (custom_op_from_native), over the DeepBench-derived size list, plus the
// DeepBench bare-kernel baseline. Reports, per the paper's protocol:
//  * runtime distribution over all sizes (violin-plot data: quartiles),
//  * the highlighted size with median + 95% CI and CI-overlap verdicts,
//  * E3: the L-inf norm between each framework's output and the Deep500
//    reference implementation (paper §V-B: ~7e-4),
//  * the im2col forward and backward pass (dX + dW + db) per size: GFLOP/s
//    as summaries with CI, and whether the backward matches the per-sample
//    naive-GEMM reference,
//  * whether the im2col (implicit-GEMM) forward is bitwise equal to
//    conv2d_forward_reference at every size.
// Results land in BENCH_conv.json.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>

#include "common.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "frameworks/framework.hpp"
#include "ops/conv2d.hpp"

namespace d500::bench {
namespace {

Attrs conv_attrs(const ConvSize& s) {
  Attrs a;
  a.set("kernel", s.R);
  a.set("stride", s.stride);
  a.set("pad", s.pad);
  return a;
}

struct ConvData {
  Tensor x, w, b, y;
};

ConvData make_data(const ConvSize& s, Rng& rng) {
  ConvData d;
  d.x = Tensor({s.N, s.C, s.H, s.W});
  d.w = Tensor({s.K, s.C, s.R, s.R});
  d.b = Tensor({s.K});
  d.x.fill_uniform(rng, -1, 1);
  d.w.fill_uniform(rng, -0.5f, 0.5f);
  d.b.fill_uniform(rng, -0.5f, 0.5f);
  Conv2DParams p{s.R, s.R, s.stride, s.pad, 1};
  Conv2DOp probe(p);
  d.y = Tensor(probe.output_shapes({d.x.shape(), d.w.shape(), d.b.shape()})[0]);
  return d;
}

std::string size_label(const ConvSize& s) {
  return "N" + std::to_string(s.N) + "C" + std::to_string(s.C) + "H" +
         std::to_string(s.H) + "K" + std::to_string(s.K) + "R" +
         std::to_string(s.R) + "s" + std::to_string(s.stride);
}

/// max |got - ref| / max(1, max |ref|): the normwise relative L-inf error.
double rel_linf(const Tensor& got, const Tensor& ref) {
  double err = 0, scale = 1;
  for (std::int64_t i = 0; i < ref.elements(); ++i) {
    err = std::max(err, static_cast<double>(std::fabs(got.at(i) - ref.at(i))));
    scale = std::max(scale, static_cast<double>(std::fabs(ref.at(i))));
  }
  return err / scale;
}

struct BackwardResult {
  SampleSummary fwd_gflops;  // per-call rate of one forward
  SampleSummary gflops;  // per-call rate of one dX + dW + db backward
  double rel_err = 0;    // worst rel_linf over dX, dW, db
  bool fwd_bitwise = false;  // forward Y == conv2d_forward_reference's
};

/// Times Conv2DOp::forward and Conv2DOp::backward (im2col backend), the
/// latter on random dY; checks the forward against conv2d_forward_reference
/// and the backward against conv2d_backward_reference.
BackwardResult measure_backward(const ConvSize& s, ConvData& d, Rng& rng,
                                int reruns) {
  const Conv2DParams p{s.R, s.R, s.stride, s.pad, 1};
  Conv2DOp op(p);
  const double fwd_flops = static_cast<double>(
      op.forward_flops({d.x.shape(), d.w.shape(), d.b.shape()}));
  op.forward({&d.x, &d.w, &d.b}, {&d.y});  // warm-up: workspaces, page faults
  std::vector<double> fwd_rates;
  for (int r = 0; r < reruns; ++r) {
    Timer t;
    op.forward({&d.x, &d.w, &d.b}, {&d.y});
    fwd_rates.push_back(fwd_flops / t.seconds() * 1e-9);
  }
  Tensor ref_y(d.y.shape());
  conv2d_forward_reference(d.x, d.w, d.b, p, &ref_y);
  const bool fwd_bitwise =
      std::memcmp(d.y.data(), ref_y.data(), d.y.bytes()) == 0;
  Tensor dy(d.y.shape());
  dy.fill_uniform(rng, -1, 1);
  Tensor dx(d.x.shape()), dw(d.w.shape()), db(d.b.shape());
  const ConstTensors gout{&dy}, fin{&d.x, &d.w, &d.b}, fout{&d.y};
  const MutTensors gin{&dx, &dw, &db};
  // dX and dW each cost one forward's multiply-adds; db one add per dY.
  const double flops = 2.0 * fwd_flops + static_cast<double>(dy.elements());
  op.backward(gout, fin, fout, gin);  // warm-up: workspaces, page faults
  std::vector<double> rates;
  for (int r = 0; r < reruns; ++r) {
    Timer t;
    op.backward(gout, fin, fout, gin);
    rates.push_back(flops / t.seconds() * 1e-9);
  }
  Tensor rx(d.x.shape()), rw(d.w.shape()), rb(d.b.shape());
  conv2d_backward_reference(d.x, d.w, dy, p, &rx, &rw, &rb);
  BackwardResult res;
  res.fwd_gflops = summarize(fwd_rates);
  res.gflops = summarize(rates);
  res.rel_err =
      std::max({rel_linf(dx, rx), rel_linf(dw, rw), rel_linf(db, rb)});
  res.fwd_bitwise = fwd_bitwise;
  return res;
}

struct Series {
  std::vector<double> medians;  // per size, milliseconds
  void add(const SampleSummary& s) { medians.push_back(s.median * 1e3); }
  std::string distribution() const {
    const auto s = summarize(medians);
    return Table::num(s.p25, 2) + " / " + Table::num(s.median, 2) + " / " +
           Table::num(s.p75, 2);
  }
};

}  // namespace

int run() {
  print_bench_header("L0 convolution (Fig. 6a)", bench_seed(),
                     "sizes=DeepBench-derived (spatially scaled 1/4)");
  Rng rng(bench_seed());
  const auto sizes = deepbench_conv_sizes();
  const int reruns = bench_reruns();
  const int sweep_reruns = scale_pick(3, 5, 10);

  Series deepbench_series;
  std::map<std::string, Series> native_series, wrapped_series;
  std::map<std::string, double> worst_linf;

  for (const ConvSize& s : sizes) {
    ConvData d = make_data(s, rng);
    const ConstTensors in{&d.x, &d.w, &d.b};
    const MutTensors out{&d.y};

    // Reference output (Deep500 reference implementation: direct conv).
    Attrs ref_attrs = conv_attrs(s);
    ref_attrs.set("backend", std::string("direct"));
    auto ref_op = OperatorRegistry::instance().create("Conv2D", ref_attrs);
    Tensor ref_y(d.y.shape());
    ref_op->forward(in, {&ref_y});
    const std::vector<float> reference(ref_y.data(),
                                       ref_y.data() + ref_y.elements());

    auto db = deepbench_kernel("Conv2D", conv_attrs(s));
    deepbench_series.add(time_operator(*db, in, out, sweep_reruns));

    for (const Framework* fw : all_frameworks()) {
      auto native = fw->native_operator("Conv2D", conv_attrs(s));
      native_series[fw->name()].add(
          time_operator(*native, in, out, sweep_reruns));
      NormMetric linf(reference, NormKind::kLInf);
      linf.observe(d.y.span());
      worst_linf[fw->name()] =
          std::max(worst_linf[fw->name()], linf.summary());

      auto wrapped = custom_op_from_native(*fw, "Conv2D", conv_attrs(s));
      wrapped_series[fw->name()].add(
          time_operator(*wrapped, in, out, sweep_reruns));
    }
  }

  // Backward (dX + dW + db) per size. Tolerance: the normwise relative
  // L-inf error of each gradient stays within 1e-4 of the reference (the
  // two sum the same products in different orders).
  constexpr double kBwdTol = 1e-4;
  BenchReport report("l0_conv");
  Table bwd({"size", "forward GFLOP/s [95% CI]", "backward GFLOP/s [95% CI]",
             "rel L-inf vs reference"});
  bool bwd_matches = true;
  bool fwd_matches = true;
  for (const ConvSize& s : sizes) {
    ConvData d = make_data(s, rng);
    const BackwardResult r = measure_backward(s, d, rng, sweep_reruns);
    bwd.add_row({size_label(s),
                 summary_to_string(r.fwd_gflops, 1.0, "GFLOP/s"),
                 summary_to_string(r.gflops, 1.0, "GFLOP/s"),
                 Table::num(r.rel_err, 8)});
    report.add_summary("fwd." + size_label(s) + ".gflops", r.fwd_gflops,
                       "GFLOP/s", Better::kHigher);
    report.add_summary("bwd." + size_label(s) + ".gflops", r.gflops,
                       "GFLOP/s", Better::kHigher);
    bwd_matches = bwd_matches && r.rel_err <= kBwdTol;
    fwd_matches = fwd_matches && r.fwd_bitwise;
  }

  std::cout << "\n-- All kernels (per-size medians, ms: p25 / median / p75) --\n";
  Table dist({"framework", "native", "deep500-wrapped"});
  dist.add_row({"deepbench", deepbench_series.distribution(), "-"});
  for (const Framework* fw : all_frameworks())
    dist.add_row({fw->name(), native_series[fw->name()].distribution(),
                  wrapped_series[fw->name()].distribution()});
  std::cout << dist.to_text();

  // Highlighted size: full CI protocol.
  std::cout << "\n-- Highlighted size N=16 C=3 HxW=56x56 k3x3 (paper: 224x224"
               " scaled 1/4), "
            << reruns << " runs --\n";
  const ConvSize hs = highlighted_conv_size();
  ConvData d = make_data(hs, rng);
  const ConstTensors in{&d.x, &d.w, &d.b};
  const MutTensors out{&d.y};
  auto db = deepbench_kernel("Conv2D", conv_attrs(hs));
  const SampleSummary db_time = time_operator(*db, in, out, reruns);

  Table high({"configuration", "median [95% CI]", "vs native"});
  high.add_row({"deepbench (bare kernel)", ms(db_time), "-"});
  bool deepbench_fastest = true;
  report.add_summary("highlight.deepbench_s", db_time, "s");
  for (const Framework* fw : all_frameworks()) {
    auto native = fw->native_operator("Conv2D", conv_attrs(hs));
    auto wrapped = custom_op_from_native(*fw, "Conv2D", conv_attrs(hs));
    const SampleSummary tn = time_operator(*native, in, out, reruns);
    const SampleSummary tw = time_operator(*wrapped, in, out, reruns);
    high.add_row({fw->name() + " native", ms(tn), "-"});
    high.add_row({fw->name() + " deep500", ms(tw),
                  ci_overlap(tn, tw) ? "within CI (indistinguishable)"
                                     : "outside CI"});
    report.add_summary("highlight." + fw->name() + ".native_s", tn, "s");
    report.add_summary("highlight." + fw->name() + ".wrapped_s", tw, "s");
    report.add_flag(fw->name() + ".wrap_within_ci", ci_overlap(tn, tw));
    // Frameworks sharing the fastest kernel tie with the baseline up to
    // single-core timing noise; "fastest" means no framework clearly
    // undercuts it.
    if (tn.median < db_time.median * 0.90) deepbench_fastest = false;
  }
  std::cout << high.to_text();

  std::cout << "\n-- Correctness: worst L-inf vs Deep500 reference (paper: "
               "~7e-4) --\n";
  Table norms({"framework", "linf"});
  for (const auto& [name, v] : worst_linf)
    norms.add_row({name, Table::num(v, 6)});
  std::cout << norms.to_text();

  std::cout << "\n-- im2col forward (implicit GEMM) and backward dX + dW + "
               "db (whole-minibatch packed GEMMs); backward vs per-sample "
               "naive reference, tolerance "
            << kBwdTol << " --\n"
            << bwd.to_text();
  std::cout << "\nim2col forward bitwise equal to conv2d_forward_reference "
               "at every size: "
            << (fwd_matches ? "yes" : "NO") << "\n";

  std::cout << "\nshape check: deepbench baseline fastest at highlighted "
               "size: "
            << (deepbench_fastest ? "yes" : "NO") << "\n";

  for (const auto& [name, v] : worst_linf)
    report.add_scalar("linf." + name, v, "abs");
  report.add_flag("deepbench_fastest", deepbench_fastest);
  report.add_flag("bwd_matches_reference", bwd_matches);
  report.add_flag("fwd_matches_reference", fwd_matches);
  JsonWriter extra;
  extra.begin_object();
  extra.key("highlight_size");
  extra.begin_object();
  extra.kv("N", static_cast<std::int64_t>(hs.N));
  extra.kv("C", static_cast<std::int64_t>(hs.C));
  extra.kv("H", static_cast<std::int64_t>(hs.H));
  extra.kv("W", static_cast<std::int64_t>(hs.W));
  extra.kv("K", static_cast<std::int64_t>(hs.K));
  extra.kv("R", static_cast<std::int64_t>(hs.R));
  extra.kv("stride", static_cast<std::int64_t>(hs.stride));
  extra.kv("pad", static_cast<std::int64_t>(hs.pad));
  extra.end_object();
  extra.kv("sizes_swept", static_cast<std::uint64_t>(sizes.size()));
  extra.end_object();
  report.set_extra_json(extra.take());
  report.write_file("BENCH_conv.json");
  return 0;
}

}  // namespace d500::bench

int main() { return d500::bench::run(); }
