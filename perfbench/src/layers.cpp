#include "layers.hpp"

#include <algorithm>

#include "frameworks/framework.hpp"
#include "graph/shape_inference.hpp"

namespace perfbench {

const std::vector<std::string>& reported_op_types() {
  static const std::vector<std::string> types = {
      "FusedConvBn", "Conv2D", "Linear", "Add", "ReLU", "MaxPool2D",
      "GlobalAvgPool", "Flatten", "SoftmaxCrossEntropy"};
  return types;
}

void report_op_times(Report& rep, const std::vector<double>& type_ns,
                     double passes) {
  const auto& types = reported_op_types();
  for (std::size_t k = 0; k <= types.size(); ++k)
    rep.layer("ops.fwd_ms." + (k < types.size() ? types[k] : "other"),
              type_ns[k] / passes * 1e-6, "ms");
}

StepHooks::StepHooks(const d500::Network& net, bool thread_cpu)
    : type_ns(reported_op_types().size() + 1, 0.0), thread_cpu_(thread_cpu) {
  const auto& types = reported_op_types();
  for (const auto& node : net.nodes()) {
    const std::string type = node.op ? node.op->name() : node.op_type;
    const auto it = std::find(types.begin(), types.end(), type);
    type_of_node_[node.name] = static_cast<int>(it - types.begin());
  }
}

bool StepHooks::on_event(const d500::EventInfo& info) {
  using d500::EventPoint;
  const std::int64_t t = thread_cpu_ ? thread_cpu_ns() : now_ns();
  switch (info.point) {
    case EventPoint::kBeforeInference:
      fwd_begin = t;
      break;
    case EventPoint::kAfterInference:
      fwd_end = t;
      fwd_ns += static_cast<double>(fwd_end - fwd_begin);
      ++passes;
      break;
    case EventPoint::kBeforeBackprop:
      bwd_begin = t;
      break;
    case EventPoint::kAfterBackprop:
      bwd_end = t;
      bwd_ns += static_cast<double>(bwd_end - bwd_begin);
      break;
    case EventPoint::kBeforeOperator:
      op_begin_ = t;
      break;
    case EventPoint::kAfterOperator: {
      const double d = static_cast<double>(t - op_begin_);
      ops_ns += d;
      const auto it = type_of_node_.find(info.label);
      const std::size_t k = it == type_of_node_.end()
                                ? type_ns.size() - 1
                                : static_cast<std::size_t>(it->second);
      type_ns[k] += d;
      break;
    }
    default:
      break;
  }
  return true;
}

template <typename Base>
d500::Tensor Timed<Base>::update_rule(const d500::Tensor& grad,
                                      const d500::Tensor& old_param,
                                      const std::string& name) {
  auto clock = [this] { return thread_cpu ? thread_cpu_ns() : now_ns(); };
  const std::int64_t t0 = clock();
  if (first_update == 0) first_update = t0;
  d500::Tensor out = Base::update_rule(grad, old_param, name);
  update_ns += static_cast<double>(clock() - t0);
  return out;
}

template class Timed<d500::AdamOptimizer>;
template class Timed<d500::MomentumOptimizer>;

namespace {

struct ConvSite {
  d500::OperatorPtr op;
  std::vector<d500::Tensor> in;   // x, w[, b]
  d500::Tensor out, grad_out;
  std::vector<d500::Tensor> grad_in;
  d500::ConstTensors cin, cout_, cgrad_out;
  d500::MutTensors mout, mgrad_in;
  std::uint64_t flops = 0;
};

}  // namespace

ConvProbe probe_convs(const d500::Model& model, double seconds) {
  ConvProbe res;
  const auto shapes = d500::infer_shapes(model);
  d500::Rng rng(7);
  std::vector<ConvSite> sites;
  for (const auto& node : model.nodes) {
    if (node.op_type != "Conv2D") continue;
    ConvSite s;
    s.op = d500::cf2sim().native_operator("Conv2D", node.attrs);
    std::vector<d500::Shape> in_shapes;
    for (const auto& name : node.inputs) {
      auto init = model.initializers.find(name);
      d500::Shape sh = init != model.initializers.end()
                           ? init->second.shape()
                           : shapes.at(name);
      in_shapes.push_back(sh);
      d500::Tensor t(sh);
      t.fill_uniform(rng, -1.0f, 1.0f);
      s.in.push_back(std::move(t));
    }
    const d500::Shape out_shape = s.op->output_shapes(in_shapes)[0];
    s.out = d500::Tensor(out_shape);
    s.grad_out = d500::Tensor(out_shape);
    s.grad_out.fill_uniform(rng, -1.0f, 1.0f);
    for (const auto& sh : in_shapes) s.grad_in.emplace_back(sh);
    s.flops = s.op->forward_flops(in_shapes);
    sites.push_back(std::move(s));
  }
  if (sites.empty()) return res;
  for (auto& s : sites) {
    for (auto& t : s.in) s.cin.push_back(&t);
    s.cout_.push_back(&s.out);
    s.cgrad_out.push_back(&s.grad_out);
    s.mout.push_back(&s.out);
    for (auto& t : s.grad_in) s.mgrad_in.push_back(&t);
  }

  std::uint64_t pass_flops = 0;
  for (const auto& s : sites) pass_flops += s.flops;
  res.fwd_gflop_pass = static_cast<double>(pass_flops) * 1e-9;

  // Alternate forward and backward sweeps over all sites so both rates see
  // the same host phases; the rate is total work over total time.
  double fwd_s = 0, bwd_s = 0;
  std::int64_t sweeps = 0;
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    std::int64_t t0 = now_ns();
    for (auto& s : sites) s.op->forward(s.cin, s.mout);
    const std::int64_t t1 = now_ns();
    for (auto& s : sites)
      for (auto& g : s.grad_in) g.fill(0.0f);
    const std::int64_t t2 = now_ns();
    for (auto& s : sites)
      s.op->backward(s.cgrad_out, s.cin, s.cout_, s.mgrad_in);
    const std::int64_t t3 = now_ns();
    fwd_s += static_cast<double>(t1 - t0) * 1e-9;
    bwd_s += static_cast<double>(t3 - t2) * 1e-9;
    ++sweeps;
  } while (now_ns() < t_end || sweeps < 3);
  const double gflop = res.fwd_gflop_pass * static_cast<double>(sweeps);
  res.fwd_gflops = gflop / fwd_s;
  res.bwd_gflops = 2.0 * gflop / bwd_s;
  return res;
}

}  // namespace perfbench
