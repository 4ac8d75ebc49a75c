#include "frameworks/plan_executor.hpp"

#include <algorithm>
#include <cstring>

#include "core/arena.hpp"
#include "core/env.hpp"
#include "core/metrics_registry.hpp"
#include "core/threadpool.hpp"
#include "core/timer.hpp"
#include "core/trace.hpp"
#include "graph/memory_plan.hpp"
#include "ops/conv2d.hpp"
#include "ops/fused.hpp"
#include "ops/gemm.hpp"

namespace d500 {

namespace {

bool is_shape_op_type(const std::string& t) {
  return t == "Split" || t == "Concat" || t == "Flatten";
}

}  // namespace

bool overlap_comm_default() { return overlap_comm_setting(); }

std::string default_pass_spec() { return passes_setting(); }

PlanExecutor::PlanExecutor(Network net, std::string name, ExecOptions options)
    : GraphExecutor(std::move(net)),
      name_(std::move(name)),
      options_(std::move(options)) {
  // Rewrite the instantiated graph before any compile: every later feed
  // signature sees the same optimized node set.
  pass_result_ = PassPipeline::from_spec(options_.passes).run(net_);
  fold_version_ = net_.params_version();
}

int PlanExecutor::slot_of(const std::string& value) const {
  auto it = slot_index_.find(value);
  D500_CHECK_MSG(it != slot_index_.end(),
                 name_ << ": no slot for value '" << value << "'");
  return it->second;
}

bool PlanExecutor::feeds_match(const TensorMap& feeds, bool training) const {
  if (!compiled_) return false;
  // A training compile is a superset of an inference compile (lifetimes
  // pinned, backward tables present), so it serves inference calls too —
  // only the inference->training direction forces a recompile.
  if (training && !compiled_training_) return false;
  if (feeds.size() != feed_sig_.size()) return false;
  std::size_t i = 0;
  for (const auto& [fname, t] : feeds) {
    const FeedSig& fs = feed_sig_[i++];
    if (fname != fs.name || t.layout() != fs.layout || t.shape() != fs.shape)
      return false;
  }
  return true;
}

void PlanExecutor::compile(const TensorMap& feeds, bool training) {
  if (feeds_match(feeds, training)) return;

  feed_sig_.clear();
  for (const auto& [fname, t] : feeds)
    feed_sig_.push_back({fname, t.shape(), t.layout()});
  compiled_training_ = training;

  // Ops outlive compiles (the Network owns them): detach any panel
  // pointers installed by a previous compile before their buffers die.
  for (const Prepack& e : prepack_) install_prepack(e, nullptr, nullptr);
  prepack_.clear();
  prepack_buffers_.clear();
  prepack_fresh_.clear();

  steps_.clear();
  slot_index_.clear();
  slot_names_.clear();
  values_.clear();
  grads_.clear();
  value_is_feed_.clear();
  value_is_stored_.clear();
  grad_needed_.clear();
  grad_parts_.clear();
  grad_publish_.clear();
  publish_at_step_.clear();
  publish_head_.clear();
  output_bindings_.clear();
  outputs_view_.clear();
  plan_buffers_.clear();
  planned_bytes_ = 0;
  plan_naive_bytes_ = 0;

  auto add_slot = [&](const std::string& name, bool is_feed, bool is_stored) {
    const int slot = static_cast<int>(slot_names_.size());
    slot_index_[name] = slot;
    slot_names_.push_back(name);
    value_is_feed_.push_back(is_feed);
    value_is_stored_.push_back(is_stored);
    grad_needed_.push_back(false);
    values_.emplace_back();
    grads_.emplace_back();
    return slot;
  };

  // Slots for feeds and stored tensors referenced by the graph.
  std::map<std::string, Shape> shapes;
  std::map<std::string, Layout> feed_layouts;
  for (const auto& [fname, t] : feeds) {
    add_slot(fname, true, false);
    shapes[fname] = t.shape();
    feed_layouts[fname] = t.layout();
  }

  const auto order = net_.topological_order();
  const auto& params = net_.parameters();
  std::size_t live_bytes = 0;
  std::size_t peak = 0;
  for (const Network::Node* node : order) {
    Step step;
    step.node = node;
    step.is_shape_op = is_shape_op_type(node->op_type);
    for (const auto& in : node->inputs) {
      if (!slot_index_.count(in)) {
        // Must be a stored tensor (parameters/constants).
        D500_CHECK_MSG(net_.has_tensor(in),
                       name_ << ": unresolved value '" << in << "'");
        add_slot(in, false, true);
        shapes[in] = net_.fetch_tensor(in).shape();
      }
      const int s = slot_of(in);
      step.in_slots.push_back(s);
      step.in_shapes.push_back(shapes.at(in));
      if (value_is_stored_[static_cast<std::size_t>(s)] &&
          std::find(params.begin(), params.end(), in) != params.end())
        grad_needed_[static_cast<std::size_t>(s)] = true;
    }
    step.out_shapes = node->op->output_shapes(step.in_shapes);
    for (std::size_t k = 0; k < node->outputs.size(); ++k) {
      const int s = add_slot(node->outputs[k], false, false);
      step.out_slots.push_back(s);
      shapes[node->outputs[k]] = step.out_shapes[k];
      grad_needed_[static_cast<std::size_t>(s)] = true;  // chain continues
      live_bytes +=
          static_cast<std::size_t>(shape_elements(step.out_shapes[k])) * 4;
    }
    if (const auto* conv = dynamic_cast<const Conv2DOp*>(node->op.get()))
      step.workspace_bytes = conv->workspace_bytes(step.in_shapes);
    else if (const auto* fcb = dynamic_cast<const FusedConvBnOp*>(node->op.get()))
      step.workspace_bytes = fcb->workspace_bytes(step.in_shapes);
    peak = std::max(peak, live_bytes + step.workspace_bytes);
    steps_.push_back(std::move(step));
  }
  // The simulated device-memory model stays one-buffer-per-value on
  // purpose: the planner changes what this process allocates, not what the
  // modeled accelerator would hold (micro-batching experiments depend on
  // the naive accounting).
  last_peak_memory_ = peak;
  if (memory_limit_ != 0 && peak > memory_limit_)
    throw OutOfMemoryError(name_ + ": plan peak memory " +
                           std::to_string(peak) + " exceeds limit " +
                           std::to_string(memory_limit_));

  // Dependency tables for the parallel schedule, one edge per consumed
  // slot: step j's forward waits on step i's when j reads a slot i
  // produces, and (training only) i's backward waits on j's.
  forward_graph_.reset(steps_.size());
  backward_graph_.reset(training ? steps_.size() : 0);
  const int nslots = static_cast<int>(slot_names_.size());
  std::vector<int> producer(static_cast<std::size_t>(nslots), -1);
  std::vector<int> last_use(static_cast<std::size_t>(nslots), -1);
  std::vector<std::vector<int>> consumers(static_cast<std::size_t>(nslots));
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    for (int s : steps_[i].out_slots)
      producer[static_cast<std::size_t>(s)] = static_cast<int>(i);
    for (int s : steps_[i].in_slots) {
      last_use[static_cast<std::size_t>(s)] = static_cast<int>(i);
      consumers[static_cast<std::size_t>(s)].push_back(static_cast<int>(i));
    }
  }
  for (std::size_t j = 0; j < steps_.size(); ++j)
    for (int s : steps_[j].in_slots)
      if (const int p = producer[static_cast<std::size_t>(s)];
          p >= 0 && p != static_cast<int>(j)) {
        forward_graph_.add_edge(p, static_cast<int>(j));
        if (training) backward_graph_.add_edge(static_cast<int>(j), p);
      }

  // Bind value storage.
  const bool use_plan = options_.reuse_activations && options_.memory_plan;
  if (use_plan) {
    // Static buffer assignment: every non-stored value becomes an interval
    // over step indices and the planner (graph/memory_plan) packs
    // non-overlapping intervals into shared buffers. Training pins every
    // value (backward reads all activations, including feeds); declared
    // outputs stay live so callers can read them after the run.
    std::vector<BufferRequest> requests(static_cast<std::size_t>(nslots));
    const auto& outs = net_.outputs();
    for (int s = 0; s < nslots; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (value_is_stored_[su]) continue;  // lives in Network storage
      BufferRequest& r = requests[su];
      r.bytes = static_cast<std::size_t>(
                    shape_elements(shapes.at(slot_names_[su]))) * 4;
      r.def_step = value_is_feed_[su] ? -1 : producer[su];
      const bool pinned =
          training || std::find(outs.begin(), outs.end(), slot_names_[su]) !=
                          outs.end();
      // A value is live at least through its defining step (two outputs of
      // one step must never share storage).
      r.last_step =
          pinned ? kStepLiveForever : std::max(last_use[su], r.def_step);
    }
    const MemoryPlan plan = plan_memory(requests);
    planned_bytes_ = plan.planned_bytes();
    plan_naive_bytes_ = plan.naive_bytes;
    for (std::size_t b = 0; b < plan.buffer_bytes.size(); ++b) {
      const std::int64_t n =
          static_cast<std::int64_t>((plan.buffer_bytes[b] + 3) / 4);
      plan_buffers_.emplace_back(arena_alloc_floats(n), arena_free_floats);
      // Recycled arena blocks carry stale payloads; zero once so the first
      // run sees the same storage state as the unplanned path.
      std::memset(plan_buffers_[b].get(), 0, static_cast<std::size_t>(n) * 4);
    }
    for (int s = 0; s < nslots; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (value_is_stored_[su]) continue;
      const Shape& sh = shapes.at(slot_names_[su]);
      const int b = plan.placement[su];
      if (b >= 0) {
        const Layout lay = value_is_feed_[su] ? feed_layouts.at(slot_names_[su])
                                              : Layout::kNCHW;
        values_[su] = Tensor::borrow(
            plan_buffers_[static_cast<std::size_t>(b)].get(), sh, lay);
      } else {
        values_[su] = Tensor(sh);  // zero-element values
      }
    }
    if (options_.parallel) {
      // Anti-dependency edges: when buffer `b` passes from value a to
      // value b', every reader of a must finish before b's producer may
      // overwrite the storage. Edges always point forward (a's last use is
      // strictly before b's def), so the graph stays acyclic.
      for (const auto& seq : plan.buffer_order)
        for (std::size_t k = 1; k < seq.size(); ++k) {
          const auto a = static_cast<std::size_t>(seq[k - 1]);
          const int db = producer[static_cast<std::size_t>(seq[k])];
          if (db < 0) continue;  // feeds are staged before step 0
          if (!consumers[a].empty()) {
            for (int c : consumers[a]) forward_graph_.add_edge(c, db);
          } else if (producer[a] >= 0) {
            forward_graph_.add_edge(producer[a], db);
          }
        }
    }
  } else if (options_.reuse_activations) {
    // Deferred engine without the planner: one preallocated buffer per
    // value (feeds included, so staging is a copy into place, not a fresh
    // allocation).
    for (const auto& step : steps_)
      for (std::size_t k = 0; k < step.out_slots.size(); ++k)
        values_[static_cast<std::size_t>(step.out_slots[k])] =
            Tensor(step.out_shapes[k]);
    for (const FeedSig& fs : feed_sig_)
      values_[static_cast<std::size_t>(slot_of(fs.name))] =
          Tensor(fs.shape, fs.layout);
  }

  // Resolve per-step dispatch tables now that value storage is bound:
  // values_/grads_ elements and Network map nodes are address-stable until
  // the next compile.
  for (Step& step : steps_) {
    step.fwd_in.clear();
    step.fwd_out.clear();
    for (int s : step.in_slots) {
      const auto su = static_cast<std::size_t>(s);
      step.fwd_in.push_back(value_is_stored_[su]
                                ? &net_.fetch_tensor(slot_names_[su])
                                : &values_[su]);
    }
    for (int s : step.out_slots)
      step.fwd_out.push_back(&values_[static_cast<std::size_t>(s)]);
    // Resolve the per-op-type latency histogram once per compile, so the
    // hot path records without any name lookup. Registered even while
    // metrics are off: the gate is re-checked per sample (LatencyScope),
    // and empty histograms cost nothing in snapshots.
    step.lat = &MetricsRegistry::instance().histogram(
        "op." + step.node->op_type);
    if (options_.string_dispatch)
      step.stats = &launch_stats_[step.node->op_type + ":" + step.node->name];
    step.staged.clear();
    step.staged_ptrs.clear();
    if (options_.string_dispatch && options_.defensive_copy_shape_ops &&
        step.is_shape_op) {
      for (const Shape& sh : step.out_shapes) step.staged.emplace_back(sh);
      for (Tensor& t : step.staged) step.staged_ptrs.push_back(&t);
    }
  }

  if (training) {
    for (int s = 0; s < nslots; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (!grad_needed_[su]) continue;
      grads_[su] = Tensor(value_is_stored_[su]
                              ? net_.fetch_tensor(slot_names_[su]).shape()
                              : shapes.at(slot_names_[su]));
    }
    for (Step& step : steps_) {
      step.bw_grad_out.clear();
      step.bw_fwd_out.clear();
      for (int s : step.out_slots) {
        step.bw_grad_out.push_back(&grads_[static_cast<std::size_t>(s)]);
        step.bw_fwd_out.push_back(&values_[static_cast<std::size_t>(s)]);
      }
      step.scratch.clear();
      step.scratch.resize(step.in_slots.size());
      step.bw_grad_in.assign(step.in_slots.size(), nullptr);
    }
    // Gradient contributions in canonical order. A slot's only contribution
    // is written straight into grads_[s]; several get one scratch each,
    // summed by gather_grad.
    grad_parts_.assign(static_cast<std::size_t>(nslots), {});
    for (std::size_t i = steps_.size(); i-- > 0;)
      for (std::size_t k = 0; k < steps_[i].in_slots.size(); ++k) {
        const auto su = static_cast<std::size_t>(steps_[i].in_slots[k]);
        if (grad_needed_[su])
          grad_parts_[su].push_back({static_cast<int>(i), static_cast<int>(k)});
      }
    for (std::size_t s = 0; s < grad_parts_.size(); ++s)
      for (const GradPart& p : grad_parts_[s]) {
        Step& step = steps_[static_cast<std::size_t>(p.step)];
        const auto k = static_cast<std::size_t>(p.input);
        if (grad_parts_[s].size() == 1) {
          step.bw_grad_in[k] = &grads_[s];
        } else {
          step.scratch[k] = Tensor(step.in_shapes[k]);
          step.bw_grad_in[k] = &step.scratch[k];
        }
      }
    // Pre-create the published gradient tensors so backprop publishes by
    // copy-in-place instead of allocating a tensor per parameter per step.
    for (const auto& [pname, gname] : net_.gradients()) {
      const Shape& ps = net_.fetch_tensor(pname).shape();
      if (!net_.has_tensor(gname) || net_.fetch_tensor(gname).shape() != ps)
        net_.feed_tensor(gname, Tensor(ps));
      auto sit = slot_index_.find(pname);
      grad_publish_.push_back(
          {sit == slot_index_.end() ? -1 : sit->second,
           &net_.fetch_tensor(gname), pname});
    }
    // Eager-publish schedule: a parameter's gradient is final once the
    // reverse walk has passed its earliest consumer step (that consumer is
    // the last one backward visits). Within a step, grad_publish_ order is
    // declaration order — the tie-break backward_ready_param_order uses —
    // so ascending index here reproduces the canonical ready order.
    publish_at_step_.assign(steps_.size(), {});
    std::map<std::string, std::size_t> first_consumer;
    for (std::size_t i = 0; i < steps_.size(); ++i)
      for (const auto& in : steps_[i].node->inputs)
        first_consumer.emplace(in, i);
    for (std::size_t j = 0; j < grad_publish_.size(); ++j) {
      auto fit = first_consumer.find(grad_publish_[j].pname);
      if (grad_publish_[j].slot < 0 || fit == first_consumer.end())
        publish_head_.push_back(static_cast<int>(j));
      else
        publish_at_step_[fit->second].push_back(static_cast<int>(j));
    }
  }
  backward_ran_.assign(steps_.size(), 0);

  for (const auto& oname : net_.outputs()) {
    auto sit = slot_index_.find(oname);
    if (sit == slot_index_.end()) continue;
    output_bindings_.push_back({oname, sit->second});
    outputs_view_[oname];  // create the node; the view binds on first step()
  }

  build_prepack();

  compiled_ = true;
  primed_generation_ = 0;  // no pool generation
}

void PlanExecutor::install_prepack(const Prepack& e, const float* panels,
                                   const float* src) {
  switch (e.kind) {
    case Prepack::Kind::kMatMulB:
      static_cast<MatMulOp*>(e.op)->set_prepacked_b(panels, src);
      break;
    case Prepack::Kind::kLinearW:
      static_cast<LinearOp*>(e.op)->set_prepacked_w(panels, src);
      break;
    case Prepack::Kind::kConvW:
      static_cast<Conv2DOp*>(e.op)->set_prepacked_w(panels, src);
      break;
    case Prepack::Kind::kFusedConvW:
      static_cast<FusedConvBnOp*>(e.op)->conv().set_prepacked_w(panels, src);
      break;
  }
}

void PlanExecutor::build_prepack() {
  if (!options_.prepack_weights) return;
  std::map<std::string, int> panel_index;  // param name + kind -> buffer
  for (const Step& step : steps_) {
    CustomOperator* op = step.node->op.get();
    Prepack e;
    if (auto* mm = dynamic_cast<MatMulOp*>(op)) {
      if (mm->backend() != GemmBackend::kPacked) continue;
      e.kind = Prepack::Kind::kMatMulB;
    } else if (auto* lin = dynamic_cast<LinearOp*>(op)) {
      if (lin->backend() != GemmBackend::kPacked) continue;
      e.kind = Prepack::Kind::kLinearW;
    } else if (auto* conv = dynamic_cast<Conv2DOp*>(op)) {
      if (conv->backend() != ConvBackend::kIm2col) continue;
      e.kind = Prepack::Kind::kConvW;
    } else if (auto* fcb = dynamic_cast<FusedConvBnOp*>(op)) {
      // Training-mode forwards run the inner conv on the original filter
      // (input 1), so the panels stay valid; the eval-mode fold installs
      // its own folded panels over these and the next repack (after any
      // parameter update) restores them.
      if (fcb->conv().backend() != ConvBackend::kIm2col) continue;
      e.kind = Prepack::Kind::kFusedConvW;
    } else {
      continue;
    }
    // The weight is input 1 for all three ops; only stored tensors
    // (parameters/constants) are cacheable — an activation-valued operand
    // changes every run.
    if (step.in_slots.size() < 2) continue;
    const auto su = static_cast<std::size_t>(step.in_slots[1]);
    if (!value_is_stored_[su]) continue;
    const std::string& pname = slot_names_[su];
    e.op = op;
    e.src = &net_.fetch_tensor(pname);
    e.shape = e.src->shape();
    std::int64_t elems = 0;
    switch (e.kind) {
      case Prepack::Kind::kMatMulB:  // B is [K, N]
        elems = gemm_packed_b_elems(e.shape[0], e.shape[1]);
        break;
      case Prepack::Kind::kLinearW:  // W is [out, in]; panels hold W^T
        elems = gemm_packed_b_elems(e.shape[1], e.shape[0]);
        break;
      case Prepack::Kind::kConvW:  // filter as the [F, C*kh*kw] A operand
      case Prepack::Kind::kFusedConvW:
        elems = gemm_packed_a_elems(e.shape[0],
                                    e.shape[1] * e.shape[2] * e.shape[3]);
        break;
    }
    if (elems <= 0) continue;
    const std::string key =
        pname + '#' + std::to_string(static_cast<int>(e.kind));
    auto [it, inserted] =
        panel_index.try_emplace(key, static_cast<int>(prepack_buffers_.size()));
    if (inserted)
      prepack_buffers_.emplace_back(arena_alloc_floats(elems),
                                    arena_free_floats);
    e.buffer = it->second;
    prepack_.push_back(std::move(e));
  }
  prepack_fresh_.reserve(prepack_buffers_.size());
  if (!prepack_.empty()) repack_weights();
}

void PlanExecutor::repack_weights() {
  D500_TRACE_SCOPE("plan", "prepack");
  prepack_fresh_.assign(prepack_buffers_.size(), 0);
  for (const Prepack& e : prepack_) {
    const Tensor& w = *e.src;
    if (w.shape() != e.shape) {
      // Stored tensor was replaced with a different shape: the panels no
      // longer fit, so this site falls back to per-call packing.
      install_prepack(e, nullptr, nullptr);
      continue;
    }
    float* panels = prepack_buffers_[static_cast<std::size_t>(e.buffer)].get();
    if (!prepack_fresh_[static_cast<std::size_t>(e.buffer)]) {
      prepack_fresh_[static_cast<std::size_t>(e.buffer)] = 1;
      switch (e.kind) {
        case Prepack::Kind::kMatMulB:
          gemm_pack_b(e.shape[0], e.shape[1], w.data(), panels);
          break;
        case Prepack::Kind::kLinearW:
          gemm_pack_bt(e.shape[0], e.shape[1], w.data(), panels);
          break;
        case Prepack::Kind::kConvW:
        case Prepack::Kind::kFusedConvW:
          gemm_pack_a(e.shape[0], e.shape[1] * e.shape[2] * e.shape[3],
                      w.data(), panels);
          break;
      }
    }
    install_prepack(e, panels, w.data());
  }
  prepack_version_ = net_.params_version();
}

void PlanExecutor::refresh_folds() {
  D500_TRACE_SCOPE("plan", "refresh-folds");
  for (const FoldedConstant& f : pass_result_.folds) {
    ConstTensors ins;
    std::vector<Shape> in_shapes;
    ins.reserve(f.input_names.size());
    in_shapes.reserve(f.input_names.size());
    for (const std::string& in : f.input_names) {
      const Tensor& t =
          static_cast<const Network&>(net_).fetch_tensor(in);
      ins.push_back(&t);
      in_shapes.push_back(t.shape());
    }
    const Shape out_shape = f.op->output_shapes(in_shapes)[0];
    // Recorded order is dependency order (a fold can feed a later fold),
    // so evaluating front to back stays correct. Same-shape refreshes
    // rewrite the stored tensor in place — no allocation on warm steps.
    Tensor& dst = net_.fetch_tensor(f.output_name);
    if (dst.shape() == out_shape) {
      MutTensors outs{&dst};
      f.op->forward(ins, outs);
    } else {
      Tensor out(out_shape);
      MutTensors outs{&out};
      f.op->forward(ins, outs);
      net_.feed_tensor(f.output_name, std::move(out));
    }
  }
  for (FusedConvBnOp* site : pass_result_.bn_fold_sites)
    site->mark_fold_dirty();
  fold_version_ = net_.params_version();
}

void PlanExecutor::exec_step(std::size_t idx, std::mutex* mu) {
  Step& step = steps_[idx];
  const auto op_index = static_cast<std::int64_t>(idx);
  if (has_events()) {
    std::unique_lock<std::mutex> lock;
    if (mu) lock = std::unique_lock<std::mutex>(*mu);
    fire({EventPoint::kBeforeOperator, op_index, -1, step.node->name, 0.0});
  }
  Timer launch_timer;
  {
    // The span covers the launch + kernel, not the serialized event
    // dispatch on either side; the histogram samples the same window.
    LatencyScope lat(step.lat);
    D500_TRACE_SCOPE("op", step.node->name);

    if (!options_.reuse_activations) {
      // Eager engine: fresh output tensors every run (allocator pressure is
      // part of the modeled behaviour; the arena recycles them). Slots are
      // distinct vector elements, so concurrent steps allocate into
      // disjoint storage and the fwd_out pointers stay valid.
      for (std::size_t k = 0; k < step.out_slots.size(); ++k)
        values_[static_cast<std::size_t>(step.out_slots[k])] =
            Tensor(step.out_shapes[k]);
    }

    if (options_.string_dispatch) {
      // Session-style launch path: per-launch shape validation plus
      // string-keyed stats bookkeeping (the management overhead the
      // paper's FrameworkOverhead metric quantifies).
      for (std::size_t k = 0; k < step.fwd_in.size(); ++k)
        D500_CHECK_MSG(step.fwd_in[k]->shape() == step.in_shapes[k],
                       name_ << ": launch-time shape mismatch at '"
                       << step.node->name << "'");
      if (options_.defensive_copy_shape_ops && step.is_shape_op) {
        step.node->op->forward(step.fwd_in, step.staged_ptrs);
        for (std::size_t k = 0; k < step.staged.size(); ++k) {
          const Tensor& st = step.staged[k];
          if (st.elements() > 0)
            std::memcpy(step.fwd_out[k]->data(), st.data(), st.bytes());
        }
      } else {
        step.node->op->forward(step.fwd_in, step.fwd_out);
      }
      const double seconds = launch_timer.seconds();
      {
        std::unique_lock<std::mutex> lock;
        if (mu) lock = std::unique_lock<std::mutex>(*mu);
        ++step.stats->launches;
        step.stats->seconds += seconds;
      }
    } else {
      step.node->op->forward(step.fwd_in, step.fwd_out);
    }
  }

  if (has_events()) {
    std::unique_lock<std::mutex> lock;
    if (mu) lock = std::unique_lock<std::mutex>(*mu);
    fire({EventPoint::kAfterOperator, op_index, -1, step.node->name, 0.0});
  }
}

void PlanExecutor::run_forward(const TensorMap& feeds) {
  // Pass-produced folds first: refresh_folds republishes folded constants
  // (bumping params_version), so the prepack staleness check below also
  // sees any folded tensor that feeds a packed GEMM.
  if (pass_result_.needs_refresh() && fold_version_ != net_.params_version())
    refresh_folds();

  // Weight panels go stale whenever stored tensors may have mutated
  // (optimizers publish through feed_tensor / mutable fetch_tensor, both
  // of which bump the version counter).
  if (!prepack_.empty() && prepack_version_ != net_.params_version())
    repack_weights();

  // Stage feeds into their slots (framework feed/conversion boundary).
  // compile() assigned feed slots 0..n-1 in map order, which feeds_match
  // verified against the signature.
  std::size_t fi = 0;
  for (const auto& [fname, t] : feeds) {
    Tensor& dst = values_[fi++];
    if (options_.reuse_activations) {
      if (t.elements() > 0) std::memcpy(dst.data(), t.data(), t.bytes());
    } else {
      dst = t;  // eager: fresh copy per run
    }
  }

  if (options_.parallel && !steps_.empty()) {
    std::mutex mu;
    run_task_graph(forward_graph_, [this, &mu](int idx) {
      exec_step(static_cast<std::size_t>(idx), &mu);
    });
  } else {
    for (std::size_t idx = 0; idx < steps_.size(); ++idx)
      exec_step(idx, nullptr);
  }
}

int PlanExecutor::resolve_loss_slot(const std::string& loss_value) const {
  if (!loss_value.empty()) return slot_of(loss_value);
  D500_CHECK_MSG(!net_.outputs().empty(), "backprop without outputs");
  return slot_of(net_.outputs().back());
}

void PlanExecutor::publish_gradient(const GradPublish& gp) {
  if (gp.slot < 0) {
    gp.dst->fill(0.0f);
    return;
  }
  const Tensor& g = grads_[static_cast<std::size_t>(gp.slot)];
  if (gp.dst->shape() != g.shape()) {
    *gp.dst = g;  // stored tensor was replaced externally; re-shape
  } else if (g.elements() > 0) {
    std::memcpy(gp.dst->data(), g.data(), g.bytes());
  }
}

void PlanExecutor::gather_grad(int slot, bool seed) {
  const auto su = static_cast<std::size_t>(slot);
  Tensor& g = grads_[su];
  const std::vector<GradPart>& parts = grad_parts_[su];
  if (parts.size() == 1) {
    // Bound directly: the consumer's backward, if it ran, wrote g. The
    // seed comes last, which gives the same bits as adding the
    // contribution to it.
    if (!backward_ran_[static_cast<std::size_t>(parts[0].step)]) g.fill(0.0f);
    if (seed) g.data()[0] += 1.0f;
    return;
  }
  // Like ReferenceExecutor: the seed or the first contribution is copied,
  // the rest are added in order.
  bool have = seed;
  if (seed) g.fill(1.0f);
  for (const GradPart& p : parts) {
    const auto ps = static_cast<std::size_t>(p.step);
    if (!backward_ran_[ps]) continue;
    const Tensor& part = steps_[ps].scratch[static_cast<std::size_t>(p.input)];
    if (have) {
      axpy(1.0f, part, g);
    } else if (part.elements() > 0) {
      std::memcpy(g.data(), part.data(), part.bytes());
    }
    have = true;
  }
  if (!have) g.fill(0.0f);
}

void PlanExecutor::backward_step(std::size_t idx, int loss_slot) {
  Step& step = steps_[idx];
  // Every consumer of this step's outputs has been handled, so whether
  // any of them ran is settled.
  bool live = false;
  for (int s : step.out_slots) {
    live = live || s == loss_slot;
    for (const GradPart& p : grad_parts_[static_cast<std::size_t>(s)])
      live = live || backward_ran_[static_cast<std::size_t>(p.step)];
  }
  if (!live) return;
  for (int s : step.out_slots) gather_grad(s, s == loss_slot);
  // Backward may accumulate into its grad_in arguments.
  for (Tensor* g : step.bw_grad_in)
    if (g) g->fill(0.0f);
  {
    D500_TRACE_SCOPE("grad", step.node->name);
    step.node->op->backward(step.bw_grad_out, step.fwd_in, step.bw_fwd_out,
                            step.bw_grad_in);
  }
  backward_ran_[idx] = 1;
}

void PlanExecutor::backprop_core(int loss_slot) {
  backward_ran_.assign(backward_ran_.size(), 0);

  // Parameter gradients have no producer step: each is gathered just
  // before it is published. Eager mode publishes each one (and fires the
  // hook) the moment the reverse walk passes the parameter's earliest
  // consumer; otherwise all are published after the backward pass. Values
  // and order match exactly — only the interleaving with backward ops
  // differs. The parallel schedule has no walk position, so it publishes
  // after the drain.
  auto publish = [&](const GradPublish& gp) {
    if (gp.slot >= 0) gather_grad(gp.slot, false);
    publish_gradient(gp);
  };
  const bool eager = options_.overlap_comm && grad_ready_hook_ != nullptr &&
                     !options_.parallel;
  auto flush = [&](const std::vector<int>& ready) {
    for (int j : ready) {
      const GradPublish& gp = grad_publish_[static_cast<std::size_t>(j)];
      publish(gp);
      grad_ready_hook_(gp.pname, *gp.dst);
    }
  };
  if (eager) flush(publish_head_);

  if (options_.parallel && !steps_.empty()) {
    run_task_graph(backward_graph_, [this, loss_slot](int idx) {
      backward_step(static_cast<std::size_t>(idx), loss_slot);
    });
  } else {
    for (std::size_t i = steps_.size(); i-- > 0;) {
      backward_step(i, loss_slot);
      if (eager) flush(publish_at_step_[i]);
    }
  }

  if (eager) return;  // every entry was flushed inline above

  // Publish parameter gradients in place (zero for parameters the compiled
  // graph never consumes), then fire the hook in canonical ready order.
  for (const GradPublish& gp : grad_publish_) publish(gp);
  if (grad_ready_hook_) {
    auto fire = [&](const std::vector<int>& ready) {
      for (int j : ready) {
        const GradPublish& gp = grad_publish_[static_cast<std::size_t>(j)];
        grad_ready_hook_(gp.pname, *gp.dst);
      }
    };
    fire(publish_head_);
    for (std::size_t i = steps_.size(); i-- > 0;) fire(publish_at_step_[i]);
  }
}

void PlanExecutor::prime_pool_threads() {
  ThreadPool& pool = ThreadPool::instance();
  if (primed_generation_ == pool.generation()) return;
  primed_generation_ = pool.generation();
  pool.on_every_thread(
      [](void* ctx, std::int64_t) {
        const auto* self = static_cast<const PlanExecutor*>(ctx);
        if (!self->options_.parallel) {
          prime_thread_scratch(/*helper_sites_only=*/true);
          return;
        }
        if (metrics_enabled())
          for (const Step& step : self->steps_) step.lat->prepare_thread();
        prime_thread_scratch();
      },
      this);
}

void PlanExecutor::refresh_outputs_view() {
  for (const OutputBinding& ob : output_bindings_) {
    const Tensor& v = values_[static_cast<std::size_t>(ob.slot)];
    Tensor& view = outputs_view_[ob.name];
    if (view.data() == v.data() && view.shape() == v.shape() &&
        view.layout() == v.layout())
      continue;  // warm planned step: storage has not moved
    view = v.elements() > 0
               ? Tensor::borrow(const_cast<float*>(v.data()), v.shape(),
                                v.layout())
               : Tensor(v.shape(), v.layout());
  }
}

TensorMap PlanExecutor::inference(const TensorMap& feeds) {
  if (has_events()) fire({EventPoint::kBeforeInference, -1, -1, net_.name(), 0.0});
  compile(feeds, /*training=*/false);
  run_forward(feeds);
  TensorMap out;
  for (const auto& oname : net_.outputs()) {
    auto it = slot_index_.find(oname);
    D500_CHECK_MSG(it != slot_index_.end(),
                   name_ << ": output '" << oname << "' not produced");
    out[oname] = values_[static_cast<std::size_t>(it->second)];
  }
  if (has_events()) fire({EventPoint::kAfterInference, -1, -1, net_.name(), 0.0});
  return out;
}

const TensorMap& PlanExecutor::inference_step(const TensorMap& feeds) {
  if (has_events()) fire({EventPoint::kBeforeInference, -1, -1, net_.name(), 0.0});
  compile(feeds, /*training=*/false);
  run_forward(feeds);
  if (!compiled_training_) prime_pool_threads();
  if (has_events()) fire({EventPoint::kAfterInference, -1, -1, net_.name(), 0.0});
  refresh_outputs_view();
  return outputs_view_;
}

const TensorMap& PlanExecutor::step(const TensorMap& feeds,
                                    const std::string& loss_value) {
  if (has_events()) fire({EventPoint::kBeforeInference, -1, -1, net_.name(), 0.0});
  compile(feeds, /*training=*/true);
  run_forward(feeds);
  if (has_events()) fire({EventPoint::kAfterInference, -1, -1, net_.name(), 0.0});

  const int loss_slot = resolve_loss_slot(loss_value);
  D500_CHECK_MSG(values_[static_cast<std::size_t>(loss_slot)].elements() == 1,
                 name_ << ": loss '" << slot_names_[static_cast<std::size_t>(
                     loss_slot)] << "' is not scalar");

  if (has_events()) fire({EventPoint::kBeforeBackprop, -1, -1, net_.name(), 0.0});
  backprop_core(loss_slot);
  prime_pool_threads();
  if (has_events())
    fire({EventPoint::kAfterBackprop, -1, -1, net_.name(),
          static_cast<double>(
              values_[static_cast<std::size_t>(loss_slot)].at(0))});

  refresh_outputs_view();
  return outputs_view_;
}

TensorMap PlanExecutor::inference_and_backprop(const TensorMap& feeds,
                                               const std::string& loss_value) {
  const TensorMap& view = step(feeds, loss_value);
  TensorMap out;
  for (const auto& [oname, t] : view) out[oname] = t;  // deep copies
  return out;
}

}  // namespace d500
