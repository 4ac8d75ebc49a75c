// Compiled-plan graph executor used by the simulated frameworks.
//
// Where the reference executor interprets the graph (string lookups and
// fresh allocations every run), PlanExecutor compiles the network once per
// (feed signature, training mode): values get integer slots, activations
// are preallocated and reused, dispatch walks a flat step table through
// pointer tables resolved at compile time, and — on the deferred path — a
// static memory plan (graph/memory_plan) assigns lifetime-disjoint values
// to shared buffers. A warm training step performs zero heap allocations:
// every tensor the step touches (activations, gradients, backward scratch,
// staged copies, published parameter gradients) was placed at compile time
// and is rewritten in place. Configuration knobs recreate the *mechanical*
// differences between engines that the paper benchmarks — they are real
// code paths, not injected delays:
//   * string_dispatch      — per-op bookkeeping through string-keyed maps
//                            and per-launch records (TFSim's session-style
//                            scheduling overhead);
//   * reuse_activations    — preallocated activation/gradient buffers
//                            (deferred engines) vs. fresh allocation per
//                            run (also how the eager engine models
//                            allocator pressure; those allocations recycle
//                            through the arena's free lists);
//   * defensive_copy_shape_ops — Split/Concat stage through an extra
//                            buffer (the memory-copy behaviour that slows
//                            transformed graphs on TFSim, paper §V-C).
//   * parallel             — forward and backward steps are scheduled onto
//                            the shared thread pool through compiled
//                            dependency tables (inter-op parallelism).
//                            Forward steps write disjoint slots (buffer
//                            handoffs add anti-dependency edges); a
//                            backward step runs after every consumer of its
//                            outputs and sums their contributions itself,
//                            in a fixed order. Results match the serial
//                            walk bit for bit.
//   * memory_plan          — static buffer-reuse assignment for the
//                            deferred path (no effect when
//                            reuse_activations is off). On/off is
//                            bit-identical; off keeps one buffer per value.
//   * prepack_weights      — plan-time weight pre-packing: parameters that
//                            feed packed GEMMs (MatMul B operands, Linear
//                            weights, im2col Conv filters) are packed into
//                            arena-backed panel buffers at compile time and
//                            the ops consume the panels directly, skipping
//                            the per-call pack. The Network params_version
//                            counter invalidates the cache whenever an
//                            optimizer publishes new weights; the repack is
//                            a traced, parallel, allocation-free pass at
//                            the start of the next run. Per-call and
//                            prepacked packing share one code path, so
//                            on/off is bit-identical.
#pragma once

#include <mutex>

#include "core/threadpool.hpp"
#include "graph/executor.hpp"
#include "graph/passes/pass.hpp"

namespace d500 {

class Histogram;

/// Default for ExecOptions::overlap_comm: the D500_OVERLAP environment
/// knob (core/env overlap_comm_setting), read fresh at construction.
bool overlap_comm_default();

/// Default for ExecOptions::passes: the D500_PASSES environment knob
/// (core/env passes_setting), read fresh at construction.
std::string default_pass_spec();

struct ExecOptions {
  bool reuse_activations = true;
  bool string_dispatch = false;
  bool defensive_copy_shape_ops = false;
  bool parallel = false;
  bool memory_plan = true;
  bool prepack_weights = true;
  //   * overlap_comm       — publish each parameter gradient (and fire the
  //                          grad-ready hook) as soon as the backward walk
  //                          has passed the parameter's earliest consumer,
  //                          instead of in one batch after the walk. The
  //                          publish values and order are identical either
  //                          way (the hook fires in canonical
  //                          backward_ready_param_order); only the timing
  //                          moves, which is what lets a distributed
  //                          optimizer launch bucket allreduces while the
  //                          rest of backprop still runs. No effect unless
  //                          a hook is installed. Under `parallel` the
  //                          backward steps have no fixed order, so the
  //                          hook fires after they all finish, in the same
  //                          canonical order: the values are the same, only
  //                          the timing moves.
  bool overlap_comm = overlap_comm_default();
  //   * passes             — plan-time graph compiler pipeline (graph/passes):
  //                          a D500_PASSES-style spec selecting which rewrite
  //                          passes run over the network at construction.
  //                          Framework profiles pin it (cf2sim = "all",
  //                          tfsim/ptsim = "none"); a plain PlanExecutor
  //                          follows the environment. Every pass preserves
  //                          bitwise results (eval-mode conv+bn folding is
  //                          the one documented ULP-tolerance exception).
  std::string passes = default_pass_spec();
};

class PlanExecutor : public GraphExecutor {
 public:
  /// Runs the configured pass pipeline over the network before anything
  /// else: passes rewrite the instantiated graph in place, so every later
  /// compile sees the optimized node set.
  PlanExecutor(Network net, std::string name, ExecOptions options);

  std::string name() const override { return name_; }

  TensorMap inference(const TensorMap& feeds) override;
  TensorMap inference_and_backprop(const TensorMap& feeds,
                                   const std::string& loss_value = "") override;

  /// Zero-copy training step: forward + backward + gradient publish, like
  /// inference_and_backprop, but the returned outputs are borrowed views
  /// into the executor's compiled buffers — valid until the next run or
  /// recompile — so a warm step allocates nothing. Callers that need
  /// owning outputs should use inference_and_backprop.
  const TensorMap& step(const TensorMap& feeds,
                        const std::string& loss_value = "");

  /// Zero-copy forward-only step: like inference(), but the returned
  /// outputs are borrowed views into the executor's compiled buffers —
  /// valid until the next run or recompile — so a warm call allocates
  /// nothing (inference() deep-copies every output). This is the serving
  /// hot path: an InferenceSession (src/serve) issues one inference_step
  /// per coalesced batch. Reuses a training compile when one is live.
  const TensorMap& inference_step(const TensorMap& feeds);

  const ExecOptions& options() const { return options_; }

  /// Memory-plan footprint of the last compile (0 until compiled or when
  /// the planner is off): planned = sum of shared-buffer capacities,
  /// naive = sum of per-value sizes (what one-buffer-per-value costs).
  std::size_t planned_bytes() const { return planned_bytes_; }
  std::size_t plan_naive_bytes() const { return plan_naive_bytes_; }

  /// Per-op launch bookkeeping accumulated when string_dispatch is on.
  struct LaunchStats {
    std::int64_t launches = 0;
    double seconds = 0.0;
  };
  const std::map<std::string, LaunchStats>& launch_stats() const {
    return launch_stats_;
  }

  /// Per-pass rewrite counts and timings from the construction-time
  /// pipeline run, plus the fold sites the executor keeps fresh.
  const PassResult& pass_stats() const { return pass_result_; }

  /// Called once per trainable parameter per backprop, right after that
  /// parameter's gradient is published into Network storage, with the
  /// parameter name and the published tensor. With overlap_comm on (and
  /// parallel off) the calls interleave with the remaining backward ops
  /// (fired from the backprop thread the moment the gradient is final);
  /// otherwise they fire in one batch after the backward pass — in the
  /// same canonical backward_ready_param_order either way. Distributed
  /// optimizers hang gradient bucketing off this. Pass nullptr to
  /// uninstall.
  using GradReadyHook = std::function<void(const std::string&, const Tensor&)>;
  void set_grad_ready_hook(GradReadyHook hook) {
    grad_ready_hook_ = std::move(hook);
  }

 private:
  struct Step {
    const Network::Node* node = nullptr;
    std::vector<int> in_slots;
    std::vector<int> out_slots;
    std::vector<Shape> in_shapes;
    std::vector<Shape> out_shapes;
    bool is_shape_op = false;  // Split/Concat/Flatten
    std::size_t workspace_bytes = 0;
    // Dispatch state resolved at compile time. Pointers target Tensor
    // objects in values_/grads_ (vector elements, never resized after
    // compile) or Network storage (map nodes, address-stable), so a warm
    // step does no lookups and no allocation.
    ConstTensors fwd_in;
    MutTensors fwd_out;
    Histogram* lat = nullptr;       // "op.<type>" latency, compile-resolved
    LaunchStats* stats = nullptr;   // string_dispatch bookkeeping slot
    std::vector<Tensor> staged;     // defensive-copy staging (persistent)
    MutTensors staged_ptrs;
    // Backward tables (training compiles only).
    ConstTensors bw_grad_out;
    ConstTensors bw_fwd_out;
    std::vector<Tensor> scratch;    // contributions to multi-consumer slots
    MutTensors bw_grad_in;          // &scratch[k], &grads_[s], or nullptr
  };
  /// One gradient contribution: steps_[step].bw_grad_in[input].
  struct GradPart {
    int step = -1;
    int input = -1;
  };

  /// (Re)compiles the plan if the feed signature or mode changed.
  void compile(const TensorMap& feeds, bool training);
  bool feeds_match(const TensorMap& feeds, bool training) const;
  void run_forward(const TensorMap& feeds);
  /// Runs one compiled step. `mu` (non-null when steps run concurrently)
  /// serializes event hooks and launch-stats bookkeeping; kernels run
  /// outside it.
  void exec_step(std::size_t idx, std::mutex* mu);
  /// Backward pass + gradient publish over the compiled tables: the
  /// reverse walk, or with `parallel` the backward task graph. The forward
  /// pass for the same compile must have run already.
  void backprop_core(int loss_slot);
  /// One step's backward: skipped unless an output is the loss or feeds a
  /// step whose backward ran; else gathers each output gradient, then runs
  /// the op. Every consumer of its outputs must have been handled first.
  void backward_step(std::size_t idx, int loss_slot);
  /// Makes grads_[slot] the sum of the contributions of the consumers whose
  /// backward ran, in grad_parts_ order, on top of 1.0 when `seed`.
  void gather_grad(int slot, bool seed);
  /// After the first run of a compile, and again after a ThreadPool::reset
  /// (new workers start with empty scratch): a no-op once this compile has
  /// primed the pool's current generation. With `parallel` on, any step may
  /// land on any pool thread, so every thread gets its kernel scratch and
  /// latency-histogram shards sized for all steps. With `parallel` off, the
  /// stepping thread warmed its own scratch by running the step, and every
  /// thread gets only the kHelper sites that parallel_for chunks use.
  /// Either way later runs allocate nothing.
  void prime_pool_threads();
  int resolve_loss_slot(const std::string& loss_value) const;
  /// Points outputs_view_ entries at the current output slot storage
  /// (no-op on a warm planned step: the pointers have not moved).
  void refresh_outputs_view();
  int slot_of(const std::string& value) const;
  /// Scans the compiled steps for packed-GEMM consumers of stored
  /// parameters and builds the pre-packed panel cache (compile time only).
  void build_prepack();
  /// (Re)packs every cached panel buffer from the current parameter values
  /// and re-installs the panel pointers on the consuming ops. Parallel
  /// inside the pack kernels, traced, allocation-free.
  void repack_weights();
  /// Re-evaluates constfold results in recorded (dependency) order and
  /// invalidates conv+bn eval folds; runs at the top of run_forward when
  /// params_version has moved past fold_version_. Writes in place when
  /// shapes are unchanged, so warm steps stay allocation-free.
  void refresh_folds();

  std::string name_;
  ExecOptions options_;

  // Construction-time pass pipeline output: stats for reporting, folded
  // constants and conv+bn sites to keep fresh as parameters move.
  PassResult pass_result_;
  std::uint64_t fold_version_ = 0;

  // Compiled state.
  bool compiled_ = false;
  bool compiled_training_ = false;
  // ThreadPool::generation() last primed; 0 (none) after a compile.
  std::uint64_t primed_generation_ = 0;
  struct FeedSig {
    std::string name;
    Shape shape;
    Layout layout;
  };
  std::vector<FeedSig> feed_sig_;
  std::vector<Step> steps_;
  TaskGraph forward_graph_;   // parallel: producer (and buffer) -> reader
  TaskGraph backward_graph_;  // parallel: consumer -> producer
  std::map<std::string, int> slot_index_;
  std::vector<std::string> slot_names_;
  std::vector<Tensor> values_;       // activation slots (planned: views)
  std::vector<Tensor> grads_;        // gradient slots (shaped at compile)
  std::vector<bool> value_is_feed_;
  std::vector<bool> value_is_stored_;  // lives in Network tensors
  std::vector<bool> grad_needed_;
  // Per gradient slot, its contributions in canonical order: descending
  // step, then ascending input (the reverse walk's and ReferenceExecutor's
  // order). A slot with exactly one is bound directly: that consumer's
  // backward writes grads_[s], with no scratch and no add.
  std::vector<std::vector<GradPart>> grad_parts_;
  std::vector<char> backward_ran_;  // per step, per backprop; reused

  // Static memory plan storage: shared buffers handed between values.
  using PlanBuffer = std::unique_ptr<float[], void (*)(float*)>;
  std::vector<PlanBuffer> plan_buffers_;
  std::size_t planned_bytes_ = 0;
  std::size_t plan_naive_bytes_ = 0;

  // Pre-packed weight cache: one entry per (op, stored-param input) site
  // consuming a parameter through a packed GEMM. Sites that consume the
  // same parameter the same way share one panel buffer (keyed at build
  // time by param name + pack kind). `src` is the Network map node
  // (address-stable across runs); `shape` is what the panels were sized
  // for — if the stored tensor is later replaced with a different shape
  // the entry is uninstalled and the op falls back to per-call packing.
  struct Prepack {
    enum class Kind { kMatMulB, kLinearW, kConvW, kFusedConvW };
    Kind kind = Kind::kMatMulB;
    CustomOperator* op = nullptr;
    Tensor* src = nullptr;
    Shape shape;
    int buffer = -1;
  };
  static void install_prepack(const Prepack& e, const float* panels,
                              const float* src);
  std::vector<Prepack> prepack_;
  std::vector<PlanBuffer> prepack_buffers_;
  std::vector<char> prepack_fresh_;  // per-buffer repack scratch (no alloc)
  std::uint64_t prepack_version_ = 0;

  // Parameter-gradient publish table: grads_[slot] is copied into the
  // stored tensor each backprop (slot -1 = parameter unused by the
  // compiled graph; its gradient is zeroed instead).
  struct GradPublish {
    int slot = -1;
    Tensor* dst = nullptr;
    std::string pname;
  };
  void publish_gradient(const GradPublish& gp);
  std::vector<GradPublish> grad_publish_;
  // Eager-publish schedule (overlap_comm): grad_publish_ indices that are
  // final once the reverse walk has passed step i, plus the entries that
  // are final before the walk starts (parameters no compiled step
  // consumes: their gradient is the zero it was just reset to).
  std::vector<std::vector<int>> publish_at_step_;
  std::vector<int> publish_head_;
  GradReadyHook grad_ready_hook_;

  // step() outputs: borrowed views over the output slots.
  struct OutputBinding {
    std::string name;
    int slot = -1;
  };
  std::vector<OutputBinding> output_bindings_;
  TensorMap outputs_view_;

  std::map<std::string, LaunchStats> launch_stats_;
};

}  // namespace d500
