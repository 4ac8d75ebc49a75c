// Outside-in layer timing: everything here observes the program through
// its public API — executor Event hooks, an optimizer subclass's
// update_rule, standalone CustomOperator calls and InferenceSession
// batches. Nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event.hpp"
#include "graph/model.hpp"
#include "graph/network.hpp"
#include "harness.hpp"
#include "train/optimizers.hpp"

namespace perfbench {

/// Operator types reported as ops.fwd_ms.<type>; any other type the passes
/// produce is folded into ops.fwd_ms.other.
const std::vector<std::string>& reported_op_types();

/// Executor hook recording, per forward/backward pass, the spans between
/// kBefore/kAfterInference and kBefore/kAfterBackprop, and per operator
/// type the summed kBefore/kAfterOperator spans. Installed on one
/// executor; the executor serializes dispatch, so no locking here.
class StepHooks : public d500::Event {
 public:
  /// Maps node names to operator type names (after the executor's passes
  /// have rewritten the graph). With `thread_cpu` the spans are measured
  /// in the calling thread's CPU time instead of wall time.
  explicit StepHooks(const d500::Network& net, bool thread_cpu = false);

  bool on_event(const d500::EventInfo& info) override;

  /// Spans of the most recent forward and backward pass, ns.
  std::int64_t fwd_begin = 0, fwd_end = 0, bwd_begin = 0, bwd_end = 0;

  /// Accumulated over every pass: forward-pass span, summed operator spans
  /// within it, backward span, per-type operator time, passes seen.
  double fwd_ns = 0, ops_ns = 0, bwd_ns = 0;
  std::vector<double> type_ns;  // indexed like reported_op_types(), + other
  std::int64_t passes = 0;

 private:
  bool thread_cpu_;
  std::unordered_map<std::string, int> type_of_node_;
  std::int64_t op_begin_ = 0;
};

/// Reports ops.fwd_ms.<type> for every reported type (0 when absent):
/// `type_ns` summed over `passes` forward passes.
void report_op_times(Report& rep, const std::vector<double>& type_ns,
                     double passes);

/// Update-rule timer mixed into a reference optimizer: times each
/// update_rule call and remembers the first call's start of the step.
template <typename Base>
class Timed : public Base {
 public:
  using Base::Base;

  d500::Tensor update_rule(const d500::Tensor& grad,
                           const d500::Tensor& old_param,
                           const std::string& name) override;

  /// Measure in the calling thread's CPU time instead of wall time.
  bool thread_cpu = false;

  /// Accumulated update_rule time (ns) and the start of the first call
  /// since the last take().
  double update_ns = 0;
  std::int64_t first_update = 0;
  void take() {
    update_ns = 0;
    first_update = 0;
  }
};

using TimedAdam = Timed<d500::AdamOptimizer>;
using TimedMomentum = Timed<d500::MomentumOptimizer>;

/// Standalone Conv2D timing over every convolution of `model`, with the
/// shapes the model feeds it, through the cf2sim native operator.
struct ConvProbe {
  double fwd_gflops = 0;       // achieved forward rate
  double bwd_gflops = 0;       // data+weight gradient rate (2x fwd FLOPs)
  double fwd_gflop_pass = 0;   // forward conv GFLOP of one model pass
};
ConvProbe probe_convs(const d500::Model& model, double seconds);

}  // namespace perfbench
