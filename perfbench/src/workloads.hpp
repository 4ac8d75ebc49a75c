// The three perfbench workloads. Each runs for about opt.seconds of
// measurement, checks its outputs and fills the report: end-to-end metrics
// always, per-layer metrics (and the traced-vs-untraced deltas) when
// opt.trace is set.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Compute threads each workload pins the shared pool to.
inline constexpr int kResnetThreads = 2;
inline constexpr int kDistThreads = 1;
inline constexpr int kServeThreads = 1;

void run_train_resnet(const Options& opt, Report& rep);
void run_dist_mlp(const Options& opt, Report& rep);
void run_serve_lenet(const Options& opt, Report& rep);

}  // namespace perfbench
