// train-resnet: single-process training of a CIFAR-like ResNet through the
// quickstart path (cf2sim executor, reference Adam, ShuffleSampler over an
// in-memory procedural dataset), driven step by step as
// sampler -> Dataset::fill_batch -> Optimizer::train.
#include <cmath>
#include <memory>

#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "frameworks/framework.hpp"
#include "layers.hpp"
#include "models/builders.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kBatch = 16;
constexpr std::int64_t kCheckSteps = 3;   // steps every lane runs before the
                                          // checksum comparison
// final_loss: mean loss of steps [kLossEnd - kLossWindow, kLossEnd). The
// window starts at step 0 because per-seed spread of a short late window
// was ~10%, against ~1.5% for the whole descent.
constexpr std::int64_t kLossEnd = 128;
constexpr std::int64_t kLossWindow = 128;
constexpr int kChunks = 6;                // measurement chunks; a fresh
                                          // set-up is timed after each

d500::Model build_model() {
  return d500::models::resnet(kBatch, 3, 32, 32, 10, /*base_width=*/8,
                              /*blocks_per_stage=*/2, kModelSeed);
}

/// One independent training run: model, executor, optimizer, sampler.
struct Lane {
  Lane(std::uint64_t seed, d500::Dataset& data, bool hooked)
      : data(data),
        exec(d500::cf2sim().compile(build_model())),
        opt(std::make_unique<TimedAdam>(*exec, 1e-3)),
        sampler(data.size(), kBatch, seed) {
    opt->set_loss_value("loss");
    feeds["data"] = d500::Tensor::uninitialized({kBatch, 3, 32, 32});
    feeds["labels"] = d500::Tensor::uninitialized({kBatch});
    if (hooked) {
      hooks = std::make_shared<StepHooks>(exec->network());
      exec->add_event(hooks);
    }
  }

  void step(bool timed) {
    const std::int64_t t0 = now_ns();
    const auto idx = sampler.next_batch();
    const std::int64_t t1 = now_ns();
    data.fill_batch(idx, feeds["data"], feeds["labels"]);
    const std::int64_t t2 = now_ns();
    const d500::TensorMap out = opt->train(feeds);
    const std::int64_t t3 = now_ns();
    losses.push_back(out.at("loss").at(0));
    ++steps;
    if (steps == kCheckSteps) checksum = param_checksum(exec->network());
    if (steps == kLossEnd) checksum_final = param_checksum(exec->network());
    if (timed) {
      step_ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
      fill_ns += static_cast<double>(t2 - t1);
      update_ns += opt->update_ns;
      if (hooks) {
        fwd_ns += static_cast<double>(hooks->fwd_end - hooks->fwd_begin);
        bwd_ns += static_cast<double>(hooks->bwd_end - hooks->bwd_begin);
      }
    }
    opt->take();
  }

  void run_for(double seconds) {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do step(true);
    while (now_ns() < end);
  }

  d500::Dataset& data;
  std::unique_ptr<d500::GraphExecutor> exec;
  std::unique_ptr<TimedAdam> opt;
  d500::ShuffleSampler sampler;
  d500::TensorMap feeds;
  std::shared_ptr<StepHooks> hooks;

  std::int64_t steps = 0;
  std::vector<double> losses;
  std::uint64_t checksum = 0, checksum_final = 0;  // after kCheckSteps, kLossEnd
  std::vector<double> step_ms;  // timed steps only
  double fill_ns = 0, update_ns = 0, fwd_ns = 0, bwd_ns = 0;
};

}  // namespace

void run_train_resnet(const Options& opt, Report& rep) {
  d500::DatasetSpec spec = d500::cifar10_like_spec();
  spec.train_size = 1024;
  const auto offset = static_cast<std::int64_t>(opt.seed % (1u << 30)) * spec.train_size;
  d500::ProceduralImageDataset data(spec, kDataSeed, 0.25f, offset);

  watchdog().phase("setup");
  // Lane B is untraced; in a traced run lane A carries the hooks and the
  // two alternate chunk by chunk so both see the same host phases.
  std::unique_ptr<Lane> traced;
  auto plain = std::make_unique<Lane>(opt.seed, data, false);
  if (opt.trace) traced = std::make_unique<Lane>(opt.seed, data, true);
  std::vector<Lane*> lanes = {plain.get()};
  if (traced) lanes.push_back(traced.get());
  for (Lane* l : lanes)
    while (l->steps < kCheckSteps + 1) l->step(false);

  std::vector<double> setup_plain, setup_hooked;
  std::int64_t fresh_ok = 0, fresh_runs = 0;
  const double chunk_s = opt.seconds / kChunks / static_cast<double>(lanes.size());
  for (int c = 0; c < kChunks; ++c) {
    watchdog().phase("measure");
    for (std::size_t k = 0; k < lanes.size(); ++k)
      lanes[(k + static_cast<std::size_t>(c)) % lanes.size()]->run_for(chunk_s);

    // A fresh set-up: build, compile (passes, memory plan, prepack) and the
    // first training step; hooks on every other one.
    watchdog().phase("fresh-setup");
    const bool hooked = c % 2 == 1;
    const std::int64_t t0 = now_ns();
    Lane fresh(opt.seed, data, hooked);
    fresh.step(false);
    (hooked ? setup_hooked : setup_plain).push_back(seconds_since(t0));
    while (fresh.steps < kCheckSteps) fresh.step(false);
    ++fresh_runs;
    bool same = fresh.checksum == plain->checksum;
    for (std::int64_t i = 0; i < kCheckSteps; ++i)
      same = same && fresh.losses[static_cast<std::size_t>(i)] ==
                         plain->losses[static_cast<std::size_t>(i)];
    fresh_ok += same ? 1 : 0;
  }

  watchdog().phase("loss-window");
  for (Lane* l : lanes)
    while (l->steps < kLossEnd) l->step(false);

  // ---- output checks ----
  std::int64_t bad_loss = 0;
  for (Lane* l : lanes)
    for (double v : l->losses) bad_loss += std::isfinite(v) ? 0 : 1;
  std::int64_t n_loss = 0;
  for (Lane* l : lanes) n_loss += static_cast<std::int64_t>(l->losses.size());
  rep.checked("training losses finite", n_loss, bad_loss);
  rep.checked("fresh set-ups match the main run (FNV-1a params + losses)",
              fresh_runs, fresh_runs - fresh_ok);
  if (traced) {
    bool same = traced->checksum_final == plain->checksum_final;
    const std::size_t n = std::min(traced->losses.size(), plain->losses.size());
    for (std::size_t i = 0; i < n; ++i)
      same = same && traced->losses[i] == plain->losses[i];
    rep.check("traced run matches untraced run (FNV-1a params + losses)", same);
  }

  // ---- end-to-end ----
  double loss_sum = 0;
  for (std::int64_t i = kLossEnd - kLossWindow; i < kLossEnd; ++i)
    loss_sum += plain->losses[static_cast<std::size_t>(i)];
  const double final_loss = loss_sum / kLossWindow;
  std::vector<double> all_setup = setup_plain;
  all_setup.insert(all_setup.end(), setup_hooked.begin(), setup_hooked.end());
  const TrainFigures s = train_figures(plain->step_ms, kBatch);
  report_training(rep, s, final_loss, all_setup);
  rep.knob("timed_steps", std::to_string(plain->step_ms.size()));
  if (!opt.trace) return;

  // ---- per-layer (lane A) ----
  watchdog().phase("probe");
  const Lane& a = *traced;
  const StepHooks& h = *a.hooks;
  const double steps = static_cast<double>(a.step_ms.size());
  double step_ns = 0;
  for (double ms : a.step_ms) step_ns += ms * 1e6;
  rep.layer("frameworks.forward_ms", a.fwd_ns / steps * 1e-6, "ms");
  rep.layer("frameworks.backward_ms", a.bwd_ns / steps * 1e-6, "ms");
  rep.layer("frameworks.overhead_share", 1.0 - h.ops_ns / h.fwd_ns, "share");
  rep.layer("train.update_ms", a.update_ns / steps * 1e-6, "ms");
  rep.layer("data.fill_ms", a.fill_ns / steps * 1e-6, "ms");
  rep.layer("step.coverage",
            (a.fill_ns + a.fwd_ns + a.bwd_ns + a.update_ns) / step_ns, "share");
  // The hooks saw every pass, timed or not: report time per pass.
  report_op_times(rep, h.type_ns, static_cast<double>(h.passes));

  const ConvProbe cp = probe_convs(build_model(), 1.0);
  rep.layer("ops.conv_fwd_gflops", cp.fwd_gflops, "GFLOP/s");
  rep.layer("ops.conv_bwd_gflops", cp.bwd_gflops, "GFLOP/s");
  rep.layer("ops.conv_gflop_per_step", 3.0 * cp.fwd_gflop_pass, "GFLOP");

  report_deltas(rep, train_figures(a.step_ms, kBatch), s, setup_hooked,
                setup_plain);
}

}  // namespace perfbench
