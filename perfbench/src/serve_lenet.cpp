// serve-lenet: open-loop serving of a forward-only LeNet through a
// SessionPool (2 sessions, deadline policy, max batch 32, 2 ms deadline),
// driven by the benchmark's own single-thread Poisson generator over a
// fixed ladder of arrival rates.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "data/dataset.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/visitor.hpp"
#include "layers.hpp"
#include "models/builders.hpp"
#include "serve/pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using d500::serve::InferenceSession;
using d500::serve::SessionPool;
using Request = InferenceSession::Request;

constexpr std::int64_t kSamples = 512;     // distinct request payloads
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kIn = 28 * 28;
constexpr double kLadder[] = {3000, 6000, 9000, 11000,
                              13000, 15000, 17000, 20000};
constexpr double kNominal = 3000;          // req/s of the p50/p99 windows
constexpr double kSloP99Ms = 25.0;         // latency limit on p99
// A window whose last arrival finds more than this many requests still
// unanswered (four full batches per session) has a growing backlog.
constexpr std::int64_t kBacklogLimit = 256;
constexpr int kSweeps = 6;                 // ladder sweeps per run
constexpr int kBurstsPerSweep = 4;
constexpr std::int64_t kBurst = 4096;      // requests per saturation burst

d500::Model build_model(std::int64_t batch) {
  return d500::models::lenet(batch, 1, 28, 28, kClasses, kModelSeed,
                             /*with_loss=*/false);
}

d500::serve::PoolOptions pool_options() {
  d500::serve::PoolOptions o;
  o.sessions = 2;
  o.policy = d500::serve::Policy::kDeadline;
  o.max_batch = 32;
  o.deadline_us = 2000;
  o.buckets = {1, 2, 4, 8, 16, 32};
  return o;
}

/// Requests of one window plus what the window measured.
struct Window {
  std::vector<double> latency_ms;  // scheduled arrival -> done
  std::vector<double> server_ms;   // submit -> done
  std::vector<double> late_ms;     // generator: submit - scheduled
  double span_s = 0;               // first scheduled arrival -> last done
  std::int64_t backlog = 0;        // unanswered at the last arrival
  std::int64_t bad_replies = 0;
  d500::serve::SessionPool::Stats stats{};
};

class Driver {
 public:
  Driver(const d500::Model& model, std::uint64_t seed)
      : seed_(seed), inputs_(static_cast<std::size_t>(kSamples * kIn)),
        refs_(static_cast<std::size_t>(kSamples * kClasses)) {
    d500::ProceduralImageDataset data(
        d500::mnist_like_spec(), kDataSeed, 0.25f,
        static_cast<std::int64_t>(seed % (1u << 30)) * kSamples);
    d500::Tensor sample({1, 28, 28});
    for (std::int64_t i = 0; i < kSamples; ++i) {
      std::int64_t label = 0;
      data.get(i, sample, label);
      std::memcpy(inputs_.data() + i * kIn, sample.data(), kIn * sizeof(float));
      labels_.push_back(label);
    }
    // Reference replies: every sample alone through a batch-1 plan.
    InferenceSession ref(model, {1}, "perfbench.ref");
    for (std::int64_t i = 0; i < kSamples; ++i) {
      Request r;
      r.input = inputs_.data() + i * kIn;
      r.output = refs_.data() + i * kClasses;
      Request* p = &r;
      ref.run_batch(&p, 1);
    }
  }

  /// Mean cross-entropy of the reference replies against the labels.
  double reference_loss() const {
    double sum = 0;
    for (std::int64_t i = 0; i < kSamples; ++i) {
      const float* z = refs_.data() + i * kClasses;
      const double zmax = *std::max_element(z, z + kClasses);
      double lse = 0;
      for (std::int64_t k = 0; k < kClasses; ++k) lse += std::exp(z[k] - zmax);
      sum += zmax + std::log(lse) - z[labels_[static_cast<std::size_t>(i)]];
    }
    return sum / kSamples;
  }

  /// Offers `n` requests to `pool` at Poisson rate `rate` (rate 0: all at
  /// once), waits for every reply and checks each bitwise.
  Window run(SessionPool& pool, std::int64_t n, double rate, std::uint64_t stream) {
    d500::Rng rng(seed_ ^ (stream * 0x9E3779B97F4A7C15ull));
    std::vector<std::int64_t> due(static_cast<std::size_t>(n));
    double t = 0;
    for (auto& d : due) {
      if (rate > 0) t += -std::log(1.0 - rng.uniform()) / rate;
      d = static_cast<std::int64_t>(t * 1e9);
    }
    std::unique_ptr<Request[]> reqs(new Request[static_cast<std::size_t>(n)]);
    std::vector<float> out(static_cast<std::size_t>(n * kClasses));
    std::vector<std::int64_t> sample(static_cast<std::size_t>(n));
    Window w;
    w.late_ms.reserve(static_cast<std::size_t>(n));
    const auto s0 = pool.stats();
    const std::int64_t t0 = d500::serve::serve_now_ns() + 1'000'000;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t at = t0 + due[static_cast<std::size_t>(i)];
      // Spin: the generator owns its CPU, and a timed sleep can overshoot
      // by milliseconds on a virtual machine.
      std::int64_t now = d500::serve::serve_now_ns();
      while (now < at) now = d500::serve::serve_now_ns();
      const std::int64_t k = static_cast<std::int64_t>(rng() % kSamples);
      sample[static_cast<std::size_t>(i)] = k;
      Request& r = reqs[static_cast<std::size_t>(i)];
      r.input = inputs_.data() + k * kIn;
      r.output = out.data() + i * kClasses;
      pool.submit(&r);
      w.late_ms.push_back(static_cast<double>(now - at) * 1e-6);
    }
    std::int64_t last_done = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      Request& r = reqs[static_cast<std::size_t>(i)];
      pool.wait(r);
      const std::int64_t at = t0 + due[static_cast<std::size_t>(i)];
      w.latency_ms.push_back(static_cast<double>(r.done_ns - at) * 1e-6);
      w.server_ms.push_back(static_cast<double>(r.done_ns - r.arrival_ns) * 1e-6);
      last_done = std::max(last_done, r.done_ns);
      const std::int64_t k = sample[static_cast<std::size_t>(i)];
      w.bad_replies += std::memcmp(r.output, refs_.data() + k * kClasses,
                                   kClasses * sizeof(float)) != 0;
    }
    w.span_s = static_cast<double>(last_done - t0) * 1e-9;
    const std::int64_t last_at = t0 + due.back();
    for (std::int64_t i = 0; i < n; ++i)
      w.backlog += reqs[static_cast<std::size_t>(i)].done_ns > last_at;
    const auto s1 = pool.stats();
    w.stats.requests = s1.requests - s0.requests;
    w.stats.batches = s1.batches - s0.batches;
    w.stats.padded_rows = s1.padded_rows - s0.padded_rows;
    w.stats.deadline_launches = s1.deadline_launches - s0.deadline_launches;
    return w;
  }

  const float* inputs() const { return inputs_.data(); }

 private:
  std::uint64_t seed_;
  std::vector<float> inputs_;
  std::vector<float> refs_;
  std::vector<std::int64_t> labels_;
};

/// Per-rate aggregate over every window run at that rate.
struct RatePoint {
  std::vector<double> latency_ms;
  std::vector<double> server_ms;
  std::vector<double> late_ms;
  bool growing = false;
  d500::serve::SessionPool::Stats stats{};
};

void append(RatePoint& p, const Window& w) {
  p.latency_ms.insert(p.latency_ms.end(), w.latency_ms.begin(), w.latency_ms.end());
  p.server_ms.insert(p.server_ms.end(), w.server_ms.begin(), w.server_ms.end());
  p.late_ms.insert(p.late_ms.end(), w.late_ms.begin(), w.late_ms.end());
  p.growing = p.growing || w.backlog > kBacklogLimit;
  p.stats.requests += w.stats.requests;
  p.stats.batches += w.stats.batches;
  p.stats.padded_rows += w.stats.padded_rows;
  p.stats.deadline_launches += w.stats.deadline_launches;
}

/// Highest rate meeting the p99 limit without a growing backlog,
/// interpolated in log(p99) between the last passing and first failing
/// ladder rates.
double slo_rate(const std::vector<RatePoint>& pts) {
  constexpr std::size_t n = std::size(kLadder);
  for (std::size_t i = 0; i < n; ++i) {
    const double p99 = quantile(pts[i].latency_ms, 0.99);
    if (p99 <= kSloP99Ms && !pts[i].growing) continue;
    if (i == 0) return kLadder[0] * kSloP99Ms / p99;
    const double lo = quantile(pts[i - 1].latency_ms, 0.99);
    const double hi = std::max(p99, kSloP99Ms * 1.0001);
    const double f = (std::log(kSloP99Ms) - std::log(lo)) / (std::log(hi) - std::log(lo));
    return kLadder[i - 1] + (kLadder[i] - kLadder[i - 1]) * std::clamp(f, 0.0, 1.0);
  }
  return kLadder[n - 1];
}

/// Warm per-request cost of run_batch at batch size n, microseconds.
double us_per_request(InferenceSession& sess, const float* inputs,
                      std::int64_t n, double seconds) {
  std::vector<Request> reqs(static_cast<std::size_t>(n));
  std::vector<Request*> p;
  std::vector<float> out(static_cast<std::size_t>(n * kClasses));
  for (std::int64_t i = 0; i < n; ++i) {
    reqs[static_cast<std::size_t>(i)].input = inputs + (i % kSamples) * kIn;
    reqs[static_cast<std::size_t>(i)].output = out.data() + i * kClasses;
    p.push_back(&reqs[static_cast<std::size_t>(i)]);
  }
  sess.run_batch(p.data(), n);
  std::int64_t calls = 0;
  const std::int64_t t0 = now_ns();
  do {
    sess.run_batch(p.data(), n);
    ++calls;
  } while (seconds_since(t0) < seconds);
  return seconds_since(t0) * 1e6 / static_cast<double>(calls * n);
}

}  // namespace

void run_serve_lenet(const Options& opt, Report& rep) {
  watchdog().phase("setup");
  const d500::Model model = build_model(1);
  Driver driver(model, opt.seed);
  SessionPool pool(model, pool_options());
  // The generator spins on CPU 0; each session worker gets a CPU of its own.
  const std::vector<int> before = thread_ids();
  pool.start();
  int slot = 1;
  for (int tid : thread_ids())
    if (!std::binary_search(before.begin(), before.end(), tid)) pin_tid(tid, slot++);
  driver.run(pool, static_cast<std::int64_t>(kNominal * 0.5), kNominal,
             0);  // warm-up, discarded

  // Every figure is a median over many short windows spread through the
  // run: a host stall (a hypervisor can preempt a virtual CPU for tens of
  // milliseconds) spoils the windows it lands in, not the median. Per sweep: the ladder
  // windows (28% of the sweep), a nominal-rate window before each (48%),
  // then saturation bursts (about 24%).
  const double sweep_s = opt.seconds / kSweeps;
  const double ladder_s =
      std::max(0.15, 0.28 * sweep_s / static_cast<double>(std::size(kLadder)));
  const double nominal_s = 0.48 * sweep_s / static_cast<double>(std::size(kLadder));
  RatePoint nominal;                               // pooled, for the layers
  std::vector<RatePoint> pts(std::size(kLadder));  // pooled, for the table
  std::vector<double> setup_s, p50, p99, slo, burst;
  std::int64_t replies = 0, bad = 0;
  std::uint64_t stream = 1;
  auto window = [&](std::int64_t n, double rate) {
    const Window w = driver.run(pool, n, rate, stream++);
    replies += n;
    bad += w.bad_replies;
    return w;
  };
  for (int sweep_no = 0; sweep_no < kSweeps; ++sweep_no) {
    std::vector<RatePoint> sweep(std::size(kLadder));
    for (std::size_t i = 0; i < std::size(kLadder); ++i) {
      watchdog().phase("nominal");
      // At least 1000 requests, so each window's p99 has 10 beyond it.
      const Window nw = window(
          std::max<std::int64_t>(1000, static_cast<std::int64_t>(kNominal * nominal_s)),
          kNominal);
      p50.push_back(quantile(nw.latency_ms, 0.5));
      p99.push_back(quantile(nw.latency_ms, 0.99));
      append(nominal, nw);
      if (i % 2 == 0) {
        // A fresh set-up: both sessions built (every bucket plan compiled
        // and warmed) and their workers started.
        watchdog().phase("fresh-setup");
        const std::int64_t t0 = now_ns();
        SessionPool fresh(model, pool_options());
        fresh.start();
        setup_s.push_back(seconds_since(t0));
      }
      watchdog().phase("ladder");
      const Window w =
          window(static_cast<std::int64_t>(kLadder[i] * ladder_s), kLadder[i]);
      append(sweep[i], w);
      append(pts[i], w);
    }
    slo.push_back(slo_rate(sweep));
    watchdog().phase("burst");
    for (int b = 0; b < kBurstsPerSweep; ++b)
      burst.push_back(kBurst / window(kBurst, 0.0).span_s);
  }
  pool.shutdown();
  rep.checked("served replies bitwise equal to batch-1 references", replies, bad);

  rep.metric("samples_per_s", median(burst), "1/s");
  rep.metric("final_loss", driver.reference_loss(), "nats");
  rep.metric("p50_ms", median(p50), "ms");
  // The p99 a quiet window achieves: the lower quartile over windows. The
  // host preempts a virtual CPU for several milliseconds many times a
  // second, and how many windows such stalls reach moved the median of the
  // window p99s by a quarter between runs; the lower quartile tracks the
  // program's own tail.
  rep.metric("p99_ms", quantile(p99, 0.25), "ms");
  rep.metric("slo_rps", median(slo), "1/s");
  rep.metric("setup_s", median(setup_s), "s");
  for (std::size_t i = 0; i < std::size(kLadder); ++i)
    rep.knob("ladder." + std::to_string(static_cast<int>(kLadder[i])),
             "p50 " + std::to_string(quantile(pts[i].latency_ms, 0.5)) +
                 " ms, p99 " + std::to_string(quantile(pts[i].latency_ms, 0.99)) +
                 " ms, n " + std::to_string(pts[i].latency_ms.size()) +
                 (pts[i].growing ? ", backlog growing" : ""));
  if (!opt.trace) return;

  // ---- per-layer ----
  watchdog().phase("probe");
  const auto& st = nominal.stats;
  rep.layer("serve.batch_mean", static_cast<double>(st.requests) / st.batches, "count");
  rep.layer("serve.pad_share",
            static_cast<double>(st.padded_rows) / (st.requests + st.padded_rows), "share");
  rep.layer("serve.expiry_share",
            static_cast<double>(st.deadline_launches) / st.batches, "share");
  rep.layer("serve.server_ms_p50", quantile(nominal.server_ms, 0.5), "ms");
  rep.layer("serve.gen_late_ms_p99", quantile(nominal.late_ms, 0.99), "ms");

  InferenceSession probe(model, {1, 32}, "perfbench.probe");
  double b1 = 0, b32 = 0;
  for (int i = 0; i < 4; ++i) {  // interleaved so both see the same phases
    b1 += us_per_request(probe, driver.inputs(), 1, 0.1) / 4;
    b32 += us_per_request(probe, driver.inputs(), 32, 0.1) / 4;
  }
  rep.layer("frameworks.us_per_req.b1", b1, "us");
  rep.layer("frameworks.us_per_req.b32", b32, "us");
  rep.layer("serve.batching_gain", b1 / b32, "ratio");

  // Forward pass of one batch-32 serving plan, observed through hooks.
  d500::Network net = d500::build_network(build_model(32));
  net.set_training(false);
  d500::PlanExecutor exec(std::move(net), "perfbench.fwd", d500::ExecOptions{});
  auto hooks = std::make_shared<StepHooks>(exec.network());
  exec.add_event(hooks);
  d500::TensorMap feeds;
  feeds["data"] = d500::Tensor({32, 1, 28, 28},
                               std::span<const float>(driver.inputs(), 32 * kIn));
  const std::int64_t t0 = now_ns();
  do exec.inference_step(feeds);
  while (seconds_since(t0) < 0.5);
  const double passes = static_cast<double>(hooks->passes);
  rep.layer("frameworks.forward_ms", hooks->fwd_ns / passes * 1e-6, "ms");
  rep.layer("frameworks.overhead_share", 1.0 - hooks->ops_ns / hooks->fwd_ns, "share");
  report_op_times(rep, hooks->type_ns, passes);

  const ConvProbe cp = probe_convs(build_model(32), 0.5);
  rep.layer("ops.conv_fwd_gflops", cp.fwd_gflops, "GFLOP/s");
  rep.layer("ops.conv_bwd_gflops", cp.bwd_gflops, "GFLOP/s");
  rep.layer("ops.conv_gflop_per_step", cp.fwd_gflop_pass, "GFLOP");

  // The request path carries no hooks: latency and lateness stamps are
  // taken in every run, so tracing adds nothing to the served requests.
  for (const char* m : {"samples_per_s", "final_loss", "p50_ms", "p99_ms",
                        "slo_rps", "setup_s"})
    rep.layer(std::string("trace.delta.") + m, 0.0, "share");
}

}  // namespace perfbench
