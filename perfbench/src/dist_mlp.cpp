// dist-mlp: synchronous data-parallel training of an MLP over 4 SimMPI
// ranks with BucketedDecentralized (blocking ring allreduce per 1 MiB
// bucket, overlap forced off) around a reference Momentum update.
//
// All four rank threads are bound to one CPU. Spread over four CPUs, every
// ring hand-off crosses CPUs and the step waits for the slowest of four
// virtual CPUs, which on a shared host swung throughput by tens of percent
// between runs; on one CPU a step is the ranks' summed work (compute,
// gradient copies, hand-offs) and repeats closely. Layer spans are taken
// in each rank's own CPU time for the same reason.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "dist/dist_optimizer.hpp"
#include "frameworks/framework.hpp"
#include "layers.hpp"
#include "models/builders.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr std::int64_t kBatch = 8;  // per rank
constexpr std::int64_t kInDim = 512;
constexpr std::int64_t kCheckSteps = 3;
// final_loss: mean loss over ranks and steps [kLossEnd - kLossWindow,
// kLossEnd); the MLP reaches ~1e-3 within 100 steps, where a late window's
// per-seed spread is tens of percent, so the window covers the descent.
constexpr std::int64_t kLossEnd = 128;
constexpr std::int64_t kLossWindow = 128;
constexpr int kChunks = 6;
constexpr std::size_t kBucketBytes = std::size_t{1} << 20;

d500::DatasetSpec mlp_spec() {
  // 2x16x16 = 512 features per sample.
  return {"mlp-512", 2, 16, 16, 10, 4096};
}

d500::Model build_model() {
  return d500::models::mlp(kBatch, kInDim, {512, 512, 512}, 10, kModelSeed);
}

/// One timed step of one rank: wall-clock begin/end, and the rank's own
/// CPU time of the step and of each layer within it (ns). The ranks share
/// one CPU, so a rank's wall-clock spans would include its peers' turns.
struct StepRec {
  std::int64_t begin = 0, end = 0;            // wall clock
  std::int64_t bwd_end = 0, first_update = 0;  // thread CPU clock
  double cpu = 0, fill = 0, fwd = 0, bwd = 0, update = 0;
};

struct RankState {
  std::unique_ptr<d500::GraphExecutor> exec;
  TimedMomentum* update = nullptr;  // owned by opt
  std::unique_ptr<d500::BucketedDecentralized> opt;
  std::unique_ptr<d500::DistributedSampler> sampler;
  d500::TensorMap feeds;
  std::shared_ptr<StepHooks> hooks;
  std::int64_t steps = 0;
  std::vector<double> losses;
  std::uint64_t checksum_check = 0, checksum_final = 0;
  std::vector<StepRec> recs;
};

/// A SimMPI world whose ranks live on their own threads between chunks of
/// training: the constructor sets every rank up and runs the check steps;
/// run_chunk() trains for about `seconds`; the destructor stops the world.
/// Between chunks rank 0 sleeps on a condition variable and the other
/// ranks in a SimMPI barrier, so an idle lane uses no CPU.
class DistLane {
 public:
  DistLane(std::uint64_t seed, d500::Dataset& data, int ranks, bool hooked)
      : seed_(seed), data_(data), hooked_(hooked), world_(ranks),
        ranks_(static_cast<std::size_t>(ranks)), t_start_(now_ns()) {
    host_ = std::thread([this] {
      try {
        world_.run([this](d500::Communicator& c) { body(c); });
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        finished_ = true;
      }
      cv_.notify_all();
    });
    try {
      wait_done(0);
    } catch (...) {
      host_.join();  // the world has finished: a rank failed during set-up
      throw;
    }
  }

  ~DistLane() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      cmd_stop_ = true;
      ++cmd_seq_;
    }
    cv_.notify_all();
    host_.join();
  }

  DistLane(const DistLane&) = delete;
  DistLane& operator=(const DistLane&) = delete;

  void run_chunk(double seconds) {
    const std::uint64_t b0 = world_.total_bytes_sent();
    const std::uint64_t m0 = messages();
    int seq;
    {
      std::lock_guard<std::mutex> lk(mu_);
      cmd_seconds_ = seconds;
      seq = ++cmd_seq_;
    }
    cv_.notify_all();
    wait_done(seq);
    wire_bytes += world_.total_bytes_sent() - b0;
    wire_msgs += messages() - m0;
  }

  /// Seconds from construction until every rank finished its first step.
  double setup_s() const { return static_cast<double>(t_setup_ - t_start_) * 1e-9; }
  const std::vector<RankState>& ranks() const { return ranks_; }
  std::uint64_t wire_bytes = 0, wire_msgs = 0;

 private:
  std::uint64_t messages() const {
    std::uint64_t m = 0;
    for (int r = 0; r < world_.size(); ++r) m += world_.messages_sent(r);
    return m;
  }

  void wait_done(int seq) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_seq_ >= seq || finished_; });
    if (error_) std::rethrow_exception(error_);
    if (done_seq_ < seq) throw std::runtime_error("dist lane stopped early");
  }

  void step(RankState& st, bool timed) {
    StepRec rec;
    rec.begin = now_ns();
    const std::int64_t c0 = thread_cpu_ns();
    const auto idx = st.sampler->next_batch();
    const std::int64_t f0 = thread_cpu_ns();
    data_.fill_batch(idx, st.feeds["data"], st.feeds["labels"]);
    rec.fill = static_cast<double>(thread_cpu_ns() - f0);
    const d500::TensorMap out = st.opt->train(st.feeds);
    rec.end = now_ns();
    rec.cpu = static_cast<double>(thread_cpu_ns() - c0);
    st.losses.push_back(out.at("loss").at(0));
    ++st.steps;
    if (st.steps == kCheckSteps) st.checksum_check = param_checksum(st.exec->network());
    if (st.steps == kLossEnd) st.checksum_final = param_checksum(st.exec->network());
    if (timed) {
      rec.first_update = st.update->first_update;
      rec.update = st.update->update_ns;
      if (st.hooks) {
        const StepHooks& h = *st.hooks;
        rec.fwd = static_cast<double>(h.fwd_end - h.fwd_begin);
        rec.bwd = static_cast<double>(h.bwd_end - h.bwd_begin);
        rec.bwd_end = h.bwd_end;
      }
      st.recs.push_back(rec);
    }
    st.update->take();
  }

  void body(d500::Communicator& comm) {
    const int r = comm.rank();
    pin_thread(0);  // every rank on one CPU: see the file comment
    RankState& st = ranks_[static_cast<std::size_t>(r)];
    st.exec = d500::cf2sim().compile(build_model());
    auto update = std::make_unique<TimedMomentum>(*st.exec, 0.01, 0.9);
    update->thread_cpu = true;
    st.update = update.get();
    d500::BucketOptions bo;
    bo.cap_bytes = kBucketBytes;
    bo.overlap = 0;
    st.opt = std::make_unique<d500::BucketedDecentralized>(std::move(update),
                                                           comm, bo);
    st.opt->set_loss_value("loss");
    st.sampler = std::make_unique<d500::DistributedSampler>(
        data_.size(), kBatch * comm.size(), r, comm.size(), seed_);
    st.feeds["data"] = d500::Tensor::uninitialized({kBatch, kInDim});
    st.feeds["labels"] = d500::Tensor::uninitialized({kBatch});
    if (hooked_) {
      st.hooks = std::make_shared<StepHooks>(st.exec->network(), true);
      st.exec->add_event(st.hooks);
    }
    step(st, false);
    comm.barrier();
    if (r == 0) t_setup_ = now_ns();
    while (st.steps < kCheckSteps + 1) step(st, false);

    int seq = 0;
    for (;;) {
      comm.barrier();
      if (r == 0) {
        std::unique_lock<std::mutex> lk(mu_);
        done_seq_ = seq;
        cv_.notify_all();
        cv_.wait(lk, [&] { return cmd_seq_ > seq; });
        cur_stop_ = cmd_stop_;
        cur_seconds_ = cmd_seconds_;
        stop_at_.store(std::numeric_limits<std::int64_t>::max());
      }
      comm.barrier();
      ++seq;
      if (cur_stop_) break;
      // Rank 0 decides when the chunk ends and announces a stop step two
      // ahead: no rank can pass the current step before rank 0's next
      // ring message, which is sent after the store, so every rank stops
      // at the same step.
      const std::int64_t deadline =
          now_ns() + static_cast<std::int64_t>(cur_seconds_ * 1e9);
      while (st.steps < stop_at_.load()) {
        if (r == 0 && stop_at_.load() == std::numeric_limits<std::int64_t>::max() &&
            now_ns() >= deadline)
          stop_at_.store(st.steps + 2);
        step(st, true);
      }
    }
    st.checksum_final = st.steps >= kLossEnd ? st.checksum_final
                                              : param_checksum(st.exec->network());
  }

  std::uint64_t seed_;
  d500::Dataset& data_;
  bool hooked_;
  d500::SimMpi world_;
  std::vector<RankState> ranks_;
  std::int64_t t_start_;
  std::int64_t t_setup_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  int cmd_seq_ = 0, done_seq_ = -1;
  double cmd_seconds_ = 0;
  bool cmd_stop_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
  // Written by rank 0 before a barrier, read by every rank after it.
  double cur_seconds_ = 0;
  bool cur_stop_ = false;
  std::atomic<std::int64_t> stop_at_{0};

  std::thread host_;  // last: joined before the members it uses go away
};

/// Rank 0's step series: every rank finishes each step within the same
/// ring exchange, so rank 0's step rate is the world's.
TrainFigures figures(const DistLane& lane) {
  std::vector<double> ms;
  for (const auto& r : lane.ranks()[0].recs)
    ms.push_back(static_cast<double>(r.end - r.begin) * 1e-6);
  return train_figures(ms, kBatch * static_cast<double>(lane.ranks().size()));
}

/// Times standalone ring allreduces of one bucket (1 MiB) on a fresh
/// 4-rank world; returns the bus bandwidth 2(n-1)/n * bytes / time, GB/s.
double probe_ring_gbps() {
  constexpr int kReps = 100;
  d500::SimMpi world(kRanks);
  double seconds = 0;
  world.run([&](d500::Communicator& comm) {
    pin_thread(0);
    std::vector<float> buf(kBucketBytes / sizeof(float), 1.0f);
    for (int i = 0; i < 3; ++i) comm.allreduce_sum_ring(buf);
    comm.barrier();
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kReps; ++i) comm.allreduce_sum_ring(buf);
    comm.barrier();
    if (comm.rank() == 0) seconds = seconds_since(t0) / kReps;
  });
  return 2.0 * (kRanks - 1) / kRanks * static_cast<double>(kBucketBytes) /
         seconds * 1e-9;
}

}  // namespace

void run_dist_mlp(const Options& opt, Report& rep) {
  const d500::DatasetSpec spec = mlp_spec();
  const auto offset = static_cast<std::int64_t>(opt.seed % (1u << 30)) * spec.train_size;
  d500::ProceduralImageDataset data(spec, kDataSeed, 0.25f, offset);

  watchdog().phase("setup");
  auto plain = std::make_unique<DistLane>(opt.seed, data, kRanks, false);
  std::unique_ptr<DistLane> traced;
  if (opt.trace) traced = std::make_unique<DistLane>(opt.seed, data, kRanks, true);
  std::vector<DistLane*> lanes = {plain.get()};
  if (traced) lanes.push_back(traced.get());

  std::vector<double> setup_plain, setup_hooked;
  std::int64_t fresh_ok = 0, fresh_runs = 0;
  const double chunk_s = opt.seconds / kChunks / static_cast<double>(lanes.size());
  for (int c = 0; c < kChunks; ++c) {
    watchdog().phase("measure");
    for (std::size_t k = 0; k < lanes.size(); ++k)
      lanes[(k + static_cast<std::size_t>(c)) % lanes.size()]->run_chunk(chunk_s);

    watchdog().phase("fresh-setup");
    const bool hooked = c % 2 == 1;
    DistLane fresh(opt.seed, data, kRanks, hooked);
    (hooked ? setup_hooked : setup_plain).push_back(fresh.setup_s());
    ++fresh_runs;
    bool same = true;
    for (int r = 0; r < kRanks; ++r) {
      const auto& f = fresh.ranks()[static_cast<std::size_t>(r)];
      const auto& p = plain->ranks()[static_cast<std::size_t>(r)];
      same = same && f.checksum_check == p.checksum_check;
      for (std::int64_t i = 0; i < kCheckSteps; ++i)
        same = same && f.losses[static_cast<std::size_t>(i)] ==
                           p.losses[static_cast<std::size_t>(i)];
    }
    fresh_ok += same ? 1 : 0;
  }

  watchdog().phase("loss-window");
  for (DistLane* l : lanes)
    while (l->ranks()[0].steps < kLossEnd) l->run_chunk(0.0);

  // ---- output checks ----
  std::int64_t n_loss = 0, bad_loss = 0, rank_mismatch = 0;
  for (DistLane* l : lanes)
    for (const auto& st : l->ranks()) {
      for (double v : st.losses) bad_loss += std::isfinite(v) ? 0 : 1;
      n_loss += static_cast<std::int64_t>(st.losses.size());
      rank_mismatch += st.checksum_check != l->ranks()[0].checksum_check ||
                       st.checksum_final != l->ranks()[0].checksum_final;
    }
  rep.checked("training losses finite", n_loss, bad_loss);
  rep.checked("FNV-1a params equal across ranks",
              static_cast<std::int64_t>(lanes.size()) * kRanks, rank_mismatch);
  rep.checked("fresh set-ups match the main run (FNV-1a params + losses)",
              fresh_runs, fresh_runs - fresh_ok);
  if (traced) {
    bool same = true;
    for (int r = 0; r < kRanks; ++r) {
      const auto& a = traced->ranks()[static_cast<std::size_t>(r)];
      const auto& b = plain->ranks()[static_cast<std::size_t>(r)];
      same = same && a.checksum_final == b.checksum_final;
      const std::size_t n = std::min(a.losses.size(), b.losses.size());
      for (std::size_t i = 0; i < n; ++i) same = same && a.losses[i] == b.losses[i];
    }
    rep.check("traced run matches untraced run (FNV-1a params + losses)", same);
  }

  // ---- end-to-end ----
  double loss_sum = 0;
  for (const auto& st : plain->ranks())
    for (std::int64_t i = kLossEnd - kLossWindow; i < kLossEnd; ++i)
      loss_sum += st.losses[static_cast<std::size_t>(i)];
  const double final_loss = loss_sum / (kLossWindow * kRanks);
  std::vector<double> all_setup = setup_plain;
  all_setup.insert(all_setup.end(), setup_hooked.begin(), setup_hooked.end());
  const TrainFigures s = figures(*plain);
  report_training(rep, s, final_loss, all_setup);
  rep.knob("timed_steps", std::to_string(plain->ranks()[0].recs.size()));
  if (!opt.trace) return;

  // ---- per-layer (traced lane) ----
  watchdog().phase("probe");
  double fill = 0, fwd = 0, bwd = 0, xchg = 0, upd = 0, cpu = 0, skew = 0;
  std::size_t n = 0;
  const auto& rk = traced->ranks();
  for (std::size_t i = 0; i < rk[0].recs.size(); ++i) {
    double lo = std::numeric_limits<double>::max(), hi = 0;
    for (const auto& st : rk) {
      const StepRec& rec = st.recs[i];
      fill += rec.fill;
      fwd += rec.fwd;
      bwd += rec.bwd;
      upd += rec.update;
      xchg += static_cast<double>(rec.first_update - rec.bwd_end);
      cpu += rec.cpu;
      lo = std::min(lo, rec.fwd + rec.bwd);
      hi = std::max(hi, rec.fwd + rec.bwd);
      ++n;
    }
    skew += hi - lo;
  }
  // Layer times are per rank-step, in the rank's own CPU time; coverage is
  // their sum over the ranks' CPU time of the step.
  const double per = 1e-6 / static_cast<double>(n);
  const double steps = static_cast<double>(rk[0].recs.size());
  rep.layer("frameworks.forward_ms", fwd * per, "ms");
  rep.layer("frameworks.backward_ms", bwd * per, "ms");
  double ops_ns = 0, fwd_ns = 0;
  std::vector<double> type_ns(reported_op_types().size() + 1, 0.0);
  for (const auto& st : rk) {
    ops_ns += st.hooks->ops_ns;
    fwd_ns += st.hooks->fwd_ns;
    for (std::size_t k = 0; k < type_ns.size(); ++k) type_ns[k] += st.hooks->type_ns[k];
  }
  rep.layer("frameworks.overhead_share", 1.0 - ops_ns / fwd_ns, "share");
  rep.layer("train.update_ms", upd * per, "ms");
  rep.layer("data.fill_ms", fill * per, "ms");
  rep.layer("dist.exchange_ms", xchg * per, "ms");
  // Load imbalance: per step, the spread across ranks of forward+backward
  // CPU time.
  rep.layer("dist.skew_ms", skew / steps * 1e-6, "ms");
  rep.layer("step.coverage", (fill + fwd + bwd + xchg + upd) / cpu, "share");
  // Operator time per rank-step (the hooks also count the untimed steps
  // and the check steps, so normalize by the passes they saw).
  double passes = 0;
  for (const auto& st : rk) passes += static_cast<double>(st.hooks->passes);
  report_op_times(rep, type_ns, passes);
  rep.layer("dist.wire_mb_per_step",
            static_cast<double>(traced->wire_bytes) / steps * 1e-6, "MB");
  rep.layer("dist.msgs_per_step", static_cast<double>(traced->wire_msgs) / steps,
            "count");
  rep.layer("dist.ring_gbps", probe_ring_gbps(), "GB/s");

  // Scaling efficiency against a 1-rank world with the same per-rank batch
  // on the same CPU: serialized on one CPU the ideal 4-rank step is four
  // 1-rank steps, so the efficiency is the 4-rank sample rate over the
  // 1-rank sample rate.
  DistLane single(opt.seed, data, 1, false);
  single.run_chunk(opt.seconds / kChunks);
  rep.layer("dist.scaling_eff", s.samples_per_s / figures(single).samples_per_s,
            "share");

  report_deltas(rep, figures(*traced), s, setup_hooked, setup_plain);
}

}  // namespace perfbench
