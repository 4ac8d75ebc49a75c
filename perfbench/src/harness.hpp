// Shared plumbing of the perfbench workloads: the clock, order statistics,
// the run report (metrics, output checks, recorded knobs), the hang
// watchdog and the parameter checksum.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace d500 {
class Network;
}

namespace perfbench {

/// Steady-clock nanoseconds: the one time domain of every span.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// CPU time of the calling thread, ns: excludes time the thread waited or
/// was preempted, so spans of threads that share one CPU stay their own.
std::int64_t thread_cpu_ns();

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Quantile by linear interpolation between order statistics (q in [0,1]);
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Model weights and dataset class templates are fixed; the workload seed
/// picks the inputs (sample noise, minibatch order, request payloads and
/// arrival times), so runs with different seeds train and serve the same
/// models on different input streams.
inline constexpr std::uint64_t kModelSeed = 0xD500'0001;
inline constexpr std::uint64_t kDataSeed = 0xD500'0002;

/// Timing figures of a training run, from its series of timed steps. The
/// series is cut into 12 runs of consecutive steps; each window gives its
/// throughput (work over time) and its p50/p99 step time, and each figure
/// is the median over windows, so host stalls that spoil a minority of
/// windows do not move it. slo_rps is the sample rate sustained when every
/// step takes the p99 step time.
struct TrainFigures {
  double samples_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double slo_rps = 0;
};
TrainFigures train_figures(const std::vector<double>& step_ms,
                           double samples_per_step);

/// FNV-1a over every parameter tensor of `net`, in declaration order.
std::uint64_t param_checksum(const d500::Network& net);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run reports. Metric order is insertion order so the
/// printed table reads like the workload's phases.
class Report {
 public:
  /// End-to-end metric (printed in the JSON result of an untraced run).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (printed in the JSON result of a traced run).
  void layer(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check counts toward failed_share.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Adds `n` checked outputs of which `bad` failed (bulk form of check()).
  void checked(const std::string& name, std::int64_t n, std::int64_t bad);
  void knob(const std::string& name, const std::string& value);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Prints knobs, checks and metrics as `name = value unit` lines, then
  /// the one-line JSON result, which is the last line of stdout.
  void print(const Options& opt) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool layer;
  };
  void add(const std::string& name, double value, const std::string& unit,
           bool layer);
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> knobs_;
  std::vector<std::string> check_lines_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Hang guard. A monitor thread aborts the process (exit code 3) naming the
/// workload and its current phase when a phase outlives its allowance or
/// the whole run outlives the total budget. Phases are entered with
/// phase(); the pointer must name a string literal.
class Watchdog {
 public:
  Watchdog(std::string workload, double phase_limit_s, double total_limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void phase(const char* name);

 private:
  void monitor();

  std::string workload_;
  std::int64_t phase_limit_ns_;
  std::int64_t deadline_ns_;
  std::atomic<const char*> phase_{"start"};
  std::atomic<std::int64_t> phase_start_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// The process-wide watchdog of the current run (set by main).
Watchdog& watchdog();
void set_watchdog(Watchdog* w);

/// Reports the end-to-end metrics of a training workload (peak_rss_mb is
/// added by main).
void report_training(Report& rep, const TrainFigures& f, double final_loss,
                     const std::vector<double>& setup_s);

/// Reports trace.delta.<metric> = traced / untraced - 1 for each
/// end-to-end metric of a training workload whose traced and untraced
/// lanes ran interleaved. final_loss is 0: the lanes' losses are checked
/// bitwise equal.
void report_deltas(Report& rep, const TrainFigures& traced,
                   const TrainFigures& plain,
                   const std::vector<double>& setup_hooked,
                   const std::vector<double>& setup_plain);

/// Records host facts (CPU count and model, PMU availability) and every
/// resolved d500 knob into the report, and checks that each pinned knob
/// resolved to the value the benchmark asked for.
void record_environment(Report& rep, int pool_threads);

/// Binds the calling thread to CPUs first..first+count-1 of those this
/// process may run on (modulo their number), as an MPI launcher binds ranks
/// to cores. Threads the caller creates afterwards inherit the binding.
void pin_thread(int first, int count = 1);

/// Thread ids of this process (from /proc/self/task).
std::vector<int> thread_ids();

/// Binds thread `tid` of this process to the `slot`-th allowed CPU.
void pin_tid(int tid, int slot);

/// Idle keepers: one lowest-priority (SCHED_IDLE) spinning thread bound to
/// each CPU of this process. The kernel runs a keeper only while its CPU
/// has nothing else to run and preempts it as soon as a benchmark thread
/// wakes, so keepers take no time from the workload; they only keep the
/// virtual CPUs from halting. On a virtual machine a halted CPU that is
/// woken waits for the hypervisor to schedule it again, and that wait
/// (reported as steal time) would otherwise land inside every blocking
/// hand-off between threads -- a session waking for a batch, a pool worker
/// waking for a chunk -- and swing latencies with the host's load.
class IdleKeepers {
 public:
  IdleKeepers();
  ~IdleKeepers();
  IdleKeepers(const IdleKeepers&) = delete;
  IdleKeepers& operator=(const IdleKeepers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: joined before stop_ goes away
};

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
