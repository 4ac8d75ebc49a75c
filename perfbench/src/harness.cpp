#include "harness.hpp"

#include <linux/perf_event.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/arena.hpp"
#include "core/env.hpp"
#include "core/simd.hpp"
#include "core/threadpool.hpp"
#include "graph/network.hpp"
#include "ops/gemm.hpp"

namespace perfbench {

namespace {

/// The CPUs this process may run on, in ascending order.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    std::vector<int> v;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) v.push_back(cpu);
    return v;
  }();
  return cpus;
}

cpu_set_t slots(int first, int count) {
  const auto& cpus = allowed_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int k = 0; k < count && !cpus.empty(); ++k)
    CPU_SET(cpus[static_cast<std::size_t>(first + k) % cpus.size()], &set);
  return set;
}

}  // namespace

std::int64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

TrainFigures train_figures(const std::vector<double>& step_ms,
                           double samples_per_step) {
  constexpr std::size_t kWindows = 12;
  const std::size_t n = step_ms.size();
  const std::size_t w = std::max<std::size_t>(1, std::min(kWindows, n));
  std::vector<double> rate, p50, p99;
  for (std::size_t k = 0; k < w; ++k) {
    const std::vector<double> win(
        step_ms.begin() + static_cast<std::ptrdiff_t>(k * n / w),
        step_ms.begin() + static_cast<std::ptrdiff_t>((k + 1) * n / w));
    double ms = 0;
    for (double x : win) ms += x;
    rate.push_back(static_cast<double>(win.size()) * samples_per_step / (ms * 1e-3));
    p50.push_back(quantile(win, 0.5));
    p99.push_back(quantile(win, 0.99));
  }
  TrainFigures f;
  f.samples_per_s = median(rate);
  f.p50_ms = median(p50);
  f.p99_ms = median(p99);
  f.slo_rps = samples_per_step / (f.p99_ms * 1e-3);
  return f;
}

void report_training(Report& rep, const TrainFigures& f, double final_loss,
                     const std::vector<double>& setup_s) {
  rep.metric("samples_per_s", f.samples_per_s, "1/s");
  rep.metric("final_loss", final_loss, "nats");
  rep.metric("p50_ms", f.p50_ms, "ms");
  rep.metric("p99_ms", f.p99_ms, "ms");
  rep.metric("slo_rps", f.slo_rps, "1/s");
  rep.metric("setup_s", median(setup_s), "s");
}

void report_deltas(Report& rep, const TrainFigures& traced,
                   const TrainFigures& plain,
                   const std::vector<double>& setup_hooked,
                   const std::vector<double>& setup_plain) {
  rep.layer("trace.delta.samples_per_s", traced.samples_per_s / plain.samples_per_s - 1, "share");
  rep.layer("trace.delta.final_loss", 0.0, "share");
  rep.layer("trace.delta.p50_ms", traced.p50_ms / plain.p50_ms - 1, "share");
  rep.layer("trace.delta.p99_ms", traced.p99_ms / plain.p99_ms - 1, "share");
  rep.layer("trace.delta.slo_rps", traced.slo_rps / plain.slo_rps - 1, "share");
  rep.layer("trace.delta.setup_s", median(setup_hooked) / median(setup_plain) - 1, "share");
}

std::uint64_t param_checksum(const d500::Network& net) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& pname : net.parameters()) {
    const d500::Tensor& t = net.fetch_tensor(pname);
    const auto* p = reinterpret_cast<const unsigned char*>(t.data());
    for (std::size_t i = 0; i < t.bytes(); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ---- Report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  add(name, value, unit, false);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  add(name, value, unit, true);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, bool layer) {
  if (!std::isfinite(value)) {
    check("finite metric " + name, false, "value is not finite");
    value = 0.0;
  }
  for (auto& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit, layer});
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checked(name, 1, ok ? 0 : 1);
  if (!ok && !detail.empty()) check_lines_.back() += " (" + detail + ")";
}

void Report::checked(const std::string& name, std::int64_t n, std::int64_t bad) {
  attempted_ += n;
  failed_ += bad;
  std::ostringstream os;
  os << "check " << name << ": " << (bad == 0 ? "ok" : "FAILED") << " ("
     << (n - bad) << "/" << n << " passed)";
  check_lines_.push_back(os.str());
}

void Report::knob(const std::string& name, const std::string& value) {
  knobs_.emplace_back(name, value);
}

namespace {
std::string num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}
}  // namespace

void Report::print(const Options& opt) const {
  std::ostringstream os;
  os << "perfbench workload=" << opt.workload << " seed=" << opt.seed
     << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0) << "\n";
  for (const auto& [k, v] : knobs_) os << "knob " << k << " = " << v << "\n";
  for (const auto& line : check_lines_) os << line << "\n";
  for (const auto& m : metrics_)
    os << (m.layer ? "layer " : "metric ") << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  const double share =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  os << "failed_share = " << num(share) << " (" << failed_ << " of "
     << attempted_ << " checked outputs)\n";

  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    if (m.layer != opt.trace) continue;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
}

// ---- Watchdog --------------------------------------------------------------

namespace {
Watchdog* g_watchdog = nullptr;
}

Watchdog& watchdog() { return *g_watchdog; }
void set_watchdog(Watchdog* w) { g_watchdog = w; }

Watchdog::Watchdog(std::string workload, double phase_limit_s,
                   double total_limit_s)
    : workload_(std::move(workload)),
      phase_limit_ns_(static_cast<std::int64_t>(phase_limit_s * 1e9)),
      deadline_ns_(now_ns() + static_cast<std::int64_t>(total_limit_s * 1e9)),
      phase_start_ns_(now_ns()),
      thread_([this] { monitor(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::phase(const char* name) {
  phase_start_ns_.store(now_ns());
  phase_.store(name);
}

void Watchdog::monitor() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(200));
    if (stop_) break;
    const std::int64_t t = now_ns();
    const std::int64_t in_phase = t - phase_start_ns_.load();
    if (in_phase > phase_limit_ns_ || t > deadline_ns_) {
      std::fprintf(stderr,
                   "perfbench watchdog: workload %s stuck in phase '%s' "
                   "(%.1f s in phase, %s); aborting\n",
                   workload_.c_str(), phase_.load(),
                   static_cast<double>(in_phase) * 1e-9,
                   t > deadline_ns_ ? "run budget exhausted"
                                    : "phase limit exceeded");
      std::fflush(stderr);
      std::_Exit(3);
    }
  }
}

// ---- Environment -----------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Opens (and closes) a hardware cycle counter on this thread; returns
/// "available" or the errno name that says why not.
std::string pmu_status() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd >= 0) {
    close(static_cast<int>(fd));
    return "available";
  }
  return std::string("unavailable (") + strerrorname_np(errno) + ")";
}


}  // namespace

void record_environment(Report& rep, int pool_threads) {
  using namespace d500;
  rep.knob("host.nproc", std::to_string(allowed_cpus().size()));
  rep.knob("host.cpu_model", cpu_model());
  rep.knob("host.pmu", pmu_status());
  rep.knob("build.isa", simd::isa_name());

  const int threads = ThreadPool::instance().num_threads();
  rep.knob("threads", std::to_string(threads));
  rep.knob("kernel", std::string(simd::kernel_dispatch_name(simd::kernel_dispatch())) +
                         (simd::dispatch_simd() ? " (simd)" : " (scalar)"));
  rep.knob("gemm", gemm_backend_name(default_gemm_backend()));
  rep.knob("gemm_epilogue", epilogue_mode_name(gemm_epilogue_mode()));
  const bool arena = Arena::instance().mode() == ArenaMode::kArena;
  rep.knob("arena", arena ? "arena" : "malloc");
  rep.knob("passes", passes_setting());
  rep.knob("overlap", overlap_comm_setting() ? "on" : "off");
  rep.knob("bucket_kb", std::to_string(bucket_cap_bytes() / 1024));
  rep.knob("metrics", metrics_setting() ? "on" : "off");
  rep.knob("perf", perf_setting());
  rep.knob("trace_path", trace_path().empty() ? "(off)" : trace_path());
  rep.knob("serve.policy", serve_policy_setting());
  rep.knob("serve.sessions", std::to_string(serve_sessions_setting()));
  rep.knob("serve.max_batch", std::to_string(serve_max_batch()));
  rep.knob("serve.deadline_us", std::to_string(serve_deadline_us()));
  rep.knob("serve.buckets", serve_buckets_setting());
  rep.knob("faults", faults_enabled_setting() ? "on" : "off");
  rep.knob("staleness", std::to_string(staleness_setting()));

  rep.check("pinned knobs resolved",
            threads == pool_threads && !overlap_comm_setting() &&
                !faults_enabled_setting() && trace_path().empty() && arena &&
                passes_setting() == "all" &&
                simd::kernel_dispatch() == simd::KernelDispatch::kAuto &&
                default_gemm_backend() == GemmBackend::kPacked &&
                gemm_epilogue_mode() == EpilogueMode::kFused &&
                bucket_cap_bytes() == std::size_t{1024} * 1024 &&
                serve_policy_setting() == "deadline",
            "a D500_* knob did not resolve to its pinned value");
}

void pin_thread(int first, int count) {
  const cpu_set_t set = slots(first, count);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void pin_tid(int tid, int slot) {
  const cpu_set_t set = slots(slot, 1);
  sched_setaffinity(tid, sizeof set, &set);
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ids.push_back(std::stoi(e.path().filename().string()));
  std::sort(ids.begin(), ids.end());
  return ids;
}

IdleKeepers::IdleKeepers() {
  for (std::size_t k = 0; k < allowed_cpus().size(); ++k)
    threads_.emplace_back([this, k] {
      pin_thread(static_cast<int>(k));
      sched_param sp;
      std::memset(&sp, 0, sizeof sp);
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
}

IdleKeepers::~IdleKeepers() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

double peak_rss_mb() {
  rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
