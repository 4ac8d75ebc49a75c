// perfbench: the repository's benchmark binary. One workload per process:
//
//   perfbench --workload train-resnet|dist-mlp|serve-lenet --seed N
//             --seconds S --trace 0|1
//
// Prints knob, check and metric lines, then one JSON result line. Exits 1
// when an output check failed, 2 on bad arguments, 3 from the watchdog.
// perfbench/run.py builds this binary and is the documented entry point.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <unistd.h>

#include "core/threadpool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Clears every inherited D500_* variable and sets the benchmark's own
/// configuration, before anything in the library reads the environment.
void pin_environment(int threads, Report& rep) {
  std::vector<std::string> stray;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "D500_", 5) == 0) stray.emplace_back(*e);
  for (const auto& kv : stray) {
    rep.knob("cleared", kv);
    unsetenv(kv.substr(0, kv.find('=')).c_str());
  }
  const std::pair<const char*, std::string> pinned[] = {
      {"D500_THREADS", std::to_string(threads)},
      {"D500_KERNEL", "auto"},
      {"D500_GEMM", "packed"},
      {"D500_GEMM_EPILOGUE", "fused"},
      {"D500_ARENA", "arena"},
      {"D500_PASSES", "all"},
      {"D500_OVERLAP", "0"},
      {"D500_BUCKET_KB", "1024"},
      {"D500_METRICS", "1"},
      {"D500_PERF", "off"},
      {"D500_SERVE_POLICY", "deadline"},
      {"D500_SERVE_SESSIONS", "2"},
      {"D500_SERVE_MAX_BATCH", "32"},
      {"D500_SERVE_DEADLINE_US", "2000"},
      {"D500_SERVE_BUCKETS", "1,2,4,8,16,32"},
  };
  for (const auto& [k, v] : pinned) setenv(k, v.c_str(), 1);
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload train-resnet|dist-mlp|"
               "serve-lenet --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt.trace = v == "1";
    else return usage(("unknown argument " + k).c_str());
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!(opt.seconds > 0 && opt.seconds <= 120))
    return usage("--seconds must be in (0, 120]");

  void (*run)(const Options&, Report&) = nullptr;
  int threads = 0;
  if (opt.workload == "train-resnet") {
    run = run_train_resnet;
    threads = kResnetThreads;
  } else if (opt.workload == "dist-mlp") {
    run = run_dist_mlp;
    threads = kDistThreads;
  } else if (opt.workload == "serve-lenet") {
    run = run_serve_lenet;
    threads = kServeThreads;
  } else {
    return usage("unknown workload");
  }

  Report rep;
  pin_environment(threads, rep);
  // The pool's workers inherit CPUs 1.., the calling thread keeps CPU 0.
  pin_thread(1, std::max(threads - 1, 1));
  d500::ThreadPool::instance().reset(threads);
  pin_thread(0);
  record_environment(rep, threads);

  // Every phase must finish within 90 s and the whole run within 170 s.
  Watchdog dog(opt.workload, 90.0, 170.0);
  IdleKeepers keepers;
  set_watchdog(&dog);
  try {
    run(opt, rep);
  } catch (const std::exception& e) {
    rep.check("workload ran to completion", false, e.what());
  }
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.print(opt);
  return rep.correct() ? 0 : 1;
}
