// Process-wide metrics registry: counters, gauges, and mergeable
// log-bucketed latency histograms, sharded per thread.
//
// This is the numeric companion to the trace subsystem (core/trace): where
// a trace records *when* things happened (spans on a timeline), the
// registry records *distributions* — per-op latency percentiles, queue
// waits, collective times — at a cost low enough to leave on in
// production-shaped runs. Hot-path writes touch only the calling thread's
// shard (relaxed atomics on a cache line no other writer shares), so
// concurrent writers never contend; a snapshot merges the shards, which is
// exact for bucket counts and sums because every write is a single atomic
// add.
//
// Histograms are log-bucketed: kSubBuckets linear sub-buckets per power of
// two, giving a fixed relative resolution (<= ~6% at 8 sub-buckets) over
// the full range from nanoseconds to minutes, in ~4.5 KB per shard.
// Percentile extraction (p50/p95/p99) walks the merged buckets and returns
// the midpoint of the bucket containing the rank — within one bucket of
// the exact order statistic by construction, which tests assert against
// core/stats' quantile().
//
// Toggle: D500_METRICS (default on; "0"/"off" disables). When disabled,
// every instrumentation site costs one relaxed atomic load and a branch —
// the same always-on contract the tracer makes. Tests and benches flip the
// gate with MetricsRegistry::enable()/disable().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace d500 {

namespace metrics_detail {
/// 0 = uninitialized (resolve from D500_METRICS), 1 = off, 2 = on.
extern std::atomic<int> g_state;
bool init_from_env();
/// Steady-clock nanoseconds since the process metrics epoch.
std::int64_t now_ns();
}  // namespace metrics_detail

/// Hot-path gate: one relaxed load and one branch when metrics are off.
inline bool metrics_enabled() {
  const int s = metrics_detail::g_state.load(std::memory_order_relaxed);
  if (s == 0) return metrics_detail::init_from_env();  // once per process
  return s == 2;
}

/// Shard-slot cap. Threads beyond the cap share slots (writes stay correct
/// — every update is an atomic RMW — they just contend a little).
inline constexpr int kMetricShards = 64;

namespace metrics_detail {
/// Small dense per-thread slot id, assigned on first use, wrapped to the
/// shard cap.
int thread_slot();
}  // namespace metrics_detail

/// Monotonic counter (events, bytes). Sharded per thread; value() sums the
/// shards, so it is exact once writers quiesce and a live lower bound while
/// they run.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t n = 1) {
    if (!metrics_enabled()) return;
    shard().fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const;
  const std::string& name() const { return name_; }

  /// Test hook (see MetricsRegistry::reset for the quiescence contract).
  void reset();

 private:
  std::atomic<std::uint64_t>& shard();

  std::string name_;
  std::array<std::atomic<std::uint64_t>, kMetricShards> shards_{};
};

/// Last-written value (queue depth, cache occupancy). A single atomic cell:
/// gauges are "current level" metrics where last-writer-wins is the right
/// merge.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Merged view of one histogram at one instant. Counts are derived from the
/// bucket array so the snapshot is self-consistent even while writers run.
struct HistogramSnapshot {
  std::string name;
  std::string unit;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;
  std::vector<std::uint64_t> buckets;

  /// Order-statistic estimate: midpoint of the bucket holding rank
  /// ceil(q * count). Within one bucket of the exact quantile.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Log-bucketed histogram of positive values (latencies in ns by
/// convention; the unit string is carried for reporting only).
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;   // per power of two
  static constexpr int kMinExp = -30;     // values below 2^-30 clamp to slot 0
  static constexpr int kMaxExp = 40;      // values >= 2^40 clamp to the top
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSubBuckets + 2;

  Histogram(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v);
  /// Allocates the calling thread's shard now, so that its first record()
  /// (perhaps in a step that must not allocate) does not.
  void prepare_thread() { (void)shard(); }

  HistogramSnapshot snapshot() const;
  /// Arbitrary-quantile convenience over a fresh shard merge: lets callers
  /// report p99.9 (or any q) without the registry growing new hardcoded
  /// percentile fields. Taking one snapshot() and querying it repeatedly is
  /// cheaper when several quantiles of the same instant are needed.
  double quantile(double q) const { return snapshot().quantile(q); }
  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }
  void reset();

  /// Bucket geometry, exposed for the within-one-bucket accuracy tests.
  static int bucket_of(double v);
  static double bucket_lo(int idx);
  static double bucket_hi(int idx);
  static double bucket_mid(int idx) {
    return 0.5 * (bucket_lo(idx) + bucket_hi(idx));
  }

 private:
  struct Shard {
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  // valid when count > 0
    std::atomic<double> max{0.0};
    std::atomic<std::uint64_t> count{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };

  Shard& shard();

  std::string name_;
  std::string unit_;
  std::array<std::atomic<Shard*>, kMetricShards> shards_{};
};

/// RAII latency sample into a histogram (nanoseconds). The histogram
/// pointer may be null (site resolved with metrics off); the gate is also
/// re-checked at construction so a disabled run pays only the branch.
class LatencyScope {
 public:
  explicit LatencyScope(Histogram* h)
      : h_(h != nullptr && metrics_enabled() ? h : nullptr),
        t0_(h_ != nullptr ? metrics_detail::now_ns() : 0) {}
  explicit LatencyScope(Histogram& h) : LatencyScope(&h) {}
  ~LatencyScope() {
    if (h_ != nullptr)
      h_->record(static_cast<double>(metrics_detail::now_ns() - t0_));
  }
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

 private:
  Histogram* h_;
  std::int64_t t0_;
};

/// Process-wide registry. Metric objects are created on first lookup and
/// immortal (the registry is a leaked singleton, like the trace rings), so
/// cached references/pointers never dangle — including in atexit paths.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::string_view unit = "ns");

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;
  };
  /// Name-sorted snapshot of every registered metric. Safe to call while
  /// writers run (each metric merges its shards atomically).
  Snapshot snapshot() const;

  /// Per-category roll-up rendered with core/table: histograms with
  /// count/p50/p95/p99/max, then counters and gauges. Empty string when no
  /// metric has data.
  std::string summary_text() const;

  /// JSON object fragment ({"histograms":{...},"counters":{...},...}) for
  /// embedding in trace exports and bench reports.
  std::string snapshot_json() const;

  /// Turns emission on/off process-wide (overrides D500_METRICS).
  static void enable();
  static void disable();

  /// Zeroes every metric. Test hook: like Trace::reset, must not be called
  /// while other threads are emitting.
  void reset();

 private:
  MetricsRegistry() = default;

  struct Impl;
  Impl& impl() const;
};

}  // namespace d500
