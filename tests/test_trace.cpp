// Trace runtime tests: disabled fast path, per-thread span nesting and
// ordering, ring wraparound drop accounting, Chrome-trace JSON validity
// (checked with a small recursive-descent parser), concurrent emission
// from pool workers, collection concurrent with emission, and the
// TimelineMetric event hook. The suite carries the `threads` label so it
// runs under D500_SANITIZE=thread.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/executor.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"

namespace d500 {
namespace {

/// Records of one category across all threads, in per-thread order.
std::vector<TraceRecord> records_of(const char* category) {
  std::vector<TraceRecord> out;
  for (const auto& tt : Trace::collect())
    for (const TraceRecord& r : tt.records)
      if (r.category != nullptr && std::strcmp(r.category, category) == 0)
        out.push_back(r);
  return out;
}

std::uint64_t total_emitted() {
  std::uint64_t n = 0;
  for (const auto& tt : Trace::collect()) n += tt.emitted;
  return n;
}

// ---- Minimal JSON validator (objects/arrays/strings/numbers/literals) ----

struct JsonParser {
  std::string_view s;
  std::size_t pos = 0;
  bool ok = true;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                              s[pos] == '\r' || s[pos] == '\t'))
      ++pos;
  }
  bool eat(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    ok = false;
    return false;
  }
  void parse_string() {
    if (!eat('"')) return;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        ++pos;
        if (pos >= s.size()) break;
        if (s[pos] == 'u') pos += 4;
      }
      ++pos;
    }
    if (pos >= s.size() || s[pos] != '"') ok = false;
    else ++pos;
  }
  void parse_number() {
    const std::size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) ||
            s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
            s[pos] == '-' || s[pos] == '+'))
      ++pos;
    if (pos == start) ok = false;
  }
  void parse_value(int depth = 0) {
    if (!ok || depth > 64) {
      ok = false;
      return;
    }
    skip_ws();
    if (pos >= s.size()) {
      ok = false;
      return;
    }
    const char c = s[pos];
    if (c == '{') {
      ++pos;
      skip_ws();
      if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return;
      }
      do {
        parse_string();
        if (!eat(':')) return;
        parse_value(depth + 1);
        skip_ws();
      } while (ok && pos < s.size() && s[pos] == ',' && ++pos);
      eat('}');
    } else if (c == '[') {
      ++pos;
      skip_ws();
      if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return;
      }
      do {
        parse_value(depth + 1);
        skip_ws();
      } while (ok && pos < s.size() && s[pos] == ',' && ++pos);
      eat(']');
    } else if (c == '"') {
      parse_string();
    } else if (s.compare(pos, 4, "true") == 0) {
      pos += 4;
    } else if (s.compare(pos, 5, "false") == 0) {
      pos += 5;
    } else if (s.compare(pos, 4, "null") == 0) {
      pos += 4;
    } else {
      parse_number();
    }
  }
  bool parse_document() {
    parse_value();
    skip_ws();
    return ok && pos == s.size();
  }
};

TEST(Trace, DisabledPathEmitsNothing) {
  Trace::disable();
  Trace::reset();
  const std::uint64_t before = total_emitted();
  {
    D500_TRACE_SCOPE("test", "quiet");
    trace_counter("test", "c", 1.0);
    trace_instant("test", "i");
  }
  EXPECT_EQ(total_emitted(), before);
  EXPECT_TRUE(records_of("test").empty());
}

TEST(Trace, SpanNestingAndOrderingPerThread) {
  Trace::enable();
  Trace::reset();
  {
    D500_TRACE_SCOPE("test", "outer");
    { D500_TRACE_SCOPE("test", "inner"); }
  }
  Trace::disable();

  const auto recs = records_of("test");
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].kind, TraceKind::kSpanBegin);
  EXPECT_STREQ(recs[0].name, "outer");
  EXPECT_EQ(recs[1].kind, TraceKind::kSpanBegin);
  EXPECT_STREQ(recs[1].name, "inner");
  EXPECT_EQ(recs[2].kind, TraceKind::kSpanEnd);
  EXPECT_STREQ(recs[2].name, "inner");
  EXPECT_EQ(recs[3].kind, TraceKind::kSpanEnd);
  EXPECT_STREQ(recs[3].name, "outer");
  for (std::size_t k = 1; k < recs.size(); ++k)
    EXPECT_GE(recs[k].ts_ns, recs[k - 1].ts_ns);
}

TEST(Trace, SpanOpenedWhileEnabledClosesAfterDisable) {
  Trace::enable();
  Trace::reset();
  {
    D500_TRACE_SCOPE("test", "straddle");
    Trace::disable();
  }
  const auto recs = records_of("test");
  ASSERT_EQ(recs.size(), 2u);  // begin and end both present
  EXPECT_EQ(recs[0].kind, TraceKind::kSpanBegin);
  EXPECT_EQ(recs[1].kind, TraceKind::kSpanEnd);
}

TEST(Trace, WraparoundDropsOldestAndCountsThem) {
  Trace::enable(64);
  Trace::reset();
  for (int i = 0; i < 200; ++i)
    trace_instant("test", ("i" + std::to_string(i)).c_str());
  Trace::disable();

  int hits = 0;
  for (const auto& tt : Trace::collect()) {
    if (tt.emitted == 0) continue;
    ++hits;
    EXPECT_EQ(tt.emitted, 200u);
    EXPECT_EQ(tt.dropped, 136u);  // 200 - 64 retained
    ASSERT_EQ(tt.records.size(), 64u);
    // Oldest-first retained window: i136 .. i199.
    for (std::size_t k = 0; k < tt.records.size(); ++k)
      EXPECT_STREQ(tt.records[k].name,
                   ("i" + std::to_string(136 + k)).c_str());
  }
  EXPECT_EQ(hits, 1);  // only this thread emitted
  Trace::enable(trace_buffer_records());  // restore default capacity
  Trace::disable();
}

TEST(Trace, ConcurrentEmissionFromPoolWorkers) {
  ThreadPool::instance().reset(4);
  Trace::enable();
  Trace::reset();
  parallel_for(0, 1000, 1, [](std::int64_t, std::int64_t) {
    D500_TRACE_SCOPE("test", "chunk");
  });
  Trace::disable();

  int begins = 0, ends = 0;
  for (const TraceRecord& r : records_of("test")) {
    if (r.kind == TraceKind::kSpanBegin) ++begins;
    if (r.kind == TraceKind::kSpanEnd) ++ends;
  }
  EXPECT_EQ(begins, 1000);
  EXPECT_EQ(ends, 1000);
}

TEST(Trace, CollectWhileEmitting) {
  // The collector must be safe against concurrent writers: overwritten
  // slots are discarded as dropped, never returned torn.
  Trace::enable(128);
  Trace::reset();
  std::thread emitter([] {
    for (int i = 0; i < 20000; ++i) trace_counter("test", "spin", i);
  });
  for (int r = 0; r < 50; ++r) {
    for (const auto& tt : Trace::collect()) {
      EXPECT_LE(tt.records.size(), 128u);
      EXPECT_LE(tt.dropped, tt.emitted);
      for (const TraceRecord& rec : tt.records) {
        if (rec.category != nullptr &&
            std::strcmp(rec.category, "test") == 0) {
          EXPECT_STREQ(rec.name, "spin");
        }
      }
    }
  }
  emitter.join();
  Trace::disable();
  Trace::enable(trace_buffer_records());
  Trace::disable();
}

TEST(Trace, ChromeJsonParsesAndRoundTripsCounts) {
  Trace::enable();
  Trace::reset();
  {
    D500_TRACE_SCOPE("test", "alpha");
    D500_TRACE_SCOPE("test", "quo\"te\\slash");
    trace_counter("test", "depth", 3.5);
    trace_instant("test", "mark");
  }
  Trace::disable();
  const std::string json = Trace::to_chrome_json();

  JsonParser p{json};
  EXPECT_TRUE(p.parse_document()) << "invalid JSON near byte " << p.pos;

  // One event per line: count phases of our category textually.
  int b = 0, e = 0, c = 0, i = 0;
  std::size_t start = 0;
  while (start < json.size()) {
    std::size_t nl = json.find('\n', start);
    if (nl == std::string::npos) nl = json.size();
    const std::string_view line(json.data() + start, nl - start);
    if (line.find("\"cat\":\"test\"") != std::string_view::npos) {
      if (line.find("\"ph\":\"B\"") != std::string_view::npos) ++b;
      if (line.find("\"ph\":\"E\"") != std::string_view::npos) ++e;
      if (line.find("\"ph\":\"C\"") != std::string_view::npos) ++c;
      if (line.find("\"ph\":\"i\"") != std::string_view::npos) ++i;
    }
    start = nl + 1;
  }
  EXPECT_EQ(b, 2);
  EXPECT_EQ(e, 2);
  EXPECT_EQ(c, 1);
  EXPECT_EQ(i, 1);
  // Special characters survive escaped.
  EXPECT_NE(json.find("quo\\\"te\\\\slash"), std::string::npos);

  const std::string summary = Trace::summary();
  EXPECT_NE(summary.find("test"), std::string::npos);
}

TEST(Trace, WriteProducesLoadableFile) {
  Trace::enable();
  Trace::reset();
  trace_instant("test", "filed");
  Trace::disable();
  const std::string path = scratch_dir() + "/test_trace_out.json";
  ASSERT_TRUE(Trace::write(path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  JsonParser p{content};
  EXPECT_TRUE(p.parse_document());
  EXPECT_NE(content.find("\"filed\""), std::string::npos);
}

// ---- TimelineMetric ------------------------------------------------------

TensorMap model_feeds(const Model& m, std::uint64_t seed) {
  Network net = build_network(m);
  Rng rng(seed);
  TensorMap feeds;
  for (const auto& iname : net.inputs()) {
    Tensor t(net.input_shape(iname));
    if (iname == "labels") {
      for (std::int64_t i = 0; i < t.elements(); ++i)
        t.at(i) = static_cast<float>(rng.below(4));
    } else {
      t.fill_uniform(rng, -1, 1);
    }
    feeds[iname] = std::move(t);
  }
  return feeds;
}

TEST(TimelineMetric, RecordsEveryOperatorOnce) {
  const Model m = models::lenet(2, 1, 12, 12, 4, 21);
  ReferenceExecutor exec(build_network(m));
  auto timeline = std::make_shared<TimelineMetric>();
  exec.add_event(timeline);
  exec.inference(model_feeds(m, 5));

  const auto ops = timeline->op_stats();
  const std::size_t n_nodes = build_network(m).topological_order().size();
  EXPECT_EQ(ops.size(), n_nodes);
  for (const auto& [op, st] : ops) {
    EXPECT_EQ(st.calls, 1) << op;
    EXPECT_GE(st.seconds, 0.0) << op;
  }
  EXPECT_GT(timeline->summary(), 0.0);
}

TEST(TimelineMetric, HandlesInterleavedParallelDispatch) {
  ThreadPool::instance().reset(4);
  const Model m = models::resnet(2, 3, 8, 8, 4, 4, 1, 13);
  ExecOptions o;
  o.parallel = true;
  PlanExecutor exec(build_network(m), "plan-parallel", o);
  auto timeline = std::make_shared<TimelineMetric>();
  exec.add_event(timeline);
  for (int r = 0; r < 3; ++r) exec.inference(model_feeds(m, 7));

  const auto ops = timeline->op_stats();
  // Passes may fuse nodes: count the executor's own network.
  const std::size_t n_nodes = exec.network().topological_order().size();
  EXPECT_EQ(ops.size(), n_nodes);
  for (const auto& [op, st] : ops) EXPECT_EQ(st.calls, 3) << op;
}

TEST(TimelineMetric, ReportListsHotOperatorsFirst) {
  const Model m = models::lenet(2, 1, 12, 12, 4, 21);
  ReferenceExecutor exec(build_network(m));
  auto timeline = std::make_shared<TimelineMetric>();
  exec.add_event(timeline);
  exec.inference(model_feeds(m, 5));

  const std::string rep = timeline->report();
  EXPECT_NE(rep.find("op_timeline"), std::string::npos);
  EXPECT_NE(rep.find("operator"), std::string::npos);
  // The first data row is the op with the largest total time.
  std::string hottest;
  double hot_s = -1.0;
  for (const auto& [op, st] : timeline->op_stats())
    if (st.seconds > hot_s) {
      hot_s = st.seconds;
      hottest = op;
    }
  const std::size_t header_end = rep.find('\n', rep.find("operator"));
  EXPECT_NE(rep.find(hottest, header_end), std::string::npos);
}

}  // namespace
}  // namespace d500
