// Observability layer (src/obs): sharded metric merge correctness across
// threads, ring-buffer overflow discipline, Chrome-trace JSON validity
// (parsed back with the exec JSON parser), and the report sinks.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "exec/json.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/scoped_timer.h"

namespace mapg::obs {
namespace {

// The registry and tracer are process-global; every test starts from zeroed
// values and a stopped tracer so ordering doesn't matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventTracer::instance().stop();
    EventTracer::instance().clear();
    MetricsRegistry::instance().reset_values();
  }
};

TEST_F(ObsTest, CounterMergesAcrossThreads) {
  Counter& c = MetricsRegistry::instance().counter("test.counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, CounterAddAndReset) {
  Counter& c = MetricsRegistry::instance().counter("test.counter.add");
  c.inc(41);
  c.inc();
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::instance().gauge("test.gauge");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST_F(ObsTest, HistogramMergesAcrossThreads) {
  HistogramMetric& h = MetricsRegistry::instance().histogram("test.hist");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
    });
  for (auto& t : threads) t.join();

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * 1000u);
  EXPECT_EQ(s.sum, kThreads * 500'500u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // Quantiles land inside the observed range and are ordered.
  EXPECT_GE(s.quantile(0.5), s.min);
  EXPECT_LE(s.quantile(0.5), s.quantile(0.95));
  EXPECT_LE(s.quantile(0.95), s.max);
}

TEST_F(ObsTest, HistogramBucketLayout) {
  EXPECT_EQ(hist_bucket_of(0), 0u);
  EXPECT_EQ(hist_bucket_of(1), 1u);
  EXPECT_EQ(hist_bucket_of(2), 2u);
  EXPECT_EQ(hist_bucket_of(3), 2u);
  EXPECT_EQ(hist_bucket_of(4), 3u);
  EXPECT_EQ(hist_bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(hist_bucket_lo(2), 2u);
  EXPECT_EQ(hist_bucket_lo(10), 512u);
}

TEST_F(ObsTest, SnapshotIsSortedByName) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.counter("test.z").inc();
  reg.counter("test.a").inc();
  reg.counter("test.m").inc();
  const MetricsSnapshot s = reg.snapshot();
  for (std::size_t i = 1; i < s.counters.size(); ++i)
    EXPECT_LT(s.counters[i - 1].first, s.counters[i].first);
}

TEST_F(ObsTest, MetricsJsonParsesAndRoundTripsValues) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.counter("test.json.counter").inc(12345);
  reg.gauge("test.json.gauge").set(-7);
  reg.histogram("test.json.hist").record(100);

  std::string err;
  const std::optional<Json> doc = Json::parse(metrics_json_string(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->get("counters").get("test.json.counter").as_u64(), 12345u);
  EXPECT_EQ(doc->get("gauges").get("test.json.gauge").as_i64(), -7);
  const Json& h = doc->get("histograms").get("test.json.hist");
  EXPECT_EQ(h.get("count").as_u64(), 1u);
  EXPECT_EQ(h.get("sum").as_u64(), 100u);
  EXPECT_EQ(h.get("min").as_u64(), 100u);
  EXPECT_EQ(h.get("max").as_u64(), 100u);

  // Canonical re-dump of the parsed document must itself parse — the
  // snapshot JSON round-trips through the exec parser.
  const std::optional<Json> again = Json::parse(doc->dump(), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->dump(), doc->dump());
}

TEST_F(ObsTest, PrintMetricsTableIsAlignedAndSorted) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.counter("test.table.b").inc(2);
  reg.counter("test.table.a").inc(1);
  reg.gauge("test.table.g").set(5);
  std::ostringstream os;
  print_metrics_table(os, reg.snapshot());
  const std::string out = os.str();
  const std::size_t pa = out.find("test.table.a");
  const std::size_t pb = out.find("test.table.b");
  const std::size_t pg = out.find("test.table.g");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  ASSERT_NE(pg, std::string::npos);
  EXPECT_LT(pa, pb);
  EXPECT_LT(pb, pg);
}

TEST_F(ObsTest, TracerRecordsCompleteEvents) {
  EventTracer& tracer = EventTracer::instance();
  tracer.start(64);
  tracer.complete("span", "test", 1000, 2000,
                  TraceArgs().add("workload", "mcf-like").add("ok", true)
                      .json());
  tracer.counter("test.counter", TraceArgs().add("value", 3).json());
  tracer.stop();

  std::ostringstream os;
  tracer.write_json(os);
  std::string err;
  const std::optional<Json> doc = Json::parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const Json& events = doc->get("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);

  const Json& span = events.at(0);
  EXPECT_EQ(span.get("name").as_string(), "span");
  EXPECT_EQ(span.get("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(span.get("ts").as_double(), 1.0);    // 1000 ns = 1 us
  EXPECT_DOUBLE_EQ(span.get("dur").as_double(), 2.0);
  EXPECT_EQ(span.get("args").get("workload").as_string(), "mcf-like");
  EXPECT_TRUE(span.get("args").get("ok").as_bool());

  const Json& counter = events.at(1);
  EXPECT_EQ(counter.get("ph").as_string(), "C");
  EXPECT_EQ(counter.get("args").get("value").as_u64(), 3u);
}

TEST_F(ObsTest, TracerOverflowDropsOldestAndCounts) {
  EventTracer& tracer = EventTracer::instance();
  tracer.start(4);
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    tracer.instant(name, "test");
  }
  tracer.stop();

  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(MetricsRegistry::instance().counter("trace.dropped").value(), 6u);

  std::ostringstream os;
  tracer.write_json(os);
  const std::string out = os.str();
  // Oldest gone, newest retained.
  EXPECT_EQ(out.find("\"e0\""), std::string::npos);
  EXPECT_EQ(out.find("\"e5\""), std::string::npos);
  EXPECT_NE(out.find("\"e6\""), std::string::npos);
  EXPECT_NE(out.find("\"e9\""), std::string::npos);
}

TEST_F(ObsTest, TracerDisabledRecordsNothing) {
  EventTracer& tracer = EventTracer::instance();
  ASSERT_FALSE(tracer.enabled());
  tracer.instant("ignored", "test");
  tracer.complete("ignored", "test", 0, 1);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST_F(ObsTest, JsonQuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("x\ny"), "\"x\\ny\"");
  std::string err;
  EXPECT_TRUE(Json::parse(json_quote("weird \"\\\n\t\x01 payload"), &err)
                  .has_value())
      << err;
}

TEST_F(ObsTest, ScopedTimerRecordsHistogramAndSpan) {
  EventTracer& tracer = EventTracer::instance();
  tracer.start(16);
  HistogramMetric& h = MetricsRegistry::instance().histogram("test.span.ns");
  {
    ScopedTimer timer(&h, "test.span", "test");
  }
  tracer.stop();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(tracer.size(), 1u);
  std::ostringstream os;
  tracer.write_json(os);
  EXPECT_NE(os.str().find("\"test.span\""), std::string::npos);
}

TEST_F(ObsTest, EmptyTraceIsValidJson) {
  std::ostringstream os;
  EventTracer::instance().write_json(os);
  std::string err;
  const std::optional<Json> doc = Json::parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->get("traceEvents").size(), 0u);
}

#if MAPG_OBS_ENABLED
TEST_F(ObsTest, MacrosReachTheRegistry) {
  MAPG_OBS_COUNTER_INC("test.macro.counter");
  MAPG_OBS_COUNTER_ADD("test.macro.counter", 9);
  MAPG_OBS_GAUGE_SET("test.macro.gauge", 17);
  MAPG_OBS_HIST_RECORD("test.macro.hist", 256);
  {
    MAPG_OBS_SCOPED_TIMER("test.macro.timer.ns", "test");
  }
  MetricsRegistry& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("test.macro.counter").value(), 10u);
  EXPECT_EQ(reg.gauge("test.macro.gauge").value(), 17);
  EXPECT_EQ(reg.histogram("test.macro.hist").snapshot().count, 1u);
  EXPECT_EQ(reg.histogram("test.macro.timer.ns").snapshot().count, 1u);
}
#endif

}  // namespace
}  // namespace mapg::obs
