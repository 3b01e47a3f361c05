#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace msrs::obs {
namespace {

TEST(Counter, StartsAtZeroAndSums) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Counter, ConcurrentRecordersMergeExactly) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddAndNegativeValues) {
  Gauge gauge;
  gauge.set(7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
}

TEST(Histogram, EmptySnapshot) {
  Histogram histogram{latency_buckets_us()};
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.counts.size(), snap.bounds.size() + 1);
}

TEST(Histogram, SingleSample) {
  Histogram histogram{latency_buckets_us()};
  histogram.record(42.0);
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_NEAR(snap.sum, 42.0, 1e-3);
  // The only sample lies in the (20, 50] bucket: every quantile
  // interpolates inside it.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GT(snap.quantile(q), 20.0);
    EXPECT_LE(snap.quantile(q), 50.0);
  }
}

TEST(Histogram, BucketBoundaryValuesLandInTheLowerBucket) {
  // Bounds are inclusive upper edges (Prometheus `le` semantics): a sample
  // equal to a bound belongs to that bound's bucket, one epsilon above to
  // the next.
  Histogram histogram{latency_buckets_us()};
  histogram.record(10.0);
  histogram.record(10.0001);
  const Histogram::Snapshot snap = histogram.snapshot();
  // Bucket index 3 has upper bound 10; bucket 4 has upper bound 20.
  EXPECT_EQ(snap.bounds[3], 10.0);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.counts[4], 1u);
}

TEST(Histogram, NegativeSamplesClampToZero) {
  Histogram histogram{latency_buckets_us()};
  histogram.record(-5.0);
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.counts.front(), 1u);
  EXPECT_EQ(snap.sum, 0.0);
}

TEST(Histogram, OverflowBucketReportsLastFiniteBound) {
  Histogram histogram{latency_buckets_us()};
  histogram.record(9e9);  // far beyond the 5s ladder
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.counts.back(), 1u);
  EXPECT_EQ(snap.quantile(0.5), snap.bounds.back());
}

TEST(Histogram, QuantilesAreMonotoneAndBracketed) {
  Histogram histogram{latency_buckets_us()};
  for (int i = 1; i <= 1000; ++i) histogram.record(static_cast<double>(i));
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  double previous = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double value = snap.quantile(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
  // p50 of uniform 1..1000 must land in the (500, 1000] bucket.
  EXPECT_GT(snap.quantile(0.5), 200.0);
  EXPECT_LE(snap.quantile(0.5), 1000.0);
}

TEST(Histogram, ConcurrentRecordersMergeExactly) {
  Histogram histogram{latency_buckets_us()};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i)
        histogram.record(static_cast<double>(i % 100));
    });
  for (std::thread& thread : threads) thread.join();
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Per-thread sums are identical, so the merged sum is exact.
  double expected = 0.0;
  for (int i = 0; i < kPerThread; ++i) expected += i % 100;
  EXPECT_NEAR(snap.sum, expected * kThreads, 1.0);
}

TEST(Registry, MetricsAreCreatedOnceAndKeepTheirAddress) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  registry.counter("y").inc();
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.snapshot().counter_or("x"), 3u);
}

TEST(Registry, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("zeta").inc();
  registry.counter("alpha").inc();
  registry.counter("mid").inc();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
}

TEST(Registry, SnapshotRenderingIsByteStable) {
  // Two registries with the same metric state but different registration
  // orders must render identical bytes in both exposition formats.
  MetricsRegistry first, second;
  first.counter("serve.received").add(10);
  first.gauge("serve.depth").set(2);
  first.histogram("serve.latency_us").record(42.0);
  second.histogram("serve.latency_us").record(42.0);
  second.gauge("serve.depth").set(2);
  second.counter("serve.received").add(10);
  EXPECT_EQ(first.snapshot().json().str(), second.snapshot().json().str());
  EXPECT_EQ(first.snapshot().prometheus(), second.snapshot().prometheus());
}

TEST(Registry, PrometheusRenderHasTypedSeries) {
  MetricsRegistry registry;
  registry.counter("serve.received").add(5);
  registry.gauge("serve.conns.active").set(2);
  registry.histogram("serve.latency.total_us").record(42.0);
  const std::string page = registry.snapshot().prometheus();
  EXPECT_NE(page.find("# TYPE msrs_serve_received counter"),
            std::string::npos);
  EXPECT_NE(page.find("msrs_serve_received 5"), std::string::npos);
  EXPECT_NE(page.find("# TYPE msrs_serve_conns_active gauge"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE msrs_serve_latency_total_us histogram"),
            std::string::npos);
  EXPECT_NE(page.find("msrs_serve_latency_total_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("msrs_serve_latency_total_us_count 1"),
            std::string::npos);
}

TEST(Registry, JsonExpositionCarriesQuantiles) {
  MetricsRegistry registry;
  for (int i = 0; i < 100; ++i)
    registry.histogram("h").record(static_cast<double>(i));
  const Json document = registry.snapshot().json();
  const Json* histograms = document.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* h = histograms->find("h");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->find("count"), nullptr);
  EXPECT_EQ(h->find("count")->as_number(), 100.0);
  ASSERT_NE(h->find("p50"), nullptr);
  ASSERT_NE(h->find("p99"), nullptr);
  EXPECT_LE(h->find("p50")->as_number(), h->find("p99")->as_number());
}

TEST(Prometheus, NameMangling) {
  // Dots (and anything non-alphanumeric) flatten to '_' under the msrs_
  // namespace prefix.
  EXPECT_EQ(prometheus_name("serve.received"), "msrs_serve_received");
  EXPECT_EQ(prometheus_name("a-b c/d"), "msrs_a_b_c_d");
  EXPECT_EQ(prometheus_name("ok_name_42"), "msrs_ok_name_42");
}

TEST(Prometheus, LabelValueEscaping) {
  // The exposition format requires \\, \" and \n escaped inside label
  // values — everything else passes through raw.
  EXPECT_EQ(prometheus_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_label_value("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(prometheus_label_value("g++ (GCC) 13.2\n\"x\\y\""),
            "g++ (GCC) 13.2\\n\\\"x\\\\y\\\"");
}

TEST(Prometheus, InfoSeriesRenderFirstWithEscapedLabels) {
  MetricsRegistry registry;
  registry.counter("serve.received").add(5);
  MetricsSnapshot snapshot = registry.snapshot();
  snapshot.info.emplace_back(
      "build_info",
      std::vector<std::pair<std::string, std::string>>{
          {"wire", "1"}, {"compiler", "gcc \"13\"\nrelease"}});
  const std::string page = snapshot.prometheus();
  const std::size_t info_at =
      page.find("msrs_build_info{wire=\"1\","
                "compiler=\"gcc \\\"13\\\"\\nrelease\"} 1");
  const std::size_t counter_at = page.find("msrs_serve_received 5");
  ASSERT_NE(info_at, std::string::npos) << page;
  ASSERT_NE(counter_at, std::string::npos);
  EXPECT_LT(info_at, counter_at);  // info series lead the page
  EXPECT_NE(page.find("# TYPE msrs_build_info gauge"), std::string::npos);
  // The JSON exposition carries the same labels under "info".
  const Json document = snapshot.json();
  const Json* info = document.find("info");
  ASSERT_NE(info, nullptr);
  const Json* build = info->find("build_info");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->find("wire")->as_string(), "1");
}

TEST(Prometheus, NoInfoMeansNoInfoKeyInJson) {
  MetricsRegistry registry;
  registry.counter("x").inc();
  EXPECT_EQ(registry.snapshot().json().find("info"), nullptr);
}

}  // namespace
}  // namespace msrs::obs
