#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace mfgpu {
namespace {

struct MetricsGuard {
  MetricsGuard() {
    obs::MetricsRegistry::global().clear();
    obs::enable();
  }
  ~MetricsGuard() {
    obs::disable();
    obs::MetricsRegistry::global().clear();
  }
};

TEST(MetricsTest, DisabledUpdatesAreNoOps) {
  obs::disable();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.clear();
  metrics.add("c", 3.0);
  metrics.gauge_set("g", 5.0);
  metrics.observe("h", 7.0);
  const auto snapshot = metrics.snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(MetricsTest, CountersAccumulate) {
  MetricsGuard guard;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add("fu.time", 0.5);
  metrics.add("fu.time", 0.25);
  metrics.increment("fu.calls");
  metrics.increment("fu.calls");
  metrics.increment("fu.calls");
  EXPECT_DOUBLE_EQ(metrics.counter("fu.time"), 0.75);
  EXPECT_DOUBLE_EQ(metrics.counter("fu.calls"), 3.0);
  EXPECT_DOUBLE_EQ(metrics.counter("never.written"), 0.0);
}

TEST(MetricsTest, GaugesSetAndHighWater) {
  MetricsGuard guard;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.gauge_set("util", 0.7);
  metrics.gauge_set("util", 0.4);
  EXPECT_DOUBLE_EQ(metrics.gauge("util"), 0.4);  // last write wins
  metrics.gauge_max("peak", 10.0);
  metrics.gauge_max("peak", 4.0);
  metrics.gauge_max("peak", 25.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("peak"), 25.0);  // high water wins
}

TEST(MetricsTest, HistogramBucketsAreLog2) {
  EXPECT_EQ(obs::HistogramData::bucket_of(0.0), 0);
  EXPECT_EQ(obs::HistogramData::bucket_of(1.0), 0);
  EXPECT_EQ(obs::HistogramData::bucket_of(2.0), 1);
  EXPECT_EQ(obs::HistogramData::bucket_of(3.0), 2);
  EXPECT_EQ(obs::HistogramData::bucket_of(4.0), 2);
  EXPECT_EQ(obs::HistogramData::bucket_of(1024.0), 10);
  EXPECT_EQ(obs::HistogramData::bucket_of(1025.0), 11);
}

TEST(MetricsTest, HistogramTracksMoments) {
  MetricsGuard guard;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.observe("depth", 1.0);
  metrics.observe("depth", 4.0);
  metrics.observe("depth", 16.0);
  const auto snapshot = metrics.snapshot();
  const auto it = snapshot.histograms.find("depth");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_EQ(it->second.count, 3);
  EXPECT_DOUBLE_EQ(it->second.sum, 21.0);
  EXPECT_DOUBLE_EQ(it->second.min, 1.0);
  EXPECT_DOUBLE_EQ(it->second.max, 16.0);
  EXPECT_EQ(it->second.buckets[obs::HistogramData::bucket_of(4.0)], 1);
}

TEST(MetricsTest, PercentileIsNearestRankOnBucketEdges) {
  obs::HistogramData h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty histogram
  // 100 samples: 1..100. Bucketed quantiles land on the upper power-of-two
  // edge of the sample's bucket, clamped to the exact [min, max] range.
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);   // clamped up to min
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 64.0);  // p50 sample 50 -> bucket (32,64]
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 100.0);  // edge 128 clamps to max
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(MetricsTest, PercentileOfSingleValueIsExact) {
  obs::HistogramData h;
  h.observe(0.0375);  // a latency-like fractional value
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0375);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0375);
}

TEST(MetricsTest, PercentileEdgeCasesAreDefined) {
  obs::HistogramData empty;
  // An empty histogram returns 0.0 for EVERY q, including the edges and
  // out-of-range inputs — never a stale min/max or an out-of-bounds scan.
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(2.0), 0.0);

  obs::HistogramData h;
  h.observe(3.0);
  h.observe(7.0);
  h.observe(300.0);
  // q <= 0 is the exact minimum; q >= 1 the exact maximum — not the
  // power-of-two bucket edges (4, 512) the rank scan would produce.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 300.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.5), 300.0);
  // NaN q lands on the q <= 0 branch (defined, no UB), returning min.
  EXPECT_DOUBLE_EQ(h.percentile(std::nan("")), 3.0);
  // Interior quantiles keep the nearest-rank bucket-edge behavior.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 8.0);  // sample 7 -> bucket (4, 8]
}

TEST(MetricsTest, SnapshotExportsToJsonAndCsv) {
  MetricsGuard guard;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add("kernel.gpu.syrk.flops", 1.0e9);
  metrics.gauge_set("sched.utilization", 0.875);
  metrics.observe("sched.ready_queue_depth", 3.0);
  const auto snapshot = metrics.snapshot();

  std::ostringstream json;
  obs::write_metrics_json(json, snapshot);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"kernel.gpu.syrk.flops\""), std::string::npos);
  EXPECT_NE(json_text.find("\"sched.utilization\""), std::string::npos);
  EXPECT_NE(json_text.find("\"sched.ready_queue_depth\""), std::string::npos);

  std::ostringstream csv;
  obs::write_metrics_csv(csv, snapshot);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("kind,name,value,count,sum,min,max"),
            std::string::npos);
  EXPECT_NE(csv_text.find("counter,kernel.gpu.syrk.flops"), std::string::npos);
  EXPECT_NE(csv_text.find("gauge,sched.utilization"), std::string::npos);
  EXPECT_NE(csv_text.find("histogram,sched.ready_queue_depth"),
            std::string::npos);
}

TEST(MetricsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

/// TSan-facing hammer: counters, gauges, and histograms written from many
/// threads at once, with a snapshotting reader racing them. The registry is
/// mutex-guarded — this pins that contract against regressions (e.g. a
/// "fast path" that skips the lock).
TEST(MetricsRegistryConcurrency, ConcurrentWritersAndSnapshotsAreClean) {
  MetricsGuard guard;
  auto& metrics = obs::MetricsRegistry::global();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snapshot = metrics.snapshot();
      // Shared-counter value only grows (mutex-serialized adds).
      const auto it = snapshot.counters.find("hammer.shared");
      if (it != snapshot.counters.end()) {
        EXPECT_GE(it->second, 0.0);
      }
      (void)metrics.counter("hammer.shared");
      (void)metrics.gauge("hammer.gauge.0");
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&metrics, t] {
      const std::string own_counter =
          "hammer.own." + std::to_string(t);
      const std::string gauge = "hammer.gauge." + std::to_string(t % 2);
      for (int i = 0; i < kOpsPerThread; ++i) {
        metrics.increment("hammer.shared");
        metrics.add(own_counter, 1.0);
        metrics.gauge_set(gauge, static_cast<double>(i));
        metrics.gauge_max("hammer.peak", static_cast<double>(i));
        metrics.observe("hammer.hist", static_cast<double>(i % 64));
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_DOUBLE_EQ(metrics.counter("hammer.shared"),
                   static_cast<double>(kThreads * kOpsPerThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(metrics.counter("hammer.own." + std::to_string(t)),
                     static_cast<double>(kOpsPerThread));
  }
  EXPECT_DOUBLE_EQ(metrics.gauge("hammer.peak"),
                   static_cast<double>(kOpsPerThread - 1));
  const auto snapshot = metrics.snapshot();
  const auto it = snapshot.histograms.find("hammer.hist");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_EQ(it->second.count,
            static_cast<std::int64_t>(kThreads) * kOpsPerThread);
}

TEST(MetricsTest, ClearEmptiesEverything) {
  MetricsGuard guard;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add("c", 1.0);
  metrics.gauge_set("g", 2.0);
  metrics.observe("h", 3.0);
  metrics.clear();
  const auto snapshot = metrics.snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

}  // namespace
}  // namespace mfgpu
