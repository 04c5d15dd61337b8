/**
 * @file
 * The telemetry substrate: nearest-rank quantile selection behind
 * HistogramSnapshot::quantile (including the tiny-sample tail and
 * q = 0/1 edges the old floor-rank implementation got wrong), the
 * lock-free log-scale histogram, snapshot merging, the registry's
 * handle stability and both exposition formats.
 */

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/metrics.hh"

namespace eie::obs {
namespace {

TEST(NearestRankIndex, SelectsNearestRank)
{
    // rank = ceil(q * n), clamped to [1, n]; returned 0-based.
    EXPECT_EQ(nearestRankIndex(1, 0.5), 0u);
    EXPECT_EQ(nearestRankIndex(2, 0.5), 0u);  // ceil(1.0) = 1
    // ceil(1.98) = 2: p99 of two samples is the maximum (the old
    // floor(q * (n-1)) rank returned the minimum).
    EXPECT_EQ(nearestRankIndex(2, 0.99), 1u);
    EXPECT_EQ(nearestRankIndex(100, 0.5), 49u);
    EXPECT_EQ(nearestRankIndex(100, 0.99), 98u);
    EXPECT_EQ(nearestRankIndex(100, 0.999), 99u);
}

TEST(NearestRankIndex, QuantileBoundsClampToMinAndMax)
{
    EXPECT_EQ(nearestRankIndex(10, 0.0), 0u);
    EXPECT_EQ(nearestRankIndex(10, -3.0), 0u);
    EXPECT_EQ(nearestRankIndex(10, 1.0), 9u);
    EXPECT_EQ(nearestRankIndex(10, 7.0), 9u);
}

TEST(HistogramBuckets, MonotoneAndExhaustive)
{
    EXPECT_EQ(bucketIndex(0.0), 0u);
    EXPECT_EQ(bucketIndex(0.5), 0u);
    EXPECT_EQ(bucketIndex(-3.0), 0u); // clamped, not UB
    double previous = -1.0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        const double lo = bucketLowerBound(i);
        EXPECT_GT(lo, previous);
        previous = lo;
        // A value just above each bucket's lower bound maps back to
        // that bucket.
        EXPECT_EQ(bucketIndex(lo * 1.0001 + 1e-9), i);
    }
    // Far beyond the last bucket still lands in the overflow bucket.
    EXPECT_EQ(bucketIndex(1e18), kHistogramBuckets - 1);
}

TEST(Histogram, EmptySnapshotIsAllZero)
{
    Histogram histogram;
    const HistogramSnapshot snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 0u);
    EXPECT_EQ(snapshot.quantile(0.5), 0.0);
    EXPECT_EQ(snapshot.mean(), 0.0);
    const LatencySummary summary = snapshot.summary();
    EXPECT_EQ(summary.count, 0u);
    EXPECT_EQ(summary.p999, 0.0);
}

TEST(Histogram, SingleSampleClampsEveryQuantileToIt)
{
    Histogram histogram;
    histogram.record(300.0);
    const HistogramSnapshot snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 1u);
    EXPECT_EQ(snapshot.max, 300.0);
    // In-bucket interpolation is clamped to the recorded maximum, so
    // one sample answers every quantile exactly.
    EXPECT_EQ(snapshot.quantile(0.0), 300.0);
    EXPECT_EQ(snapshot.quantile(0.5), 300.0);
    EXPECT_EQ(snapshot.quantile(1.0), 300.0);
}

TEST(Histogram, QuantilesTrackTheSampleWithinBucketResolution)
{
    Histogram histogram;
    for (int i = 1; i <= 1000; ++i)
        histogram.record(static_cast<double>(i));
    const HistogramSnapshot snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 1000u);
    EXPECT_NEAR(snapshot.mean(), 500.5, 1e-6);
    // Quarter-octave buckets are ~19% wide; allow that resolution.
    EXPECT_NEAR(snapshot.quantile(0.5), 500.0, 500.0 * 0.2);
    EXPECT_NEAR(snapshot.quantile(0.99), 990.0, 990.0 * 0.2);
    EXPECT_EQ(snapshot.quantile(1.0), 1000.0);
}

TEST(HistogramSnapshot, MergeEqualsRecordingEverythingInOne)
{
    Histogram left, right, all;
    for (int i = 1; i <= 500; ++i) {
        left.record(static_cast<double>(i));
        all.record(static_cast<double>(i));
    }
    for (int i = 501; i <= 1000; ++i) {
        right.record(static_cast<double>(i * 3));
        all.record(static_cast<double>(i * 3));
    }
    HistogramSnapshot merged = left.snapshot();
    merged.merge(right.snapshot());
    const HistogramSnapshot reference = all.snapshot();
    EXPECT_EQ(merged.count, reference.count);
    EXPECT_EQ(merged.counts, reference.counts);
    EXPECT_DOUBLE_EQ(merged.sum, reference.sum);
    EXPECT_EQ(merged.max, reference.max);
    EXPECT_EQ(merged.quantile(0.99), reference.quantile(0.99));
}

TEST(MetricsRegistry, HandlesAreStable)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("eie_test_total");
    Counter &b = registry.counter("eie_test_total");
    EXPECT_EQ(&a, &b);
    a.add(3);
    b.add();
    EXPECT_EQ(a.value(), 4u);

    Gauge &g = registry.gauge("eie_test_depth");
    g.set(7.5);
    EXPECT_EQ(&g, &registry.gauge("eie_test_depth"));
    EXPECT_EQ(registry.gauge("eie_test_depth").value(), 7.5);

    Histogram &h = registry.histogram("eie_test_us");
    EXPECT_EQ(&h, &registry.histogram("eie_test_us"));
}

TEST(MetricsRegistry, TextExposition)
{
    MetricsRegistry registry;
    registry.counter("eie_requests_total").add(5);
    registry.gauge("eie_queue_depth").set(2);
    registry.histogram("eie_latency_us").record(100.0);

    const std::string text = registry.renderText();
    EXPECT_NE(text.find("# TYPE eie_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("eie_requests_total 5"), std::string::npos);
    EXPECT_NE(text.find("eie_queue_depth 2"), std::string::npos);
    EXPECT_NE(text.find("eie_latency_us{quantile=\"0.999\"}"),
              std::string::npos);
    EXPECT_NE(text.find("eie_latency_us_count 1"),
              std::string::npos);
}

TEST(MetricsRegistry, JsonExpositionParses)
{
    MetricsRegistry registry;
    registry.counter("eie_requests_total").add(9);
    registry.histogram("eie_latency_us").record(50.0);

    const JsonValue root = parseJson(registry.renderJson());
    ASSERT_TRUE(root.isObject());
    const JsonValue *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("eie_requests_total", -1.0), 9.0);
    const JsonValue *histograms = root.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue *latency = histograms->find("eie_latency_us");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->numberOr("count", -1.0), 1.0);
    EXPECT_EQ(latency->numberOr("p50", -1.0), 50.0);
    EXPECT_EQ(latency->numberOr("max", -1.0), 50.0);
}

TEST(MetricsRegistry, ConcurrentRecordingIsExact)
{
    // Counters and histogram counts are atomics: under concurrent
    // recorders nothing may be lost (and TSan must stay quiet).
    MetricsRegistry registry;
    Counter &counter = registry.counter("eie_concurrent_total");
    Histogram &histogram = registry.histogram("eie_concurrent_us");

    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.add();
                histogram.record(static_cast<double>(t * 100 + 1));
            }
        });
    }
    // Concurrent readers race the writers by design.
    const std::string text = registry.renderText();
    EXPECT_FALSE(text.empty());
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(histogram.snapshot().count,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ProcessRegistry, IsASingleton)
{
    EXPECT_EQ(&processRegistry(), &processRegistry());
}

} // namespace
} // namespace eie::obs
