/**
 * @file
 * The process-wide telemetry substrate: named counters, gauges and
 * fixed-bucket log-scale latency histograms behind one
 * MetricsRegistry, with Prometheus-style text and JSON exposition.
 *
 * The serving stack used to grow one bespoke stats pipeline per layer
 * (ServerStats percentiles from a latency reservoir, ClusterStats
 * re-merging shard samples, EndpointStats request-weighting the
 * already-computed percentiles — which is not how quantiles compose).
 * This header replaces the lot: every component records into typed
 * handles, snapshots are plain mergeable structs, and every consumer
 * (stats() structs, statsJson, the Metrics wire frame, eie_top)
 * derives its percentiles from the same histogram code.
 *
 * Hot-path cost: a Counter::add or Histogram::record is a handful of
 * relaxed atomic operations — no lock, no allocation — so recording
 * from the batcher and kernel dispatch paths is within noise.
 *
 * Quantile policy: one nearest-rank rule (nearestRankIndex) behind
 * HistogramSnapshot::quantile (bucketed, linear interpolation inside
 * the bucket) and any exact quantile over raw samples, so the two
 * cannot drift.
 */

#ifndef EIE_OBS_METRICS_HH
#define EIE_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace eie::obs {

/**
 * Nearest-rank index of quantile @p q in a sorted sample of
 * @p count elements: the 0-based index of the smallest element with
 * cumulative rank >= q * count. q <= 0 selects the minimum, q >= 1
 * the maximum. @p count must be > 0.
 */
std::size_t nearestRankIndex(std::uint64_t count, double q);

/** A monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A last-written instantaneous value (queue depth, density...). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Buckets of the log-scale histogram: bucket 0 holds values below
 *  1, then quarter-octave (x2^0.25) buckets up to ~11.8 seconds in
 *  microseconds, with the last bucket absorbing the overflow. */
inline constexpr std::size_t kHistogramBuckets = 96;

/** Lower bound of bucket @p index (0 for the first bucket). */
double bucketLowerBound(std::size_t index);

/** The bucket a recorded value lands in. */
std::size_t bucketIndex(double value);

/** One five-number latency summary derived from a histogram. */
struct LatencySummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double max = 0.0;
};

/**
 * A point-in-time copy of a Histogram: plain data, mergeable across
 * shards/servers/processes, the unit every stats snapshot carries.
 */
struct HistogramSnapshot
{
    std::array<std::uint64_t, kHistogramBuckets> counts{};
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;

    /** Fold @p other into this snapshot (bucket-wise addition). */
    void merge(const HistogramSnapshot &other);

    /** Nearest-rank quantile with linear interpolation inside the
     *  bucket; 0 when empty, the recorded maximum for q >= 1. */
    double quantile(double q) const;

    double mean() const;

    /** The full p50/p95/p99/p99.9 curve in one call. */
    LatencySummary summary() const;
};

/**
 * Lock-free fixed-bucket log-scale histogram. record() is a bucket
 * increment plus two relaxed atomic folds; snapshot() is a plain
 * copy. Safe for any number of concurrent recorders.
 */
class Histogram
{
  public:
    void record(double value);

    HistogramSnapshot snapshot() const;

  private:
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets>
        counts_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Named metric handles with stable addresses: the first caller of
 * counter("x") allocates it, every later caller gets the same
 * object, and the returned reference stays valid for the registry's
 * lifetime. Registration takes a mutex; recording through a handle
 * never does — components look their handles up once (construction
 * time) and hit atomics afterwards.
 *
 * Metric names follow the Prometheus convention:
 * `eie_<component>_<what>[_total]`, with any variant/layer
 * discriminator suffixed (`eie_kernel_dispatch_total_vector`) since
 * this registry deliberately has no label machinery.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Prometheus-style plaintext exposition: counters and gauges as
     *  single samples, histograms as summary quantiles plus _count /
     *  _sum / _max. */
    std::string renderText() const;

    /** The same data as one JSON object:
     *  {"counters":{...},"gauges":{...},"histograms":{name:
     *  {"count","mean","p50","p95","p99","p999","max"}}}. */
    std::string renderJson() const;

    /** Names currently registered, sorted (tests/tools). */
    std::vector<std::string> counterNames() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** The process-global registry every serving component records into
 *  and every exposition surface (Metrics wire frame, --metrics-port,
 *  eie_top) reads from. */
MetricsRegistry &processRegistry();

} // namespace eie::obs

#endif // EIE_OBS_METRICS_HH
