/**
 * @file
 * Shared plumbing of the serving benchmark: run options, the metric
 * report every workload fills, latency samples (failures count as
 * infinite latency), the closed-loop drivers, the span-ring digest of
 * the traced run and the per-NN-layer kernel figures.
 *
 * Metric names are the contract with BENCHMARK.json: every workload
 * emits every end-to-end metric untraced and every per-layer metric
 * traced. A per-layer metric of a layer the workload does not
 * exercise reads 0 and is listed under "not_exercised" in the result
 * file.
 */

#ifndef EIE_PERFBENCH_HARNESS_HH
#define EIE_PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "core/config.hh"
#include "core/kernel/executor.hh"
#include "obs/trace.hh"

namespace perfbench {

namespace bench = eie::bench;

using Clock = std::chrono::steady_clock;
using Frame = std::vector<std::int64_t>;

double secondsSince(Clock::time_point start);
double microsSince(Clock::time_point start);

/** One run's command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured wall time of the timed phase
    bool trace = false;     ///< per-layer ladder run instead of e2e
    bool smoke = false;     ///< tiny run: one set-up, few frames
    std::string out;        ///< stamped result file
    std::string scratch;    ///< directory for scratch registries
    std::string commit = "unknown";

    /** Untimed traffic before the measured window: lazy state
     *  (caches, adaptive forming window, thread wake-ups) settles. */
    double warmupSeconds() const { return smoke ? 0.1 : 1.0; }

    /** Set-up repetitions whose median is setup_s. */
    unsigned setupRepeats() const { return smoke || trace ? 1 : 5; }
};

/** Per-request latencies of one phase; a failed request counts as an
 *  infinite latency. Not thread-safe: one per client thread, merged. */
class LatencySample
{
  public:
    /** Record a request that completed now after @p us. */
    void ok(double us) { entries_.push_back({Clock::now(), us}); }
    void fail();
    void record(bool ok, double us) { ok ? this->ok(us) : fail(); }
    void merge(const LatencySample &other);

    std::uint64_t count() const { return entries_.size(); }
    std::uint64_t failed() const { return failed_; }

    /** Nearest-rank quantile (obs::nearestRankIndex); +inf when the
     *  rank lands on a failure, 0 when empty. */
    double quantile(double q) const;
    double mean() const;

    /** The requests that completed in [@p begin, @p end). */
    LatencySample window(Clock::time_point begin,
                         Clock::time_point end) const;

  private:
    struct Entry
    {
        Clock::time_point done;
        double us; ///< +inf for a failed request
    };
    std::vector<Entry> entries_;
    std::uint64_t failed_ = 0;
};

/** Attempted/failed request counts across client threads. */
struct Tally
{
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};

    void
    record(bool ok)
    {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (!ok)
            failed.fetch_add(1, std::memory_order_relaxed);
    }
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Report
{
    std::vector<Metric> metrics;
    bench::Json detail;
    Tally tally;

    void add(const std::string &name, double value,
             const std::string &unit);
};

/** The NN layers of the kernel census, one workload each. */
const std::vector<std::string> &kernelLayerNames();

/** The ladder rungs, by public entry point, in bottom-up order. */
const std::vector<std::string> &ladderRungNames();

/** Every per-layer metric (name, unit) in emission order; the traced
 *  run emits exactly these. */
std::vector<std::pair<std::string, std::string>> perLayerMetricNames();

/** Every end-to-end metric (name, unit) in emission order. */
std::vector<std::pair<std::string, std::string>> endToEndMetricNames();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Peak resident set of this process so far, MiB (getrusage). */
double peakRssMb();

/**
 * Single-thread closed loop with @p window requests in flight, FIFO:
 * issue until @p until or @p budget requests, then drain. @p submit(i)
 * sends request i and returns its future; @p wait(future, i) blocks
 * on it and returns whether the response was Ok and bit-exact. The
 * latency of a request runs from its send to the return of its wait.
 */
template <class Future, class SubmitFn, class WaitFn>
void
windowLoop(std::size_t window, Clock::time_point until,
           std::uint64_t budget, SubmitFn &&submit, WaitFn &&wait,
           LatencySample &latency, Tally &tally)
{
    struct InFlight
    {
        Future future;
        Clock::time_point sent;
        std::uint64_t index;
    };
    std::deque<InFlight> in_flight;
    const auto retire = [&] {
        InFlight front = std::move(in_flight.front());
        in_flight.pop_front();
        const bool ok = wait(front.future, front.index);
        latency.record(ok, microsSince(front.sent));
        tally.record(ok);
    };
    std::uint64_t issued = 0;
    while (issued < budget && Clock::now() < until) {
        if (in_flight.size() >= window) {
            retire();
            continue;
        }
        const auto sent = Clock::now();
        in_flight.push_back({submit(issued), sent, issued});
        ++issued;
    }
    while (!in_flight.empty())
        retire();
}

/**
 * Digest of the span ring over a traced phase. The caller snapshots
 * and clears obs::processTraceRing() only while no request is in
 * flight, so every request's spans land in exactly one snapshot and
 * the ring never wraps (add() fails the run if a snapshot is full).
 */
class SpanDigest
{
  public:
    /** Fold one quiescent snapshot. Returns false if it filled the
     *  ring (spans may have been overwritten). */
    bool add(const std::vector<eie::obs::Span> &spans);

    /** Snapshot + clear the process ring and fold it in. */
    bool drainProcessRing();

    std::uint64_t spans() const { return spans_; }
    std::uint64_t batches() const { return batches_; }
    std::uint64_t retries() const { return retries_; }

    /** enqueue -> batch formed, per request (the batch_form span). */
    const LatencySample &queueWait() const { return queue_wait_; }
    /** Newest member's enqueue -> batch formed, per batch. */
    const LatencySample &formTail() const { return form_tail_; }
    /** Backend sweep per batch (the kernel_run span). */
    const LatencySample &kernelRun() const { return kernel_run_; }

    /** Sum of kernel_run time per shard (shard from shard_submit;
     *  0 for single-server paths), microseconds. */
    const std::map<int, double> &shardKernelUs() const
    {
        return shard_kernel_us_;
    }
    /** Requests served per shard. */
    const std::map<int, std::uint64_t> &shardRequests() const
    {
        return shard_requests_;
    }

  private:
    std::uint64_t spans_ = 0;
    std::uint64_t retries_ = 0;
    LatencySample queue_wait_;
    LatencySample form_tail_;
    LatencySample kernel_run_;
    std::uint64_t batches_ = 0;
    std::map<int, double> shard_kernel_us_;
    std::map<int, std::uint64_t> shard_requests_;
};

/**
 * Per-call kernel figures of one NN layer at one batch shape: every
 * call's wall time and dispatch decision, turned into us/call, GOP/s
 * and computed GB/s (resident bytes per nonzero x nonzeros walked,
 * plus int64 activations in and out).
 */
class LayerKernel
{
  public:
    LayerKernel(std::string name,
                const eie::core::kernel::CompiledLayer &layer);

    /** Time one runBatch call on @p inputs; returns its outputs. */
    eie::core::kernel::Batch
    run(const eie::core::kernel::Batch &inputs);

    /** Record a call on @p inputs timed elsewhere. */
    void record(double us, const eie::core::kernel::Batch &inputs,
                const eie::core::kernel::DispatchInfo &info);
    void merge(const LayerKernel &other);

    double p50Us() const;

    /** kernel.<name>.{us_per_call,gop_per_s,gb_per_s,variant,decode_us}
     *  plus a detail row. */
    void report(Report &report) const;

  private:
    std::string name_;
    const eie::core::kernel::CompiledLayer *layer_;
    std::vector<double> call_us_;
    std::uint64_t frames_ = 0;
    double density_sum_ = 0.0;
    double decode_us_sum_ = 0.0;
    std::map<eie::core::kernel::KernelVariant, std::uint64_t> variants_;
};

/**
 * The traced run's ladder: each rung's p50 latency under the
 * workload's own traffic shape, bottom-up. A rung's self time is its
 * p50 minus the rung below; the self times telescope to the top
 * rung, which is then compared with the untraced p50 of the same
 * process.
 */
class Ladder
{
  public:
    void rung(const std::string &name, double p50_us);

    /** ladder.<rung>.self_us for every rung of ladderRungNames() (0
     *  for rungs this workload does not climb), ladder.sum_us,
     *  ladder.untraced_p50_us, ladder.gap_frac and trace.overhead_us,
     *  plus the ladder table in the detail. */
    void report(Report &report, double untraced_p50_us,
                double margin) const;

  private:
    std::vector<std::pair<std::string, double>> rungs_;
};

/** The serving stack's process-registry counters, sampled before and
 *  after a traced phase (the registry aggregates every server of the
 *  process, so only deltas over a phase with one active stack are
 *  attributable). */
struct ServingCounters
{
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    std::uint64_t shed = 0;
    std::uint64_t dropped_deadline = 0;
    std::uint64_t failovers = 0;

    static ServingCounters now();
    ServingCounters operator-(const ServingCounters &before) const;
};

/** What a traced top rung observed, for reportServing(). */
struct TracedPhase
{
    SpanDigest digest;
    ServingCounters counters;  ///< deltas over the phase
    double wall_s = 0.0;       ///< measured time, pauses excluded
    std::uint64_t completed = 0;
    std::vector<double> forming_delay_us; ///< gauge, per segment

    /** Snapshot the ring and the forming gauge at a quiescent point;
     *  false (and a failed run) if the ring filled up. */
    bool drain();
};

/**
 * server.*, obs.spans_per_request and client.retries from a traced
 * phase; with @p shards > 0 also cluster.* (per-shard busy fraction is
 * the shard's summed kernel_run time over the phase's wall time).
 */
void reportServing(Report &report, const TracedPhase &phase,
                   std::size_t max_batch, unsigned shards);

/** @p count distinct raw frames of @p size activations at
 *  @p density, quantized into @p config's activation format; the
 *  same seed always gives the same frames. */
std::vector<Frame> makeFrames(const eie::core::EieConfig &config,
                              std::size_t count, std::size_t size,
                              double density, std::uint64_t seed);

/** Windows the measured time of an untraced run is cut into. */
inline constexpr int kWindows = 10;

/**
 * The end-to-end metrics of an untraced run measured from @p start
 * for @p seconds: throughput_rps and latency_p50_us are medians over
 * kWindows equal windows (by completion time), so a stall that hits
 * part of a run moves them little; setup_s is the median set-up and
 * peak_rss_mb the process peak. The whole-run p99 and the sample
 * counts go to the detail.
 */
void reportEndToEnd(Report &report, const LatencySample &latency,
                    Clock::time_point start, double seconds,
                    const std::vector<double> &setup_s);

/**
 * Run the traced top rung: @p segment(until, budget) drives the
 * workload for at most @p budget requests and returns how many it
 * attempted; between segments no request is in flight, so the span
 * ring is drained there. Segments repeat until @p until. Returns
 * false if a segment filled the ring.
 */
template <class SegmentFn>
bool
runTraced(TracedPhase &phase, Clock::time_point until,
          std::uint64_t budget, SegmentFn &&segment)
{
    eie::obs::processTraceRing().clear();
    const ServingCounters before = ServingCounters::now();
    bool complete = true;
    while (Clock::now() < until) {
        const auto start = Clock::now();
        phase.completed += segment(until, budget);
        phase.wall_s += secondsSince(start);
        complete = phase.drain() && complete;
    }
    phase.counters = ServingCounters::now() - before;
    return complete;
}

/** Requests per traced segment: well under the span ring's capacity
 *  at the deepest path's spans per request. */
inline constexpr std::uint64_t kTracedSegment = 1000;

/** The margin within which the ladder's self times must sum to the
 *  untraced latency_p50_us (share of the untraced figure). */
inline constexpr double kLadderMargin = 0.25;

/** The measured window of one phase. */
struct RunClock
{
    Clock::time_point start;
    Clock::time_point until;

    static RunClock
    forSeconds(double seconds)
    {
        const auto now = Clock::now();
        return {now, now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds))};
    }
};

/** @name The workloads; each fills @p report with the end-to-end
 *  metrics (untraced) or the per-layer metrics (traced). */
///@{
void runNtweBurst(const Options &options, Report &report);
void runLstmSessions(const Options &options, Report &report);
///@}

} // namespace perfbench

#endif // EIE_PERFBENCH_HARNESS_HH
