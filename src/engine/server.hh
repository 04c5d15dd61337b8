/**
 * @file
 * Async serving front end over an ExecutionBackend.
 *
 * EIE's pitch is latency-bound FC/LSTM serving where classic batching
 * hurts latency — yet a deployed engine must absorb many concurrent
 * single-vector requests. InferenceServer bridges the two with a
 * dynamic micro-batcher: submissions enqueue individually and a
 * batcher thread coalesces whatever is waiting into one backend
 * batch sweep, bounded by a maximum batch size and a forming
 * deadline. Under light load a request rides alone (deadline-bounded
 * added latency); under heavy load batches fill instantly and
 * throughput approaches the backend's batched peak.
 *
 * The forming window is adaptive by default: when sweeps execute
 * nearly empty (sequential/streaming traffic — an LSTM session
 * stepping one frame at a time) the window halves toward min_delay,
 * so lone requests stop paying the full max_delay wait; when sweeps
 * fill to max_batch it doubles back toward max_delay so bursts keep
 * coalescing. The window never exceeds the configured max_delay, so
 * adaptivity can only shorten queue waits — a deadline feasible
 * under the fixed window stays feasible under the adaptive one.
 *
 * Requests carry an optional priority and deadline: when the queue
 * holds more than one batch of work the batcher pops higher-priority
 * requests first (FIFO within a priority level), and a request whose
 * deadline passes before it reaches the backend is dropped — its
 * future fails with a clear error and ServerStats counts the drop.
 *
 * Thread safety: submit()/infer() may be called from any number of
 * threads. Responses are delivered through per-request futures, so
 * request/response pairing is structural; same-priority requests from
 * one thread execute in submission order. Every future obtained from
 * submit() is guaranteed to complete — with the output, or with an
 * exception (deadline drop, submit on a stopped/stopping server) —
 * even when the server is destroyed with a full queue mid-burst.
 */

#ifndef EIE_ENGINE_SERVER_HH
#define EIE_ENGINE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "engine/backend.hh"
#include "obs/metrics.hh"

namespace eie::engine {

/**
 * @name Failure modes delivered through request futures.
 * Their what() strings are static literals on purpose: the exception
 * object crosses threads (set on the promise side, rethrown and read
 * on the future side), and a refcounted message string would make
 * the two sides share mutable state.
 */
///@{

/** The request's deadline expired while it was still queued. */
class DeadlineExpired : public std::exception
{
  public:
    const char *what() const noexcept override;
};

/** The request reached a server that had already stopped. */
class ServerStopped : public std::exception
{
  public:
    const char *what() const noexcept override;
};

/** The request was shed by admission control (queue full or deadline
 *  infeasible). Clients should treat this as Unavailable: the server
 *  is healthy but saturated, and an idempotent request may be retried
 *  after backoff. */
class ServerOverloaded : public std::exception
{
  public:
    const char *what() const noexcept override;
};

///@}

/**
 * Exponential (Poisson-process) open-loop arrival offsets in seconds
 * from a common start, for synthetic serving traffic: the schedule
 * never waits for responses. A non-positive @p rate_per_sec yields
 * all-zero offsets (back-to-back submission).
 */
std::vector<double> openLoopArrivals(std::size_t count,
                                     double rate_per_sec, Rng &rng);

/** What admission control sheds when the queue is at max_queue. */
enum class ShedPolicy {
    /** Always reject the newly arriving request. */
    RejectNew,
    /** Evict the lowest-priority queued request when the newcomer
     *  outranks it (oldest such request goes first); otherwise shed
     *  the newcomer. Keeps high-priority traffic admitted under
     *  sustained overload. */
    EvictLowestPriority,
};

/** Micro-batching policy of an InferenceServer. */
struct ServerOptions
{
    /** Largest batch one backend sweep may coalesce. */
    std::size_t max_batch = 16;

    /** How long the batcher may hold the oldest queued request while
     *  waiting for the batch to fill (the adaptive window's upper
     *  bound). */
    std::chrono::microseconds max_delay{200};

    /** Adapt the forming window to the observed queue depth: halve
     *  toward min_delay after a sweep that executed <= 1 request,
     *  double back toward max_delay after a full sweep. Disable for
     *  a fixed max_delay window. */
    bool adaptive_delay = true;

    /** Lower bound of the adaptive forming window (clamped to
     *  max_delay when larger). */
    std::chrono::microseconds min_delay{20};

    /** Admission control: maximum queued (unformed) requests before
     *  new arrivals are shed with ServerOverloaded. 0 (the default)
     *  leaves the queue unbounded — the pre-shedding behavior. */
    std::size_t max_queue = 0;

    /** Which request loses when the queue is full. */
    ShedPolicy shed_policy = ShedPolicy::RejectNew;

    /** When max_queue > 0, also shed a request at admission if its
     *  deadline cannot plausibly be met given the work already queued
     *  ahead of it (queue_depth / max_batch forming sweeps, each up
     *  to max_delay). Off by default. */
    bool shed_infeasible_deadlines = false;

    /** Opaque label handed to fault::fire() at this server's fault
     *  points, so tests can target one shard of a cluster. */
    std::string fault_tag;
};

/** Per-request scheduling knobs for InferenceServer::submit(). */
struct SubmitOptions
{
    /** Higher-priority requests pop first when the queue holds more
     *  than one batch of work (FIFO within a level). */
    int priority = 0;

    /** Time budget from submission; a request still queued when it
     *  expires is dropped (future fails, drop counted). Zero (the
     *  default) means no deadline. */
    std::chrono::microseconds deadline{0};

    /** Distributed trace id (obs::nextTraceId()); 0 — the default —
     *  means untraced and records nothing. Traced requests drop
     *  enqueue/batch_form/kernel_run/reply spans into the process
     *  trace ring as they complete. */
    std::uint64_t trace_id = 0;
};

/**
 * Per-layer kernel dispatch statistics of a serving backend: which
 * variant the last sweep executed and the measured activation
 * density, aggregated across sweeps. Only filled when the backend
 * reports dispatch decisions (the compiled backend).
 */
struct LayerDispatchStats
{
    std::string layer;              ///< compiled layer name
    std::string kernel;             ///< last executed variant
    double last_act_density = -1.0; ///< last sweep's sampled density
    double mean_act_density = 0.0;  ///< mean over measured sweeps
    std::uint64_t sweeps = 0;       ///< sweeps with a measured density
    std::uint64_t resident_bytes = 0; ///< the layer's resident stream bytes
};

/** Aggregate serving statistics since construction. */
struct ServerStats
{
    std::uint64_t requests = 0;   ///< completed requests
    std::uint64_t batches = 0;    ///< backend sweeps executed
    double mean_batch = 0.0;      ///< requests / batches
    std::size_t max_queue_depth = 0;

    /** Requests dropped because their deadline expired in the queue. */
    std::uint64_t dropped_deadline = 0;

    /** Requests shed by admission control (queue cap / infeasible
     *  deadline), including queued requests evicted by a
     *  higher-priority newcomer. */
    std::uint64_t requests_shed = 0;

    /** Request latency (submit to response), microseconds, derived
     *  from the server's log-scale latency histogram — the same
     *  obs::HistogramSnapshot::quantile code every other telemetry
     *  surface uses. */
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double p999_latency_us = 0.0;
    double max_latency_us = 0.0;

    /** The raw mergeable histogram behind the percentiles, so
     *  aggregators (ClusterEngine, client transports) combine
     *  distributions instead of averaging quantiles. */
    obs::HistogramSnapshot latency;

    /** Current adaptive forming window (== max_delay when the
     *  adaptive batcher is off or has not adapted yet). */
    double forming_delay_us = 0.0;

    /** Per-layer kernel dispatch decisions (empty for backends that
     *  do not report them). */
    std::vector<LayerDispatchStats> layers;
};

namespace detail {

/** One queued request (exposed for the batch-forming policy tests). */
struct Pending
{
    std::vector<std::int64_t> input;
    std::promise<std::vector<std::int64_t>> promise;
    std::chrono::steady_clock::time_point enqueued;
    /** Absolute drop time; time_point::max() = no deadline. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    int priority = 0;
    std::uint64_t trace_id = 0;
};

/** What one batch-forming step popped from the queue. */
struct FormedBatch
{
    std::vector<Pending> batch;   ///< to execute, selection order
    std::vector<Pending> dropped; ///< deadline expired before @p now
};

/**
 * The micro-batcher's pop policy, as a pure queue transformation so
 * it is unit-testable without timing races: remove every request
 * whose deadline lies at or before @p now (returned in `dropped`),
 * then select up to @p max_batch of the remainder by priority
 * (descending), FIFO within a priority level. The queue keeps the
 * unselected requests in arrival order.
 */
FormedBatch formBatch(std::deque<Pending> &queue, std::size_t max_batch,
                      std::chrono::steady_clock::time_point now);

} // namespace detail

/** Async request queue + dynamic micro-batcher over one backend. */
class InferenceServer
{
  public:
    /**
     * Take ownership of @p backend and start the batcher thread.
     * Any backend works; "compiled" (optionally with a worker pool)
     * is the intended serving path.
     */
    explicit InferenceServer(std::unique_ptr<ExecutionBackend> backend,
                             const ServerOptions &options = {});

    /** Stops accepting, completes queued requests, joins. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Enqueue one input vector; the future resolves to the network's
     * raw output once a batch containing the request completes, or
     * fails with DeadlineExpired / ServerStopped if the request's
     * deadline expires in the queue or the server is stopped. Fatal
     * if the input length does not match the network.
     */
    std::future<std::vector<std::int64_t>>
    submit(std::vector<std::int64_t> input_raw,
           const SubmitOptions &options = {});

    /** Blocking convenience wrapper: submit and wait. */
    std::vector<std::int64_t>
    infer(std::vector<std::int64_t> input_raw);

    /** The backend being served. */
    const ExecutionBackend &backend() const { return *backend_; }

    /** Stop accepting new requests, drain the queue, join. Idempotent.
     *  Every already-submitted future completes (drained requests with
     *  their output, expired ones with the deadline error). */
    void stop();

    /** Requests currently queued (not yet handed to the backend). */
    std::size_t queueDepth() const;

    /** Snapshot of the aggregate statistics. */
    ServerStats stats() const;

    /** The raw latency histogram behind the stats() percentiles, for
     *  callers that merge distributions across servers
     *  (ClusterEngine, the client transports). */
    obs::HistogramSnapshot latencyHistogramSnapshot() const;

  private:
    void batcherLoop();

    /** Earliest instant the batcher must wake while forming: the
     *  oldest request's forming deadline or the earliest request
     *  deadline, whichever comes first. Caller holds mutex_. */
    std::chrono::steady_clock::time_point nextWakeup() const;

    std::unique_ptr<ExecutionBackend> backend_;
    ServerOptions options_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::deque<detail::Pending> queue_;
    bool stopping_ = false;
    std::once_flag join_once_;

    /** The adaptive forming window, within [min_delay, max_delay]
     *  (guarded by mutex_). */
    std::chrono::microseconds forming_delay_;

    // Statistics (guarded by mutex_).
    std::vector<LayerDispatchStats> layer_dispatch_;
    std::uint64_t completed_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t dropped_deadline_ = 0;
    std::uint64_t requests_shed_ = 0;
    std::size_t max_queue_depth_ = 0;

    /** Per-server latency distribution (internally atomic). */
    obs::Histogram latencies_;

    /** Process-wide registry handles, resolved once at construction
     *  so the hot path never takes the registry lock. These
     *  aggregate across every server in the process (all cluster
     *  shards) — per-server numbers stay in the members above. */
    obs::Counter &m_requests_;
    obs::Counter &m_batches_;
    obs::Counter &m_dropped_deadline_;
    obs::Counter &m_shed_;
    obs::Histogram &m_latency_;
    obs::Gauge &m_queue_depth_;
    obs::Gauge &m_forming_delay_;

    std::thread batcher_;
};

} // namespace eie::engine

#endif // EIE_ENGINE_SERVER_HH
