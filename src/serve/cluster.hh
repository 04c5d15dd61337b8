/**
 * @file
 * Sharded multi-instance serving: one ClusterEngine owns N shard
 * workers, each an engine::InferenceServer over its own EIE execution
 * backend, under one of two placement policies (EIE §VII, Fig. 11 —
 * compressed-sparse inference parallelises across PEs *and* across
 * instances):
 *
 *  - Replicated: every shard holds the full layer; requests route to
 *    the least-loaded shard (live queue depth, round-robin on ties).
 *    Shards running the "compiled" backend share one immutable
 *    pre-decoded stack (engine::compileLayerStack), so N replicas
 *    cost one copy of the weights. This is the throughput policy.
 *
 *  - ColumnPartitioned: the layer's columns are split into contiguous
 *    ranges balanced by stored non-zeros, one sub-layer per shard
 *    (cf. core/ext/column_partition — the §VII-A scheme, which costs
 *    a cross-PE reduction on chip but is exactly what lets a layer
 *    too big for one instance spread across several). submit()
 *    scatters the matching input slice to every shard and a gather
 *    worker sums the partial outputs (saturating adds in column
 *    order) and applies the non-linearity. This is the capacity
 *    policy for large layers.
 *
 * Outputs are bit-exact with the scalar oracle on the full layer:
 * replicated trivially (same plan, same backend semantics), and
 * column-partitioned whenever no intermediate accumulation saturates
 * — splitting columns only reorders saturating adds, and below the
 * accumulator limits the order is immaterial. Saturating workloads
 * should shard replicated.
 */

#ifndef EIE_SERVE_CLUSTER_HH
#define EIE_SERVE_CLUSTER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/server.hh"
#include "serve/registry.hh"

namespace eie::serve {

/** How a ClusterEngine places a model onto its shards. */
enum class Placement
{
    Replicated,       ///< full copy per shard, least-loaded routing
    ColumnPartitioned ///< contiguous column ranges, scatter-gather
};

/** Parse "replicated" / "partitioned" (fatal on anything else). */
Placement placementFromName(const std::string &name);

/** The registry name of @p placement. */
const char *placementName(Placement placement);

/** Shape and policy of one serving cluster. */
struct ClusterOptions
{
    unsigned shards = 1;
    Placement placement = Placement::Replicated;

    /** Execution backend per shard ("compiled", "scalar", "sim"). */
    std::string backend = "compiled";

    /** Kernel variant of every "compiled" shard's inner loop (see
     *  core/kernel/variant.hh; Auto = fastest bit-exact). */
    core::kernel::KernelVariant kernel =
        core::kernel::KernelVariant::Auto;

    /** PE-parallel worker threads inside each shard's backend. */
    unsigned threads_per_shard = 1;

    /** Micro-batcher policy of every shard's InferenceServer. */
    engine::ServerOptions server;

    /**
     * Shard circuit breaker: this many consecutive request failures
     * (errors, not deadline drops or sheds) eject a shard from
     * least-loaded routing until a probe succeeds. 0 (the default)
     * disables health tracking; with it enabled, replicated
     * placement also fails each failed request over to one healthy
     * shard before reporting the error.
     */
    unsigned eject_after_failures = 0;

    /** With ejected shards present, every Nth routing decision sends
     *  a live request to one of them as a recovery probe. */
    unsigned probe_interval = 8;
};

/** One shard's contribution to the cluster statistics. */
struct ShardStats
{
    engine::ServerStats server;
    std::size_t queue_depth = 0; ///< live queue depth at snapshot
    double utilization = 0.0;    ///< share of the cluster's requests
    std::size_t col_begin = 0;   ///< owned columns [col_begin,
    std::size_t col_end = 0;     ///<               col_end)

    // Circuit-breaker health (all zero when tracking is disabled).
    bool ejected = false;         ///< out of routing, probes only
    std::uint64_t failures = 0;   ///< total recorded request errors
    std::uint64_t ejections = 0;  ///< times the breaker tripped
    std::uint64_t probes = 0;     ///< recovery probes routed here
};

/** Aggregated cluster statistics since construction. */
struct ClusterStats
{
    std::uint64_t requests = 0; ///< completed end-to-end requests
    std::uint64_t dropped_deadline = 0;
    std::uint64_t failed = 0; ///< gathers failed by a shard error
    std::uint64_t requests_shed = 0; ///< rejected by admission control
    std::uint64_t failovers = 0;     ///< re-routed off a sick shard
    std::uint64_t shards_ejected = 0; ///< currently ejected shards
    double mean_batch = 0.0;  ///< request-weighted over shards

    /** End-to-end request latency percentiles: shard histograms
     *  merged (replicated) or gather-side measurements (partitioned),
     *  all through obs::HistogramSnapshot::quantile. */
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double p999_latency_us = 0.0;
    double max_latency_us = 0.0;

    /** The merged distribution behind the percentiles, for callers
     *  that aggregate further (client transports). */
    obs::HistogramSnapshot latency;

    std::vector<ShardStats> shards;
};

/**
 * Fold every shard's per-layer kernel dispatch stats into one
 * per-layer view (shards serve the same layer stack, so layer i
 * merges across shards): last non-empty decision wins for
 * kernel/last density, measured densities combine sweep-weighted.
 * Shared by statsJson() and the client transports so the aggregation
 * policy cannot drift between them.
 */
std::vector<engine::LayerDispatchStats>
mergeLayerDispatch(const std::vector<ShardStats> &shards);

/** N InferenceServer shards behind one submit() front door. */
class ClusterEngine
{
  public:
    /** Build the shard plans/backends/servers for @p model. The model
     *  is shared (and kept alive) by the cluster. */
    ClusterEngine(std::shared_ptr<const LoadedModel> model,
                  const ClusterOptions &options);

    /** Stops (drains) every shard and the gather worker. */
    ~ClusterEngine();

    ClusterEngine(const ClusterEngine &) = delete;
    ClusterEngine &operator=(const ClusterEngine &) = delete;

    const LoadedModel &model() const { return *model_; }
    const ClusterOptions &options() const { return options_; }
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    std::size_t inputSize() const { return model_->inputSize(); }
    std::size_t outputSize() const { return model_->outputSize(); }

    /**
     * Enqueue one input vector. Replicated: routes to the shard with
     * the shallowest queue. Partitioned: scatters input slices to
     * every shard; the returned future resolves when the gather
     * completes. Fails (future exception) on deadline expiry, a
     * stopped cluster, or a shard error. Fatal on a wrong input size.
     */
    std::future<std::vector<std::int64_t>>
    submit(std::vector<std::int64_t> input_raw,
           const engine::SubmitOptions &options = {});

    /** Blocking convenience wrapper: submit and wait. */
    std::vector<std::int64_t>
    infer(std::vector<std::int64_t> input_raw);

    /** Stop accepting, drain every shard, join workers. Idempotent. */
    void stop();

    /** Aggregated snapshot across all shards. */
    ClusterStats stats() const;

    /** Column ownership boundaries (shards+1 ascending values; for
     *  Replicated every shard owns the full range). */
    const std::vector<std::size_t> &columnBounds() const
    {
        return col_bounds_;
    }

  private:
    struct GatherJob
    {
        std::vector<std::future<std::vector<std::int64_t>>> parts;
        std::promise<std::vector<std::int64_t>> promise;
        std::chrono::steady_clock::time_point enqueued;
        std::uint64_t trace_id = 0;
    };

    /** One replicated request under health tracking: the in-flight
     *  attempt plus everything needed to retry it on another shard. */
    struct TrackedJob
    {
        std::future<std::vector<std::int64_t>> attempt;
        std::promise<std::vector<std::int64_t>> promise;
        std::vector<std::int64_t> input; ///< copy kept for failover
        engine::SubmitOptions options;
        std::size_t shard = 0;
    };

    /** Per-shard breaker state, guarded by route_mutex_. */
    struct ShardHealth
    {
        unsigned consecutive_failures = 0;
        bool ejected = false;
        std::uint64_t failures = 0;
        std::uint64_t ejections = 0;
        std::uint64_t probes = 0;
    };

    void gatherLoop();
    void healthLoop();
    bool healthTracking() const
    {
        return options_.placement == Placement::Replicated &&
            options_.eject_after_failures > 0;
    }
    std::size_t pickShard(); ///< least-loaded, round-robin on ties
    /** Least-loaded healthy shard != @p exclude (shards_.size() =
     *  exclude nothing); occasionally a probe to an ejected shard.
     *  Returns shards_.size() when no eligible shard exists. */
    std::size_t pickShardLocked(std::size_t exclude);
    void recordOutcome(std::size_t shard, bool success);

    std::shared_ptr<const LoadedModel> model_;
    ClusterOptions options_;

    /** Partitioned sub-plans (empty for Replicated). Stable storage:
     *  backends keep pointers into it. */
    std::vector<core::LayerPlan> shard_plans_;
    std::vector<std::size_t> col_bounds_;

    std::vector<std::unique_ptr<engine::InferenceServer>> shards_;
    std::size_t round_robin_ = 0; ///< guarded by route_mutex_
    mutable std::mutex route_mutex_;

    // Breaker state, guarded by route_mutex_ (sized to shards_ when
    // health tracking is on, empty otherwise).
    std::vector<ShardHealth> health_;
    std::uint64_t probe_tick_ = 0;

    // Gather worker (partitioned placement only) and health worker
    // (replicated with breaker enabled) — mutually exclusive, so
    // they share the mutex/cv/thread slot.
    mutable std::mutex gather_mutex_;
    std::condition_variable gather_cv_;
    std::deque<GatherJob> gather_queue_;
    std::deque<TrackedJob> health_queue_;
    bool stopping_ = false;
    std::uint64_t gathered_ = 0;
    std::uint64_t gather_failed_ = 0;
    std::uint64_t gather_dropped_ = 0; ///< deadline-dropped gathers
    std::uint64_t failovers_ = 0;      ///< guarded by gather_mutex_

    /** End-to-end gather latency distribution (internally atomic). */
    obs::Histogram gather_latencies_;

    /** Process-wide registry handles (resolved at construction). */
    obs::Counter &m_failovers_;
    obs::Counter &m_failed_;
    obs::Counter &m_ejections_;
    obs::Histogram &m_gather_latency_;

    std::thread gatherer_;
    std::once_flag join_once_;
};

/**
 * Lazily-built ClusterEngines over a ModelRegistry and/or in-memory
 * plan stacks, one per served (model, version): the lookup the TCP
 * front end and the in-process client transports dispatch on.
 */
class ServingDirectory
{
  public:
    /** Clusters are built on first request with @p defaults. */
    ServingDirectory(ModelRegistry &registry,
                     const ClusterOptions &defaults);

    /**
     * Serve the in-memory @p models (LoadedModel::fromPlans stacks),
     * looked up before @p registry, which may be null. An in-memory
     * model is version 1 only and is served as its plans were built,
     * under every drain non-linearity. @p defaults must place
     * replicated whenever @p models is non-empty.
     */
    ServingDirectory(ModelRegistry *registry,
                     const ClusterOptions &defaults,
                     std::vector<std::shared_ptr<const LoadedModel>>
                         models);

    ~ServingDirectory();

    ServingDirectory(const ServingDirectory &) = delete;
    ServingDirectory &operator=(const ServingDirectory &) = delete;

    /** Why a cluster() lookup failed — typed, so the transports map
     *  it onto their error taxonomies without parsing messages. */
    enum class LookupStatus
    {
        Ok,       ///< cluster returned
        NotFound, ///< no such model/version in the registry
        Rejected, ///< model exists but cannot serve under the
                  ///< directory's policy (e.g. fewer input columns
                  ///< than partitioned shards)
    };

    /**
     * The cluster serving @p name at @p version (0 = latest) with
     * drain non-linearity @p nonlin, building it on first use.
     * Plain inference uses the default ReLU; streaming LSTM sessions
     * ask for Nonlinearity::None (gate pre-activations feed
     * sigmoids/tanh on the host, so the M×V must not rectify) — for
     * a registry model the two are distinct cache entries sharing one
     * LoadedModel's weights. Returns nullptr and sets @p error (and,
     * when given, @p status) when the lookup fails.
     */
    ClusterEngine *cluster(const std::string &name,
                           std::uint32_t version, std::string &error,
                           nn::Nonlinearity nonlin =
                               nn::Nonlinearity::ReLU,
                           LookupStatus *status = nullptr);

    /** Aggregate statistics of every live cluster as a JSON object
     *  string (the wire protocol's stats payload). */
    std::string statsJson() const;

    /** One live cluster's identity and statistics snapshot. */
    struct ClusterSnapshot
    {
        std::string model;
        std::uint32_t version = 0;
        ClusterStats stats;
    };

    /** Structured per-cluster statistics (what statsJson renders),
     *  for in-process callers that aggregate rather than print. */
    std::vector<ClusterSnapshot> statsSnapshot() const;

    /** Stop (drain) every cluster. Latches: a cluster first built
     *  after this call comes up stopped, so its submits fail with
     *  engine::ServerStopped. */
    void stopAll();

  private:
    ModelRegistry *registry_;
    ClusterOptions defaults_;
    /** Immutable after construction, so lookups scan it unlocked. */
    const std::vector<std::shared_ptr<const LoadedModel>> models_;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<ClusterEngine>> clusters_;
    bool stopped_ = false; ///< guarded by mutex_
};

} // namespace eie::serve

#endif // EIE_SERVE_CLUSTER_HH
