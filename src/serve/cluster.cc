#include "serve/cluster.hh"

#include <algorithm>
#include <sstream>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "engine/backends.hh"
#include "obs/json.hh"
#include "obs/trace.hh"

namespace eie::serve {

namespace {

/**
 * Contiguous column boundaries (shards+1 values) balancing stored
 * non-zeros: boundary s sits where the cumulative entry weight
 * crosses s/shards of the total, constrained so every shard owns at
 * least one column. Columns are weighted nnz+1 so empty columns still
 * spread instead of piling onto one shard.
 */
std::vector<std::size_t>
partitionColumns(const nn::SparseMatrix &weights, unsigned shards)
{
    const std::size_t cols = weights.cols();
    fatal_if(cols < shards,
             "cannot column-partition %zu columns over %u shards",
             cols, shards);

    std::vector<std::uint64_t> prefix(cols + 1, 0);
    for (std::size_t j = 0; j < cols; ++j)
        prefix[j + 1] = prefix[j] + weights.column(j).size() + 1;

    std::vector<std::size_t> bounds(shards + 1, 0);
    bounds[shards] = cols;
    for (unsigned s = 1; s < shards; ++s) {
        const std::uint64_t ideal =
            prefix[cols] * s / shards;
        const std::size_t lo = bounds[s - 1] + 1;
        const std::size_t hi = cols - (shards - s);
        std::size_t cut = static_cast<std::size_t>(
            std::lower_bound(prefix.begin(), prefix.end(), ideal) -
            prefix.begin());
        bounds[s] = std::clamp(cut, lo, hi);
    }
    return bounds;
}

} // namespace

Placement
placementFromName(const std::string &name)
{
    if (name == "replicated")
        return Placement::Replicated;
    if (name == "partitioned")
        return Placement::ColumnPartitioned;
    fatal("unknown placement '%s' (known: replicated, partitioned)",
          name.c_str());
    return Placement::Replicated; // unreachable: fatal() exits
}

const char *
placementName(Placement placement)
{
    return placement == Placement::Replicated ? "replicated"
                                              : "partitioned";
}

// -------------------------------------------------------- ClusterEngine

ClusterEngine::ClusterEngine(std::shared_ptr<const LoadedModel> model,
                             const ClusterOptions &options)
    : model_(std::move(model)), options_(options),
      m_failovers_(obs::processRegistry().counter(
          "eie_cluster_failovers_total")),
      m_failed_(obs::processRegistry().counter(
          "eie_cluster_failed_total")),
      m_ejections_(obs::processRegistry().counter(
          "eie_cluster_ejections_total")),
      m_gather_latency_(obs::processRegistry().histogram(
          "eie_cluster_gather_latency_us"))
{
    fatal_if(!model_, "cluster needs a model");
    fatal_if(options_.shards == 0, "cluster needs at least one shard");

    const core::EieConfig &config = model_->config();
    shards_.reserve(options_.shards);

    // Tag each shard's fault points "shard<N>" (unless the caller
    // chose a tag) so tests can inject failures into exactly one
    // replica and watch the breaker eject it.
    const auto shardServerOptions = [&](unsigned s) {
        engine::ServerOptions server = options_.server;
        if (server.fault_tag.empty())
            server.fault_tag = "shard" + std::to_string(s);
        return server;
    };

    if (options_.placement == Placement::Replicated) {
        col_bounds_ = {0, model_->inputSize()};
        const std::vector<const core::LayerPlan *> &plans =
            model_->plans();
        // "compiled" shards adopt one shared pre-decoded stack: N
        // replicas, one copy of the weights.
        std::shared_ptr<const engine::CompiledStack> stack;
        if (options_.backend == "compiled")
            stack = engine::compileLayerStack(
                config, plans,
                engine::compiledStackOptions(
                    options_.threads_per_shard, options_.kernel));
        for (unsigned s = 0; s < options_.shards; ++s) {
            std::unique_ptr<engine::ExecutionBackend> backend;
            if (stack)
                backend = std::make_unique<engine::CompiledBackend>(
                    plans, stack, options_.threads_per_shard,
                    options_.kernel);
            else
                backend = engine::makeBackend(
                    options_.backend, config, plans,
                    options_.threads_per_shard, options_.kernel);
            shards_.push_back(std::make_unique<engine::InferenceServer>(
                std::move(backend), shardServerOptions(s)));
        }
        if (healthTracking()) {
            health_.resize(shards_.size());
            gatherer_ = std::thread([this] { healthLoop(); });
        }
        return;
    }

    // Column-partitioned: one contiguous, nnz-balanced column range
    // per shard, each planned as its own sub-layer with no drain
    // non-linearity — the gather applies it after summing partials.
    col_bounds_ = partitionColumns(model_->quantized(),
                                   options_.shards);
    shard_plans_.reserve(options_.shards);
    for (unsigned s = 0; s < options_.shards; ++s) {
        const std::size_t begin = col_bounds_[s];
        const std::size_t end = col_bounds_[s + 1];
        shard_plans_.push_back(core::planLayer(
            model_->name() + "#cols" + std::to_string(begin) + "-" +
                std::to_string(end),
            model_->quantized().colSlice(begin, end),
            model_->codebook(), nn::Nonlinearity::None, config));
    }
    for (unsigned s = 0; s < options_.shards; ++s)
        shards_.push_back(std::make_unique<engine::InferenceServer>(
            engine::makeBackend(options_.backend, config,
                                {&shard_plans_[s]},
                                options_.threads_per_shard,
                                options_.kernel),
            shardServerOptions(s)));
    gatherer_ = std::thread([this] { gatherLoop(); });
}

ClusterEngine::~ClusterEngine()
{
    stop();
}

std::size_t
ClusterEngine::pickShard()
{
    std::lock_guard<std::mutex> lock(route_mutex_);
    return pickShardLocked(shards_.size());
}

std::size_t
ClusterEngine::pickShardLocked(std::size_t exclude)
{
    // Recovery probes: with ejected shards present, every Nth routing
    // decision sends one live request to a sick shard — a success
    // there is the only way back into rotation.
    if (!health_.empty() && options_.probe_interval > 0) {
        bool any_ejected = false;
        for (const ShardHealth &h : health_)
            any_ejected = any_ejected || h.ejected;
        if (any_ejected &&
            ++probe_tick_ % options_.probe_interval == 0) {
            for (std::size_t i = 0; i < shards_.size(); ++i) {
                const std::size_t at =
                    (round_robin_ + i) % shards_.size();
                if (at != exclude && health_[at].ejected) {
                    ++health_[at].probes;
                    return at;
                }
            }
        }
    }

    // Least-loaded healthy shard by live queue depth; the scan starts
    // one past the last pick so depth ties degrade to round-robin.
    // Two passes: first over healthy shards, then (when everything
    // eligible is ejected) over all of them — routing must make
    // progress even with the whole cluster sick.
    std::size_t best = shards_.size();
    std::size_t best_depth = 0;
    for (const bool ignore_health : {false, true}) {
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const std::size_t at = (round_robin_ + i) % shards_.size();
            if (at == exclude)
                continue;
            if (!ignore_health && !health_.empty() &&
                health_[at].ejected)
                continue;
            const std::size_t depth = shards_[at]->queueDepth();
            if (best == shards_.size() || depth < best_depth) {
                best = at;
                best_depth = depth;
            }
        }
        if (best != shards_.size())
            break;
    }
    if (best != shards_.size())
        round_robin_ = best + 1;
    return best;
}

void
ClusterEngine::recordOutcome(std::size_t shard, bool success)
{
    std::lock_guard<std::mutex> lock(route_mutex_);
    if (health_.empty())
        return;
    ShardHealth &health = health_[shard];
    if (success) {
        health.consecutive_failures = 0;
        if (health.ejected) {
            health.ejected = false;
            inform("shard %zu recovered; back in rotation", shard);
        }
        return;
    }
    ++health.failures;
    if (++health.consecutive_failures >=
            options_.eject_after_failures &&
        !health.ejected) {
        health.ejected = true;
        ++health.ejections;
        m_ejections_.add();
        warn("shard %zu ejected after %u consecutive failures",
             shard, health.consecutive_failures);
    }
}

std::future<std::vector<std::int64_t>>
ClusterEngine::submit(std::vector<std::int64_t> input_raw,
                      const engine::SubmitOptions &options)
{
    fatal_if(input_raw.size() != inputSize(),
             "input length %zu != model input size %zu",
             input_raw.size(), inputSize());
    {
        std::lock_guard<std::mutex> lock(gather_mutex_);
        if (stopping_) {
            std::promise<std::vector<std::int64_t>> promise;
            promise.set_exception(
                std::make_exception_ptr(engine::ServerStopped{}));
            return promise.get_future();
        }
    }

    if (options_.placement == Placement::Replicated) {
        const std::size_t shard = pickShard();
        if (options.trace_id != 0) {
            const double now_us = obs::traceNowUs();
            obs::processTraceRing().record(
                options.trace_id, "shard_submit", "cluster", now_us,
                now_us, "shard=" + std::to_string(shard));
        }
        if (!healthTracking())
            return shards_[shard]->submit(std::move(input_raw),
                                          options);

        // With the breaker on, the health worker interposes on every
        // outcome: it scores the shard, and fails a sick replica's
        // request over to a healthy one once before reporting.
        TrackedJob job;
        job.input = input_raw; // failover copy
        job.options = options;
        job.shard = shard;
        job.attempt =
            shards_[shard]->submit(std::move(input_raw), options);
        std::future<std::vector<std::int64_t>> future =
            job.promise.get_future();
        {
            std::lock_guard<std::mutex> lock(gather_mutex_);
            if (stopping_) {
                job.promise.set_exception(
                    std::make_exception_ptr(engine::ServerStopped{}));
                return future;
            }
            health_queue_.push_back(std::move(job));
        }
        gather_cv_.notify_all();
        return future;
    }

    // Scatter: each shard sees only its owned input columns.
    GatherJob job;
    job.enqueued = std::chrono::steady_clock::now();
    job.trace_id = options.trace_id;
    if (options.trace_id != 0) {
        const double now_us = obs::traceTimeUs(job.enqueued);
        obs::processTraceRing().record(
            options.trace_id, "shard_submit", "cluster", now_us,
            now_us, "scatter=" + std::to_string(shards_.size()));
    }
    job.parts.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
        job.parts.push_back(shards_[s]->submit(
            std::vector<std::int64_t>(
                input_raw.begin() +
                    static_cast<std::ptrdiff_t>(col_bounds_[s]),
                input_raw.begin() +
                    static_cast<std::ptrdiff_t>(col_bounds_[s + 1])),
            options));
    std::future<std::vector<std::int64_t>> future =
        job.promise.get_future();
    {
        std::lock_guard<std::mutex> lock(gather_mutex_);
        if (stopping_) {
            // stop() may have slipped in since the check above; a job
            // enqueued now would never be gathered (the worker exits
            // once stopping_ and drained), so fail it instead.
            job.promise.set_exception(
                std::make_exception_ptr(engine::ServerStopped{}));
            return future;
        }
        gather_queue_.push_back(std::move(job));
    }
    gather_cv_.notify_all();
    return future;
}

std::vector<std::int64_t>
ClusterEngine::infer(std::vector<std::int64_t> input_raw)
{
    return submit(std::move(input_raw)).get();
}

void
ClusterEngine::gatherLoop()
{
    const FixedFormat acc_fmt = model_->config().act_format;
    for (;;) {
        GatherJob job;
        {
            std::unique_lock<std::mutex> lock(gather_mutex_);
            gather_cv_.wait(lock, [this] {
                return stopping_ || !gather_queue_.empty();
            });
            if (gather_queue_.empty())
                return; // stopping_ and drained
            job = std::move(gather_queue_.front());
            gather_queue_.pop_front();
        }

        try {
            // Reduce in ascending column order: with per-MAC
            // saturation never engaged this equals the oracle's
            // sequential accumulation (see the header's caveat).
            std::vector<std::int64_t> acc(outputSize(), 0);
            for (auto &part : job.parts) {
                const std::vector<std::int64_t> partial = part.get();
                panic_if(partial.size() != acc.size(),
                         "shard partial size %zu != output size %zu",
                         partial.size(), acc.size());
                for (std::size_t r = 0; r < acc.size(); ++r)
                    acc[r] =
                        saturateRaw(acc[r] + partial[r], acc_fmt);
            }
            switch (model_->nonlin()) {
              case nn::Nonlinearity::ReLU:
                for (std::int64_t &value : acc)
                    value = reluRaw(value);
                break;
              case nn::Nonlinearity::None:
                break;
              default:
                panic("cluster gather supports ReLU or None only");
            }

            const auto gather_end = std::chrono::steady_clock::now();
            const double latency_us =
                std::chrono::duration<double, std::micro>(
                    gather_end - job.enqueued)
                    .count();
            gather_latencies_.record(latency_us);
            m_gather_latency_.record(latency_us);
            {
                std::lock_guard<std::mutex> lock(gather_mutex_);
                ++gathered_;
            }
            if (job.trace_id != 0)
                obs::processTraceRing().record(
                    job.trace_id, "gather", "cluster",
                    obs::traceTimeUs(job.enqueued),
                    obs::traceTimeUs(gather_end),
                    "parts=" + std::to_string(job.parts.size()));
            job.promise.set_value(std::move(acc));
        } catch (const engine::DeadlineExpired &) {
            // One request dropped on a shard is one dropped gather —
            // counted here so the cluster reports client requests,
            // not per-shard sub-requests.
            {
                std::lock_guard<std::mutex> lock(gather_mutex_);
                ++gather_dropped_;
            }
            job.promise.set_exception(std::current_exception());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(gather_mutex_);
                ++gather_failed_;
            }
            m_failed_.add();
            job.promise.set_exception(std::current_exception());
        }
    }
}

void
ClusterEngine::healthLoop()
{
    for (;;) {
        TrackedJob job;
        {
            std::unique_lock<std::mutex> lock(gather_mutex_);
            gather_cv_.wait(lock, [this] {
                return stopping_ || !health_queue_.empty();
            });
            if (health_queue_.empty())
                return; // stopping_ and drained
            job = std::move(health_queue_.front());
            health_queue_.pop_front();
        }

        std::exception_ptr error;
        try {
            job.promise.set_value(job.attempt.get());
            recordOutcome(job.shard, true);
            continue;
        } catch (const engine::DeadlineExpired &) {
            // A deadline drop says "too slow under this load", not
            // "sick": it neither scores the shard nor fails over.
            job.promise.set_exception(std::current_exception());
            continue;
        } catch (const engine::ServerOverloaded &) {
            // Shedding is admission control doing its job; rerouting
            // a shed would defeat it (the other replicas are at
            // least as loaded — routing is least-loaded).
            job.promise.set_exception(std::current_exception());
            continue;
        } catch (...) {
            error = std::current_exception();
        }

        {
            // During shutdown every queued request collapses to
            // ServerStopped; scoring that would eject shards (and
            // warn) over a clean stop.
            std::lock_guard<std::mutex> lock(gather_mutex_);
            if (stopping_) {
                job.promise.set_exception(error);
                continue;
            }
        }
        recordOutcome(job.shard, false);

        // Failover: one more attempt, on the best shard that is not
        // the one that just failed. Sequential (the worker waits for
        // it) — failures are the rare path.
        std::size_t other = shards_.size();
        {
            std::lock_guard<std::mutex> lock(route_mutex_);
            other = pickShardLocked(job.shard);
        }
        if (other == shards_.size()) {
            job.promise.set_exception(error);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(gather_mutex_);
            ++failovers_;
        }
        m_failovers_.add();
        try {
            job.promise.set_value(
                shards_[other]->submit(job.input, job.options).get());
            recordOutcome(other, true);
        } catch (const engine::DeadlineExpired &) {
            job.promise.set_exception(std::current_exception());
        } catch (const engine::ServerOverloaded &) {
            job.promise.set_exception(std::current_exception());
        } catch (...) {
            recordOutcome(other, false);
            job.promise.set_exception(std::current_exception());
        }
    }
}

void
ClusterEngine::stop()
{
    {
        std::lock_guard<std::mutex> lock(gather_mutex_);
        stopping_ = true;
    }
    gather_cv_.notify_all();
    // Draining the shards completes every scattered part, which in
    // turn unblocks the gather worker's pending jobs.
    for (auto &shard : shards_)
        shard->stop();
    std::call_once(join_once_, [this] {
        if (gatherer_.joinable())
            gatherer_.join();
    });
}

ClusterStats
ClusterEngine::stats() const
{
    ClusterStats stats;
    stats.shards.reserve(shards_.size());

    std::vector<ShardHealth> health;
    {
        std::lock_guard<std::mutex> lock(route_mutex_);
        health = health_;
    }
    {
        std::lock_guard<std::mutex> lock(gather_mutex_);
        stats.failovers = failovers_;
    }

    std::uint64_t shard_requests = 0;
    std::uint64_t shard_batches = 0;
    obs::HistogramSnapshot latency;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        ShardStats shard;
        shard.server = shards_[s]->stats();
        shard.queue_depth = shards_[s]->queueDepth();
        stats.requests_shed += shard.server.requests_shed;
        if (s < health.size()) {
            shard.ejected = health[s].ejected;
            shard.failures = health[s].failures;
            shard.ejections = health[s].ejections;
            shard.probes = health[s].probes;
            if (shard.ejected)
                ++stats.shards_ejected;
        }
        if (options_.placement == Placement::Replicated) {
            shard.col_begin = col_bounds_.front();
            shard.col_end = col_bounds_.back();
            // Merging histograms combines the shard distributions
            // exactly (bucket-wise) — unlike averaging the shards'
            // already-computed percentiles.
            latency.merge(shard.server.latency);
        } else {
            shard.col_begin = col_bounds_[s];
            shard.col_end = col_bounds_[s + 1];
        }
        shard_requests += shard.server.requests;
        shard_batches += shard.server.batches;
        // Replicated: one client request = one shard request, so the
        // shard sum is the cluster count. Partitioned shards each see
        // every request; drops are counted at the gather instead.
        if (options_.placement == Placement::Replicated)
            stats.dropped_deadline += shard.server.dropped_deadline;
        stats.shards.push_back(std::move(shard));
    }
    for (ShardStats &shard : stats.shards)
        shard.utilization = shard_requests
            ? static_cast<double>(shard.server.requests) /
                static_cast<double>(shard_requests)
            : 0.0;
    stats.mean_batch = shard_batches
        ? static_cast<double>(shard_requests) /
            static_cast<double>(shard_batches)
        : 0.0;

    if (options_.placement == Placement::Replicated) {
        stats.requests = shard_requests;
    } else {
        {
            std::lock_guard<std::mutex> lock(gather_mutex_);
            stats.requests = gathered_;
            stats.failed = gather_failed_;
            stats.dropped_deadline = gather_dropped_;
        }
        latency = gather_latencies_.snapshot();
    }
    stats.latency = latency;
    const obs::LatencySummary summary = latency.summary();
    stats.p50_latency_us = summary.p50;
    stats.p95_latency_us = summary.p95;
    stats.p99_latency_us = summary.p99;
    stats.p999_latency_us = summary.p999;
    stats.max_latency_us = summary.max;
    return stats;
}

std::vector<engine::LayerDispatchStats>
mergeLayerDispatch(const std::vector<ShardStats> &shards)
{
    std::vector<engine::LayerDispatchStats> merged;
    for (const ShardStats &shard : shards) {
        if (merged.size() < shard.server.layers.size())
            merged.resize(shard.server.layers.size());
        for (std::size_t i = 0; i < shard.server.layers.size(); ++i) {
            const engine::LayerDispatchStats &in =
                shard.server.layers[i];
            engine::LayerDispatchStats &out = merged[i];
            out.layer = in.layer;
            if (!in.kernel.empty()) {
                out.kernel = in.kernel;
                out.last_act_density = in.last_act_density;
            }
            // Shards share one compiled stack, so the footprint is a
            // per-layer fact, not a per-shard sum: last reporting
            // shard wins.
            if (in.resident_bytes > 0)
                out.resident_bytes = in.resident_bytes;
            if (in.sweeps > 0) {
                const double total = out.mean_act_density *
                        static_cast<double>(out.sweeps) +
                    in.mean_act_density *
                        static_cast<double>(in.sweeps);
                out.sweeps += in.sweeps;
                out.mean_act_density =
                    total / static_cast<double>(out.sweeps);
            }
        }
    }
    return merged;
}

// ----------------------------------------------------- ServingDirectory

ServingDirectory::ServingDirectory(ModelRegistry &registry,
                                   const ClusterOptions &defaults)
    : ServingDirectory(&registry, defaults, {})
{}

ServingDirectory::ServingDirectory(
    ModelRegistry *registry, const ClusterOptions &defaults,
    std::vector<std::shared_ptr<const LoadedModel>> models)
    : registry_(registry), defaults_(defaults), models_(std::move(models))
{
    fatal_if(!models_.empty() &&
                 defaults_.placement != Placement::Replicated,
             "in-memory models are served replicated only");
}

ServingDirectory::~ServingDirectory()
{
    stopAll();
}

ClusterEngine *
ServingDirectory::cluster(const std::string &name,
                          std::uint32_t version, std::string &error,
                          nn::Nonlinearity nonlin,
                          LookupStatus *status)
{
    const auto fail = [&](LookupStatus kind, std::string message) {
        error = std::move(message);
        if (status != nullptr)
            *status = kind;
        return nullptr;
    };

    std::shared_ptr<const LoadedModel> model;
    std::string key;
    const auto local = std::find_if(
        models_.begin(), models_.end(),
        [&](const auto &candidate) { return candidate->name() == name; });
    if (local != models_.end()) {
        if (version > 1)
            return fail(LookupStatus::NotFound,
                        "in-memory model '" + name +
                            "' has no version " +
                            std::to_string(version));
        model = *local;
        // One cluster under every non-linearity: the stack's plans
        // already fix their drains. ':' never occurs in registry keys.
        key = "mem:" + name;
    } else if (registry_ == nullptr) {
        return fail(LookupStatus::NotFound,
                    "model '" + name +
                        "' not found (no in-memory model of that name "
                        "and no registry configured)");
    } else {
        LoadError load_error = LoadError::None;
        std::string load_detail;
        model = registry_->load(name, version, nonlin, &load_error,
                                &load_detail);
        if (!model) {
            // Corrupt is not NotFound: the model is published but its
            // file is unreadable (truncated, bad checksum...), so tell
            // the caller something is wrong server-side rather than
            // inviting a doomed republish-and-retry loop.
            if (load_error == LoadError::Corrupt)
                return fail(LookupStatus::Rejected,
                            "model '" + name + "' is unreadable: " +
                                load_detail);
            return fail(LookupStatus::NotFound,
                        "model '" + name + "'" +
                            (version ? " version " +
                                     std::to_string(version)
                                     : "") +
                            " not found in registry");
        }
        // Nonlinearity is part of the identity: an LSTM session's
        // None cluster must never alias the default ReLU inference
        // cluster.
        key = model->name() + "@" + std::to_string(model->version()) +
            "#" + std::to_string(static_cast<int>(nonlin));
    }
    // Preflight what ClusterEngine's constructor would fatal() on: a
    // client request must never be able to take the daemon down.
    if (defaults_.placement == Placement::ColumnPartitioned &&
        model->inputSize() < defaults_.shards)
        return fail(LookupStatus::Rejected,
                    "model '" + model->name() + "' has " +
                        std::to_string(model->inputSize()) +
                        " input columns, fewer than the " +
                        std::to_string(defaults_.shards) +
                        " partitioned shards");
    if (status != nullptr)
        *status = LookupStatus::Ok;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = clusters_.find(key);
        if (it != clusters_.end())
            return it->second.get();
    }

    // Build outside the lock: planning the column slices and
    // compiling N shard backends must not stall requests for models
    // that are already serving. A racing build of the same model
    // wastes one engine; the first insert wins and the loser is
    // stopped outside the lock.
    auto built = std::make_unique<ClusterEngine>(model, defaults_);
    ClusterEngine *result = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = clusters_.find(key);
        if (it == clusters_.end()) {
            // A first lookup racing stopAll() must not serve.
            if (stopped_)
                built->stop();
            it = clusters_.emplace(key, std::move(built)).first;
        }
        result = it->second.get();
    }
    return result; // a losing `built` drains its shards here
}

std::string
ServingDirectory::statsJson() const
{
    obs::JsonWriter w;
    w.beginObject().key("clusters").beginArray();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, cluster] : clusters_) {
        const ClusterStats stats = cluster->stats();
        w.beginObject()
            .field("model", cluster->model().name())
            .field("version",
                   std::uint64_t{cluster->model().version()})
            .field("placement",
                   placementName(cluster->options().placement))
            .field("backend", cluster->options().backend)
            .field("kernel",
                   core::kernel::kernelVariantName(
                       cluster->options().kernel))
            .field("shards", std::uint64_t{cluster->shardCount()})
            .field("requests", stats.requests)
            .field("dropped_deadline", stats.dropped_deadline)
            .field("failed", stats.failed)
            .field("requests_shed", stats.requests_shed)
            .field("failovers", stats.failovers)
            .field("shards_ejected", stats.shards_ejected)
            .field("mean_batch", stats.mean_batch)
            .field("p50_latency_us", stats.p50_latency_us)
            .field("p95_latency_us", stats.p95_latency_us)
            .field("p99_latency_us", stats.p99_latency_us)
            .field("p999_latency_us", stats.p999_latency_us);
        w.key("layers").beginArray();
        for (const engine::LayerDispatchStats &layer :
             mergeLayerDispatch(stats.shards)) {
            w.beginObject()
                .field("layer", layer.layer)
                .field("kernel", layer.kernel)
                .field("act_density", layer.last_act_density)
                .field("mean_act_density", layer.mean_act_density)
                .field("sweeps", layer.sweeps)
                .field("resident_bytes", layer.resident_bytes)
                .endObject();
        }
        w.endArray();
        w.key("shard_stats").beginArray();
        for (const ShardStats &shard : stats.shards) {
            w.beginObject()
                .field("requests", shard.server.requests)
                .field("queue_depth",
                       std::uint64_t{shard.queue_depth})
                .field("utilization", shard.utilization)
                .field("shed", shard.server.requests_shed)
                .field("forming_delay_us",
                       shard.server.forming_delay_us)
                .field("health",
                       shard.ejected ? "ejected" : "healthy")
                .field("failures", shard.failures)
                .field("col_begin", std::uint64_t{shard.col_begin})
                .field("col_end", std::uint64_t{shard.col_end})
                .endObject();
        }
        w.endArray().endObject();
    }
    w.endArray().endObject();
    return w.str();
}

std::vector<ServingDirectory::ClusterSnapshot>
ServingDirectory::statsSnapshot() const
{
    std::vector<ClusterSnapshot> snapshots;
    std::lock_guard<std::mutex> lock(mutex_);
    snapshots.reserve(clusters_.size());
    for (const auto &[key, cluster] : clusters_)
        snapshots.push_back({cluster->model().name(),
                             cluster->model().version(),
                             cluster->stats()});
    return snapshots;
}

void
ServingDirectory::stopAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    for (auto &[key, cluster] : clusters_)
        cluster->stop();
}

} // namespace eie::serve
