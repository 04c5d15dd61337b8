#include "engine/server.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/faultpoint.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace eie::engine {

const char *
DeadlineExpired::what() const noexcept
{
    return "request deadline expired before execution";
}

const char *
ServerStopped::what() const noexcept
{
    return "request submitted to a stopped InferenceServer";
}

const char *
ServerOverloaded::what() const noexcept
{
    return "request shed: server queue is full";
}

std::vector<double>
openLoopArrivals(std::size_t count, double rate_per_sec, Rng &rng)
{
    std::vector<double> arrivals(count, 0.0);
    if (rate_per_sec <= 0.0)
        return arrivals;
    double clock_s = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        // Clamp the uniform draw away from 1.0: log(0) would make
        // this arrival (and every later one) infinitely late.
        const double u =
            std::min(rng.uniformReal(0.0, 1.0), 1.0 - 1e-12);
        clock_s += -std::log(1.0 - u) / rate_per_sec;
        arrivals[i] = clock_s;
    }
    return arrivals;
}

namespace detail {

FormedBatch
formBatch(std::deque<Pending> &queue, std::size_t max_batch,
          std::chrono::steady_clock::time_point now)
{
    FormedBatch formed;

    // Expired requests never reach the backend, drained or not.
    std::deque<Pending> live;
    for (Pending &pending : queue) {
        if (pending.deadline <= now)
            formed.dropped.push_back(std::move(pending));
        else
            live.push_back(std::move(pending));
    }
    queue.swap(live);
    if (queue.empty())
        return formed;

    // Stable selection by descending priority: order[] is arrival
    // order, so equal priorities keep FIFO semantics.
    std::vector<std::size_t> order(queue.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&queue](std::size_t a, std::size_t b) {
                         return queue[a].priority > queue[b].priority;
                     });
    const std::size_t take = std::min(queue.size(), max_batch);
    std::vector<bool> taken(queue.size(), false);
    formed.batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
        taken[order[i]] = true;
        formed.batch.push_back(std::move(queue[order[i]]));
    }
    std::deque<Pending> rest;
    for (std::size_t i = 0; i < queue.size(); ++i)
        if (!taken[i])
            rest.push_back(std::move(queue[i]));
    queue.swap(rest);
    return formed;
}

} // namespace detail

namespace {

/** Fail a request's future with the deadline-drop error. */
void
failDropped(detail::Pending &pending)
{
    pending.promise.set_exception(
        std::make_exception_ptr(DeadlineExpired{}));
}

} // namespace

InferenceServer::InferenceServer(
    std::unique_ptr<ExecutionBackend> backend,
    const ServerOptions &options)
    : backend_(std::move(backend)), options_(options),
      m_requests_(obs::processRegistry().counter(
          "eie_server_requests_total")),
      m_batches_(obs::processRegistry().counter(
          "eie_server_batches_total")),
      m_dropped_deadline_(obs::processRegistry().counter(
          "eie_server_dropped_deadline_total")),
      m_shed_(obs::processRegistry().counter(
          "eie_server_shed_total")),
      m_latency_(obs::processRegistry().histogram(
          "eie_server_latency_us")),
      m_queue_depth_(obs::processRegistry().gauge(
          "eie_server_queue_depth")),
      m_forming_delay_(obs::processRegistry().gauge(
          "eie_server_forming_delay_us"))
{
    fatal_if(!backend_, "server needs a backend");
    fatal_if(options_.max_batch == 0, "max_batch must be >= 1");
    // The adaptive window lives in [min_delay, max_delay]; it starts
    // at max_delay (the fixed-window behavior) and only shrinks once
    // sweeps are observed running nearly empty.
    options_.min_delay = std::min(options_.min_delay,
                                  options_.max_delay);
    forming_delay_ = options_.max_delay;
    batcher_ = std::thread([this] { batcherLoop(); });
}

InferenceServer::~InferenceServer()
{
    stop();
}

std::future<std::vector<std::int64_t>>
InferenceServer::submit(std::vector<std::int64_t> input_raw,
                        const SubmitOptions &options)
{
    fatal_if(input_raw.size() != backend_->inputSize(),
             "input length %zu != network input size %zu",
             input_raw.size(), backend_->inputSize());

    detail::Pending pending;
    pending.input = std::move(input_raw);
    pending.enqueued = std::chrono::steady_clock::now();
    if (options.deadline.count() > 0)
        pending.deadline = pending.enqueued + options.deadline;
    pending.priority = options.priority;
    pending.trace_id = options.trace_id;
    std::future<std::vector<std::int64_t>> future =
        pending.promise.get_future();

    if (fault::fire("shard.submit_fail", options_.fault_tag)) {
        pending.promise.set_exception(std::make_exception_ptr(
            std::runtime_error("injected fault: shard.submit_fail")));
        return future;
    }

    bool shed_newcomer = false;
    detail::Pending evicted;
    bool have_evicted = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            // A cluster tearing down races its clients' last submits;
            // that is a per-request failure, not a process error.
            pending.promise.set_exception(
                std::make_exception_ptr(ServerStopped{}));
            return future;
        }
        if (options_.max_queue > 0 &&
            queue_.size() >= options_.max_queue) {
            if (options_.shed_policy ==
                ShedPolicy::EvictLowestPriority) {
                // Oldest request at the lowest priority level loses
                // its slot — but only to a strictly higher-priority
                // newcomer, so equal-priority traffic stays FIFO.
                auto victim = queue_.begin();
                for (auto it = queue_.begin(); it != queue_.end();
                     ++it)
                    if (it->priority < victim->priority)
                        victim = it;
                if (victim->priority < pending.priority) {
                    evicted = std::move(*victim);
                    queue_.erase(victim);
                    have_evicted = true;
                } else {
                    shed_newcomer = true;
                }
            } else {
                shed_newcomer = true;
            }
        }
        if (!shed_newcomer && options_.max_queue > 0 &&
            options_.shed_infeasible_deadlines &&
            pending.deadline !=
                std::chrono::steady_clock::time_point::max()) {
            // Every max_batch requests ahead cost up to one forming
            // window; a deadline inside that estimate would only be
            // admitted to expire in the queue — shed it now instead
            // so the client learns "overloaded", not "too late".
            const auto sweeps = queue_.size() / options_.max_batch + 1;
            const auto earliest_done = pending.enqueued +
                sweeps * options_.max_delay;
            if (pending.deadline < earliest_done)
                shed_newcomer = true;
        }
        const std::uint64_t shed_now = (shed_newcomer ? 1u : 0u) +
            (have_evicted ? 1u : 0u);
        requests_shed_ += shed_now;
        if (shed_now > 0)
            m_shed_.add(shed_now);
        if (!shed_newcomer) {
            queue_.push_back(std::move(pending));
            max_queue_depth_ =
                std::max(max_queue_depth_, queue_.size());
        }
        m_queue_depth_.set(static_cast<double>(queue_.size()));
    }
    // Fail shed requests outside the lock: set_exception wakes waiters.
    if (shed_newcomer)
        pending.promise.set_exception(
            std::make_exception_ptr(ServerOverloaded{}));
    if (have_evicted)
        evicted.promise.set_exception(
            std::make_exception_ptr(ServerOverloaded{}));
    if (!shed_newcomer)
        work_cv_.notify_all();
    return future;
}

std::vector<std::int64_t>
InferenceServer::infer(std::vector<std::int64_t> input_raw)
{
    return submit(std::move(input_raw)).get();
}

std::chrono::steady_clock::time_point
InferenceServer::nextWakeup() const
{
    auto wake = queue_.front().enqueued + forming_delay_;
    for (const detail::Pending &pending : queue_)
        wake = std::min(wake, pending.deadline);
    return wake;
}

void
InferenceServer::batcherLoop()
{
    for (;;) {
        detail::FormedBatch formed;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ and drained: done.
                break;
            }

            // Deadline- and size-bounded forming: hold the oldest
            // request until the batch fills or its forming deadline
            // (max_delay) passes. A queued request's own deadline
            // wakes the batcher early so it is dropped promptly —
            // but a drop must only drop, never cut the forming wait
            // short for the still-live requests.
            for (;;) {
                const auto now = std::chrono::steady_clock::now();
                std::deque<detail::Pending> live;
                for (detail::Pending &pending : queue_) {
                    if (pending.deadline <= now)
                        formed.dropped.push_back(std::move(pending));
                    else
                        live.push_back(std::move(pending));
                }
                queue_.swap(live);
                if (stopping_ || queue_.empty() ||
                    queue_.size() >= options_.max_batch)
                    break;
                if (queue_.front().enqueued + forming_delay_ <= now)
                    break;
                // Re-arm when a newly submitted request carries an
                // earlier deadline than this wait was computed for:
                // submit() notifies, and nextWakeup() moving earlier
                // pops the wait so the next pass drops on time.
                const auto wake = nextWakeup();
                work_cv_.wait_until(lock, wake, [this, wake] {
                    return stopping_ ||
                        queue_.size() >= options_.max_batch ||
                        nextWakeup() < wake;
                });
            }

            detail::FormedBatch selected = detail::formBatch(
                queue_, options_.max_batch,
                std::chrono::steady_clock::now());
            formed.batch = std::move(selected.batch);
            for (detail::Pending &pending : selected.dropped)
                formed.dropped.push_back(std::move(pending));
            dropped_deadline_ += formed.dropped.size();
            if (!formed.dropped.empty())
                m_dropped_deadline_.add(formed.dropped.size());
            m_queue_depth_.set(static_cast<double>(queue_.size()));
        }
        // Fail drops outside the lock: set_exception wakes waiters.
        for (detail::Pending &pending : formed.dropped)
            failDropped(pending);
        if (formed.batch.empty())
            continue;

        if (fault::fire("batcher.stall", options_.fault_tag)) {
            // A wedged backend from the queue's point of view:
            // requests keep their deadlines ticking while nothing
            // drains. Long enough to expire test deadlines, short
            // enough to keep the suite fast.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }

        // Execute outside the lock: submitters keep enqueuing while
        // the backend sweeps this batch.
        // Nothing reads a request's input after this, so move it.
        core::kernel::Batch inputs;
        inputs.reserve(formed.batch.size());
        for (detail::Pending &pending : formed.batch)
            inputs.push_back(std::move(pending.input));
        const auto form_time = std::chrono::steady_clock::now();
        RunReport report = backend_->runBatch(inputs);

        // Record the batch BEFORE fulfilling the promises: a client
        // that just observed its future resolve must find its request
        // reflected in stats().
        const auto now = std::chrono::steady_clock::now();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            completed_ += formed.batch.size();
            ++batches_;
            m_requests_.add(formed.batch.size());
            m_batches_.add();
            for (const detail::Pending &pending : formed.batch) {
                const double latency_us =
                    std::chrono::duration<double, std::micro>(
                        now - pending.enqueued)
                        .count();
                latencies_.record(latency_us);
                m_latency_.record(latency_us);
            }
            // Adapt the forming window to the observed queue depth:
            // a sweep that ran nearly empty means traffic is
            // sequential (an LSTM session stepping frame by frame)
            // and the wait bought nothing — halve it; a full sweep
            // means a burst is coalescing — double it back. The
            // window never leaves [min_delay, max_delay], so it can
            // only shorten queue waits relative to the fixed window.
            if (options_.adaptive_delay) {
                if (formed.batch.size() >= options_.max_batch)
                    forming_delay_ = std::min(options_.max_delay,
                                              forming_delay_ * 2);
                else if (formed.batch.size() <= 1)
                    forming_delay_ = std::max(options_.min_delay,
                                              forming_delay_ / 2);
            }
            m_forming_delay_.set(
                std::chrono::duration<double, std::micro>(
                    forming_delay_)
                    .count());
            // Fold the sweep's per-layer dispatch decisions into the
            // running stats (layer set is fixed per backend).
            if (layer_dispatch_.size() != report.dispatch.size())
                layer_dispatch_.assign(report.dispatch.size(), {});
            for (std::size_t i = 0; i < report.dispatch.size(); ++i) {
                const LayerDispatch &d = report.dispatch[i];
                LayerDispatchStats &s = layer_dispatch_[i];
                s.layer = d.layer;
                s.kernel = d.kernel;
                s.last_act_density = d.act_density;
                s.resident_bytes = d.resident_bytes;
                if (d.act_density >= 0.0) {
                    ++s.sweeps;
                    s.mean_act_density +=
                        (d.act_density - s.mean_act_density) /
                        static_cast<double>(s.sweeps);
                }
                // Process-wide dispatch mix. Per-sweep (not
                // per-request) registry lookups: noise next to the
                // kernel sweep they describe.
                if (!d.kernel.empty())
                    obs::processRegistry()
                        .counter("eie_kernel_dispatch_total_"
                                 + d.kernel)
                        .add();
                if (d.act_density >= 0.0 && !d.layer.empty())
                    obs::processRegistry()
                        .gauge("eie_kernel_act_density_" + d.layer)
                        .set(d.act_density);
            }
        }
        // Traced requests drop their spans before the promises
        // resolve, so a client that sees its future complete finds
        // the full span set in the ring.
        bool any_traced = false;
        for (const detail::Pending &pending : formed.batch)
            if (pending.trace_id != 0) {
                any_traced = true;
                break;
            }
        if (any_traced) {
            obs::SpanRing &ring = obs::processTraceRing();
            const double form_us = obs::traceTimeUs(form_time);
            const double kernel_us = obs::traceTimeUs(now);
            const double reply_us = obs::traceNowUs();
            const std::string batch_arg =
                "batch=" + std::to_string(formed.batch.size());
            for (const detail::Pending &pending : formed.batch) {
                if (pending.trace_id == 0)
                    continue;
                const double enq_us =
                    obs::traceTimeUs(pending.enqueued);
                ring.record(pending.trace_id, "enqueue", "server",
                            enq_us, enq_us);
                ring.record(pending.trace_id, "batch_form",
                            "server", enq_us, form_us, batch_arg);
                ring.record(pending.trace_id, "kernel_run",
                            "server", form_us, kernel_us);
                ring.record(pending.trace_id, "reply", "server",
                            kernel_us, reply_us);
            }
        }
        for (std::size_t i = 0; i < formed.batch.size(); ++i)
            formed.batch[i].promise.set_value(
                std::move(report.outputs[i]));
    }

    // Defensive: the drain above completes everything that was queued
    // when stop() ran, so this is normally empty — but no future may
    // ever be abandoned, whatever the exit path.
    std::deque<detail::Pending> leftovers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        leftovers.swap(queue_);
    }
    for (detail::Pending &pending : leftovers)
        pending.promise.set_exception(
            std::make_exception_ptr(ServerStopped{}));
}

void
InferenceServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    // call_once makes concurrent stop() (e.g. an explicit stop racing
    // the destructor) safe: exactly one caller joins, the others
    // block until the drain has finished.
    std::call_once(join_once_, [this] {
        if (batcher_.joinable())
            batcher_.join();
    });
}

std::size_t
InferenceServer::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

obs::HistogramSnapshot
InferenceServer::latencyHistogramSnapshot() const
{
    // The histogram is internally atomic; no server lock needed.
    return latencies_.snapshot();
}

ServerStats
InferenceServer::stats() const
{
    ServerStats stats;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats.requests = completed_;
        stats.batches = batches_;
        stats.dropped_deadline = dropped_deadline_;
        stats.requests_shed = requests_shed_;
        stats.max_queue_depth = max_queue_depth_;
        stats.forming_delay_us =
            std::chrono::duration<double, std::micro>(forming_delay_)
                .count();
        stats.layers = layer_dispatch_;
    }
    stats.mean_batch = stats.batches
        ? static_cast<double>(stats.requests) /
            static_cast<double>(stats.batches)
        : 0.0;
    stats.latency = latencies_.snapshot();
    const obs::LatencySummary summary = stats.latency.summary();
    stats.p50_latency_us = summary.p50;
    stats.p95_latency_us = summary.p95;
    stats.p99_latency_us = summary.p99;
    stats.p999_latency_us = summary.p999;
    stats.max_latency_us = summary.max;
    return stats;
}

} // namespace eie::engine
