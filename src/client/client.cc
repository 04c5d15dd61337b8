#include "client/client.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "core/kernel/variant.hh"
#include "engine/lstm_session.hh"
#include "gateway/http.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"

namespace eie::client {

namespace detail {

/** One frame's outcome as it crosses a transport boundary. */
struct FrameResult
{
    Status status;
    std::vector<std::int64_t> output;
};

/** Map the engine's future exceptions onto the Status taxonomy. */
Status
statusFromException(std::exception_ptr exception)
{
    try {
        std::rethrow_exception(std::move(exception));
    } catch (const engine::DeadlineExpired &error) {
        return Status::error(StatusCode::DeadlineExpired,
                             error.what());
    } catch (const engine::ServerStopped &error) {
        return Status::error(StatusCode::Unavailable, error.what());
    } catch (const engine::ServerOverloaded &error) {
        // Admission control shed the request: the server is healthy
        // but saturated — the canonical retry-after-backoff signal.
        return Status::error(StatusCode::Unavailable, error.what());
    } catch (const std::invalid_argument &error) {
        return Status::error(StatusCode::InvalidArgument,
                             error.what());
    } catch (const std::exception &error) {
        return Status::error(StatusCode::Internal, error.what());
    }
}

/**
 * A no-throw frame future supporting deadline-bounded waits (which
 * std::async's deferred futures cannot: wait_until() on them returns
 * without running the task). Wraps either an immediately-known
 * result or a promise-backed future plus a mapper onto FrameResult;
 * the mapping runs on the waiter's thread at take() time.
 */
class FrameFuture
{
  public:
    FrameFuture() = default;

    /** An already-resolved frame (validation failures). */
    static FrameFuture
    ready(Status status)
    {
        FrameFuture f;
        f.immediate_ = FrameResult{std::move(status), {}};
        return f;
    }

    /** Wrap an engine future (reports failure by throwing on get). */
    static FrameFuture
    ofEngine(std::future<std::vector<std::int64_t>> future)
    {
        auto shared = std::make_shared<
            std::future<std::vector<std::int64_t>>>(
            std::move(future));
        FrameFuture f;
        f.wait_until_ = [shared](
                            std::chrono::steady_clock::time_point t) {
            return shared->wait_until(t) ==
                std::future_status::ready;
        };
        f.take_ = [shared]() -> FrameResult {
            try {
                return {Status::success(), shared->get()};
            } catch (...) {
                return {statusFromException(std::current_exception()),
                        {}};
            }
        };
        return f;
    }

    /** Wrap a wire InferResponse future (no-throw value). */
    static FrameFuture
    ofWire(std::future<serve::wire::InferResponse> future);

    /** Wrap an async FrameResult future (the HTTP transport's
     *  one-thread-per-in-flight-frame round trips). */
    static FrameFuture
    ofAsync(std::future<FrameResult> future)
    {
        auto shared =
            std::make_shared<std::future<FrameResult>>(
                std::move(future));
        FrameFuture f;
        f.wait_until_ = [shared](
                            std::chrono::steady_clock::time_point t) {
            return shared->wait_until(t) ==
                std::future_status::ready;
        };
        f.take_ = [shared]() -> FrameResult {
            try {
                return shared->get();
            } catch (...) {
                return {statusFromException(std::current_exception()),
                        {}};
            }
        };
        return f;
    }

    /**
     * Block until resolved or @p deadline (max() = forever); false
     * on timeout — the frame stays in flight and take() may still be
     * called later.
     */
    bool
    waitUntil(std::chrono::steady_clock::time_point deadline) const
    {
        if (immediate_ || !wait_until_)
            return true;
        if (deadline ==
            std::chrono::steady_clock::time_point::max()) {
            // wait_until(max()) overflows some libstdc++ clocks;
            // waiting on a year keeps "forever" finite and safe.
            deadline = std::chrono::steady_clock::now() +
                std::chrono::hours(24 * 365);
        }
        return wait_until_(deadline);
    }

    /** The frame's outcome; blocks until resolved. */
    FrameResult
    take()
    {
        if (immediate_)
            return std::move(*immediate_);
        waitUntil(std::chrono::steady_clock::time_point::max());
        return take_();
    }

  private:
    std::optional<FrameResult> immediate_;
    std::function<bool(std::chrono::steady_clock::time_point)>
        wait_until_;
    std::function<FrameResult()> take_;
};

/** An already-resolved FrameFuture (validation failures). */
FrameFuture
readyFrame(Status status)
{
    return FrameFuture::ready(std::move(status));
}

/** Map a wire error code (+ message) onto the Status taxonomy. */
Status
statusFromWire(serve::wire::ErrorCode code, std::string message)
{
    switch (code) {
      case serve::wire::ErrorCode::InvalidArgument:
        return Status::error(StatusCode::InvalidArgument,
                             std::move(message));
      case serve::wire::ErrorCode::NotFound:
        return Status::error(StatusCode::NotFound,
                             std::move(message));
      case serve::wire::ErrorCode::DeadlineExpired:
        return Status::error(StatusCode::DeadlineExpired,
                             std::move(message));
      case serve::wire::ErrorCode::Unavailable:
        return Status::error(StatusCode::Unavailable,
                             std::move(message));
      case serve::wire::ErrorCode::ProtocolError:
        return Status::error(StatusCode::ProtocolError,
                             std::move(message));
      case serve::wire::ErrorCode::Internal:
        break;
    }
    return Status::error(StatusCode::Internal, std::move(message));
}

/** ServingDirectory lookup failures: a missing model is the
 *  caller's NotFound; a policy rejection is the deployment's
 *  problem, hence Internal. */
Status
statusFromDirectoryError(serve::ServingDirectory::LookupStatus status,
                         std::string error)
{
    const StatusCode code =
        status == serve::ServingDirectory::LookupStatus::NotFound
        ? StatusCode::NotFound
        : StatusCode::Internal;
    return Status::error(code, std::move(error));
}

FrameFuture
FrameFuture::ofWire(std::future<serve::wire::InferResponse> future)
{
    auto shared = std::make_shared<
        std::future<serve::wire::InferResponse>>(std::move(future));
    FrameFuture f;
    f.wait_until_ = [shared](
                        std::chrono::steady_clock::time_point t) {
        return shared->wait_until(t) == std::future_status::ready;
    };
    f.take_ = [shared]() -> FrameResult {
        serve::wire::InferResponse r = shared->get();
        if (!r.ok)
            return {statusFromWire(r.code, std::move(r.error)), {}};
        return {Status::success(), std::move(r.output)};
    };
    return f;
}

/** Clamp a request deadline into the wire's u32 microsecond field. */
std::uint32_t
wireDeadlineUs(std::chrono::microseconds deadline)
{
    const auto us = deadline.count();
    if (us <= 0)
        return 0;
    return static_cast<std::uint32_t>(std::min<std::int64_t>(
        us, std::numeric_limits<std::uint32_t>::max()));
}

// ------------------------------------------------------------ sessions

/** The transport-facing half of a client::Session. */
class SessionImpl
{
  public:
    virtual ~SessionImpl() = default;

    virtual Session::StepResult
    step(const nn::Vector &x, std::int32_t priority,
         std::chrono::microseconds deadline) = 0;
    virtual void close() = 0;

    virtual std::size_t inputSize() const = 0;
    virtual std::size_t hiddenSize() const = 0;
    virtual const std::string &model() const = 0;
    virtual std::uint64_t steps() const = 0;
};

/**
 * A session whose recurrent state lives in this process (local: and
 * cluster: endpoints): engine::LstmSession around the serving
 * cluster's M×V, whose futures throw the engine's failures on get().
 */
class InProcessSession final : public SessionImpl
{
  public:
    InProcessSession(serve::ClusterEngine &cluster,
                     const engine::LstmShape &shape)
        : cluster_(cluster), session_(cluster.model().config(), shape)
    {}

    Session::StepResult
    step(const nn::Vector &x, std::int32_t priority,
         std::chrono::microseconds deadline) override
    {
        if (closed_)
            return {Status::error(StatusCode::Unavailable,
                                  "session is closed"),
                    {}};
        const std::uint64_t trace_id = obs::nextTraceId();
        try {
            nn::Vector h = session_.step(
                x, [&](std::vector<std::int64_t> packed) {
                    engine::SubmitOptions submit;
                    submit.priority = priority;
                    submit.deadline = deadline;
                    submit.trace_id = trace_id;
                    return cluster_.submit(std::move(packed), submit)
                        .get();
                });
            return {Status::success(), std::move(h), trace_id};
        } catch (...) {
            return {statusFromException(std::current_exception()),
                    {},
                    trace_id};
        }
    }

    void close() override { closed_ = true; }

    std::size_t
    inputSize() const override
    {
        return session_.shape().input_size;
    }
    std::size_t
    hiddenSize() const override
    {
        return session_.shape().hidden_size;
    }
    const std::string &
    model() const override
    {
        return cluster_.model().name();
    }
    std::uint64_t steps() const override { return session_.steps(); }

  private:
    serve::ClusterEngine &cluster_;
    engine::LstmSession session_;
    bool closed_ = false;
};

/** A session proxying wire Session frames (the state lives in the
 *  daemon). Pins its connection by shared_ptr: a transport that
 *  reconnects meanwhile does not pull this session's socket (and the
 *  recurrent state only the daemon end of it knows) out from under
 *  it. */
class TcpSession final : public SessionImpl
{
  public:
    TcpSession(std::shared_ptr<serve::TcpClient> client,
               std::uint64_t session_id, std::string model,
               std::size_t input_size, std::size_t hidden_size)
        : client_(std::move(client)), session_id_(session_id),
          model_(std::move(model)), input_size_(input_size),
          hidden_size_(hidden_size)
    {}

    ~TcpSession() override { close(); }

    Session::StepResult
    step(const nn::Vector &x, std::int32_t priority,
         std::chrono::microseconds deadline) override
    {
        if (closed_)
            return {Status::error(StatusCode::Unavailable,
                                  "session is closed"),
                    {}};
        const std::uint64_t trace_id = obs::nextTraceId();
        serve::wire::SessionState state =
            client_
                ->submitStep(session_id_,
                             std::vector<float>(x.begin(), x.end()),
                             priority, wireDeadlineUs(deadline),
                             trace_id)
                .get();
        if (!state.ok)
            return {statusFromWire(state.code,
                                   std::move(state.error)),
                    {},
                    trace_id};
        ++steps_;
        return {Status::success(),
                nn::Vector(state.h.begin(), state.h.end()),
                trace_id};
    }

    void
    close() override
    {
        if (closed_)
            return;
        closed_ = true;
        client_->closeSession(session_id_);
    }

    std::size_t inputSize() const override { return input_size_; }
    std::size_t hiddenSize() const override { return hidden_size_; }
    const std::string &model() const override { return model_; }
    std::uint64_t steps() const override { return steps_; }

  private:
    std::shared_ptr<serve::TcpClient> client_;
    std::uint64_t session_id_;
    std::string model_;
    std::size_t input_size_;
    std::size_t hidden_size_;
    std::uint64_t steps_ = 0;
    bool closed_ = false;
};

// ----------------------------------------------------------- transport

/** One endpoint's execution surface behind the typed API. */
class Transport
{
  public:
    virtual ~Transport() = default;

    virtual Status info(const std::string &model,
                        std::uint32_t version, ModelInfo &out) = 0;
    virtual FrameFuture
    submitFrame(const std::string &model, std::uint32_t version,
                std::vector<std::int64_t> frame, std::int32_t priority,
                std::chrono::microseconds deadline,
                std::uint64_t trace_id) = 0;
    virtual std::unique_ptr<SessionImpl>
    openSession(const std::string &model, std::uint32_t version,
                Status &status) = 0;
    virtual Status stats(EndpointStats &out) = 0;
    virtual Status traceDump(std::string &out) = 0;
    virtual void close() = 0;
};

// ---------------------------------------------------- ClusterTransport

/**
 * `local:` and `cluster:` — an in-process ServingDirectory, the same
 * engine the TCP daemon fronts, minus the socket. `cluster:<dir>`
 * shards the registry at <dir> per ClientOptions::cluster;
 * `local:<backend>` is one replicated shard over the in-memory
 * ClientOptions::models and an optional registry.
 */
class ClusterTransport final : public Transport
{
  public:
    ClusterTransport(const ParsedEndpoint &endpoint,
                     const ClientOptions &options)
        : registry_(openRegistry(endpoint, options)),
          directory_(registry_.get(), clusterOptions(endpoint, options),
                     inMemoryModels(endpoint, options))
    {}

    Status
    info(const std::string &model, std::uint32_t version,
         ModelInfo &out) override
    {
        if (closed_.load())
            return Status::error(StatusCode::Unavailable,
                                 "client endpoint is closed");
        std::string error;
        serve::ServingDirectory::LookupStatus lookup;
        const serve::ClusterEngine *cluster = directory_.cluster(
            model, version, error, nn::Nonlinearity::ReLU, &lookup);
        if (cluster == nullptr)
            return statusFromDirectoryError(lookup,
                                            std::move(error));
        out.model = cluster->model().name();
        out.version = cluster->model().version();
        out.input_size = cluster->inputSize();
        out.output_size = cluster->outputSize();
        out.shards = cluster->shardCount();
        out.placement =
            serve::placementName(cluster->options().placement);
        return Status::success();
    }

    FrameFuture
    submitFrame(const std::string &model, std::uint32_t version,
                std::vector<std::int64_t> frame, std::int32_t priority,
                std::chrono::microseconds deadline,
                std::uint64_t trace_id) override
    {
        // Fast path only: the stopped directory itself latches, so a
        // lookup racing close() cannot serve either.
        if (closed_.load())
            return readyFrame(Status::error(
                StatusCode::Unavailable,
                "client endpoint is closed"));
        std::string error;
        serve::ServingDirectory::LookupStatus lookup;
        serve::ClusterEngine *cluster = directory_.cluster(
            model, version, error, nn::Nonlinearity::ReLU, &lookup);
        if (cluster == nullptr)
            return readyFrame(statusFromDirectoryError(
                lookup, std::move(error)));
        if (frame.size() != cluster->inputSize())
            return readyFrame(Status::error(
                StatusCode::InvalidArgument,
                "input length " + std::to_string(frame.size()) +
                    " != model input size " +
                    std::to_string(cluster->inputSize())));
        engine::SubmitOptions submit;
        submit.priority = priority;
        submit.deadline = deadline;
        submit.trace_id = trace_id;
        return FrameFuture::ofEngine(
            cluster->submit(std::move(frame), submit));
    }

    std::unique_ptr<SessionImpl>
    openSession(const std::string &model, std::uint32_t version,
                Status &status) override
    {
        if (closed_.load()) {
            status = Status::error(StatusCode::Unavailable,
                                   "client endpoint is closed");
            return nullptr;
        }
        std::string error;
        serve::ServingDirectory::LookupStatus lookup;
        serve::ClusterEngine *cluster =
            directory_.cluster(model, version, error,
                               nn::Nonlinearity::None, &lookup);
        if (cluster == nullptr) {
            status =
                statusFromDirectoryError(lookup, std::move(error));
            return nullptr;
        }
        engine::LstmShape shape;
        if (!engine::LstmShape::derive(cluster->inputSize(),
                                       cluster->outputSize(), shape,
                                       error)) {
            status = Status::error(StatusCode::InvalidArgument,
                                   std::move(error));
            return nullptr;
        }
        status = Status::success();
        return std::make_unique<InProcessSession>(*cluster, shape);
    }

    Status
    stats(EndpointStats &out) override
    {
        out = EndpointStats{};
        // Merge cluster histograms so the endpoint percentiles are
        // computed over the union of every model's samples.
        obs::HistogramSnapshot latency{};
        for (const auto &snapshot : directory_.statsSnapshot()) {
            const serve::ClusterStats &stats = snapshot.stats;
            out.requests += stats.requests;
            out.dropped_deadline += stats.dropped_deadline;
            out.requests_shed += stats.requests_shed;
            out.mean_batch += stats.mean_batch *
                static_cast<double>(stats.requests);
            latency.merge(stats.latency);
            for (const serve::ShardStats &shard : stats.shards)
                out.max_queue_depth =
                    std::max(out.max_queue_depth,
                             shard.server.max_queue_depth);
        }
        if (out.requests > 0)
            out.mean_batch /= static_cast<double>(out.requests);
        const obs::LatencySummary summary = latency.summary();
        out.p50_latency_us = summary.p50;
        out.p95_latency_us = summary.p95;
        out.p99_latency_us = summary.p99;
        out.p999_latency_us = summary.p999;
        out.json = directory_.statsJson();
        return Status::success();
    }

    /** This process's span ring: the spans the engine recorded right
     *  here. */
    Status
    traceDump(std::string &out) override
    {
        out = obs::renderChromeTrace(obs::processTraceRing().snapshot());
        return Status::success();
    }

    void
    close() override
    {
        closed_.store(true);
        directory_.stopAll();
    }

  private:
    /** cluster:<dir>, or local:'s dir= falling back to
     *  ClientOptions::registry; null when local: names neither. */
    static std::unique_ptr<serve::ModelRegistry>
    openRegistry(const ParsedEndpoint &endpoint,
                 const ClientOptions &options)
    {
        const std::string &dir =
            endpoint.kind == TransportKind::Local && endpoint.dir.empty()
            ? options.registry
            : endpoint.dir;
        if (dir.empty())
            return nullptr;
        return std::make_unique<serve::ModelRegistry>(dir,
                                                      options.config);
    }

    static std::vector<std::shared_ptr<const serve::LoadedModel>>
    inMemoryModels(const ParsedEndpoint &endpoint,
                   const ClientOptions &options)
    {
        std::vector<std::shared_ptr<const serve::LoadedModel>> models;
        if (endpoint.kind == TransportKind::Local)
            for (const LocalModel &model : options.models)
                models.push_back(serve::LoadedModel::fromPlans(
                    model.name, model.plans, options.config));
        return models;
    }

    static serve::ClusterOptions
    clusterOptions(const ParsedEndpoint &endpoint,
                   const ClientOptions &options)
    {
        // local: is one replicated shard on its own backend.
        serve::ClusterOptions cluster;
        if (endpoint.kind == TransportKind::Local)
            cluster.backend = endpoint.backend;
        else
            cluster = options.cluster;
        if (endpoint.shards != 0)
            cluster.shards = endpoint.shards;
        if (!endpoint.placement.empty())
            cluster.placement =
                serve::placementFromName(endpoint.placement);
        if (!endpoint.cluster_backend.empty())
            cluster.backend = endpoint.cluster_backend;
        if (!endpoint.kernel.empty())
            cluster.kernel = core::kernel::kernelVariantFromName(
                endpoint.kernel);
        if (endpoint.threads != 0)
            cluster.threads_per_shard = endpoint.threads;
        cluster.server = options.server;
        return cluster;
    }

    std::unique_ptr<serve::ModelRegistry> registry_;
    serve::ServingDirectory directory_;
    std::atomic<bool> closed_{false};
};

// -------------------------------------------------------- TcpTransport

/** `tcp://` — a remote eie_serve daemon over the async wire client;
 *  responses correlate by id, failures arrive as wire error codes.
 *  A lost connection is re-dialed (with a fresh wire handshake)
 *  on the next call, so a bounced daemon costs the in-flight
 *  requests, not the client object. */
class TcpTransport final : public Transport
{
  public:
    /** Connecting can fail; a null return carries the Status. */
    static std::unique_ptr<TcpTransport>
    create(const ParsedEndpoint &endpoint, Status &status)
    {
        try {
            auto transport = std::unique_ptr<TcpTransport>(
                new TcpTransport(endpoint.host, endpoint.port));
            status = Status::success();
            return transport;
        } catch (const serve::wire::WireError &error) {
            status = Status::error(StatusCode::ProtocolError,
                                   error.what());
        } catch (const std::exception &error) {
            status = Status::error(StatusCode::TransportError,
                                   error.what());
        }
        return nullptr;
    }

    Status
    info(const std::string &model, std::uint32_t version,
         ModelInfo &out) override
    {
        Status status;
        const std::shared_ptr<serve::TcpClient> client =
            ensureClient(status);
        if (!client)
            return status;
        try {
            const serve::wire::InfoResponse response =
                client->info(model, version);
            if (!response.ok)
                return statusFromWire(response.code, response.error);
            out.model = response.model;
            out.version = response.version;
            out.input_size = response.input_size;
            out.output_size = response.output_size;
            out.shards = response.shards;
            out.placement = response.placement;
            return Status::success();
        } catch (const serve::wire::WireError &error) {
            return Status::error(StatusCode::Unavailable,
                                 error.what());
        }
    }

    FrameFuture
    submitFrame(const std::string &model, std::uint32_t version,
                std::vector<std::int64_t> frame, std::int32_t priority,
                std::chrono::microseconds deadline,
                std::uint64_t trace_id) override
    {
        Status status;
        const std::shared_ptr<serve::TcpClient> client =
            ensureClient(status);
        if (!client)
            return readyFrame(std::move(status));
        return FrameFuture::ofWire(
            client->submitInfer(model, version, std::move(frame),
                                priority, wireDeadlineUs(deadline),
                                trace_id));
    }

    std::unique_ptr<SessionImpl>
    openSession(const std::string &model, std::uint32_t version,
                Status &status) override
    {
        const std::shared_ptr<serve::TcpClient> client =
            ensureClient(status);
        if (!client)
            return nullptr;
        const serve::wire::SessionAck ack =
            client->openSession(model, version).get();
        if (!ack.ok) {
            status = statusFromWire(ack.code, ack.error);
            return nullptr;
        }
        status = Status::success();
        return std::make_unique<TcpSession>(
            client, ack.session_id, model,
            static_cast<std::size_t>(ack.input_size),
            static_cast<std::size_t>(ack.hidden_size));
    }

    Status
    stats(EndpointStats &out) override
    {
        Status status;
        const std::shared_ptr<serve::TcpClient> client =
            ensureClient(status);
        if (!client)
            return status;
        try {
            out = EndpointStats{};
            out.json = client->stats();
            return Status::success();
        } catch (const serve::wire::WireError &error) {
            return Status::error(StatusCode::Unavailable,
                                 error.what());
        }
    }

    Status
    traceDump(std::string &out) override
    {
        Status status;
        const std::shared_ptr<serve::TcpClient> client =
            ensureClient(status);
        if (!client)
            return status;
        try {
            out = client->traceDump();
            return Status::success();
        } catch (const serve::wire::WireError &error) {
            return Status::error(StatusCode::Unavailable,
                                 error.what());
        }
    }

    void
    close() override
    {
        std::shared_ptr<serve::TcpClient> client;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
            client = client_;
        }
        if (client)
            client->close();
    }

  private:
    TcpTransport(std::string host, std::uint16_t port)
        : host_(std::move(host)), port_(port),
          client_(std::make_shared<serve::TcpClient>(host_, port_))
    {}

    /**
     * The live connection, re-dialing (full wire handshake) when the
     * previous one died. Sessions opened on the old connection keep
     * their own shared_ptr; their server-side state died with the
     * daemon, so their steps report Unavailable — reconnection is
     * for stateless requests.
     */
    std::shared_ptr<serve::TcpClient>
    ensureClient(Status &status)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_) {
            status = Status::error(StatusCode::Unavailable,
                                   "client endpoint is closed");
            return nullptr;
        }
        if (client_ && client_->connected()) {
            status = Status::success();
            return client_;
        }
        try {
            client_ =
                std::make_shared<serve::TcpClient>(host_, port_);
            status = Status::success();
            return client_;
        } catch (const serve::wire::WireError &error) {
            status = Status::error(StatusCode::ProtocolError,
                                   error.what());
        } catch (const std::exception &error) {
            status = Status::error(StatusCode::TransportError,
                                   error.what());
        }
        return nullptr;
    }

    std::string host_;
    std::uint16_t port_;

    std::mutex mutex_;
    bool closed_ = false;
    std::shared_ptr<serve::TcpClient> client_;
};

// ------------------------------------------------------- HttpTransport

/** Reverse of the gateway's error-body code names (the Status the
 *  gateway mapped onto the HTTP status). */
bool
statusCodeFromName(const std::string &name, StatusCode &out)
{
    for (const StatusCode code :
         {StatusCode::Ok, StatusCode::InvalidArgument,
          StatusCode::NotFound, StatusCode::DeadlineExpired,
          StatusCode::Unavailable, StatusCode::ProtocolError,
          StatusCode::TransportError, StatusCode::Internal}) {
        if (name == statusCodeName(code)) {
            out = code;
            return true;
        }
    }
    return false;
}

/** Fallback Status class of a bare HTTP status (a peer that did not
 *  send the gateway's error body). 401/403 collapse onto
 *  InvalidArgument (the closed StatusCode set has no
 *  PermissionDenied) and 429 onto Unavailable — the same codes the
 *  gateway names in its bodies, so both paths agree. */
StatusCode
statusCodeFromHttp(int http_status)
{
    switch (http_status) {
      case 400: return StatusCode::InvalidArgument;
      case 401: return StatusCode::InvalidArgument;
      case 403: return StatusCode::InvalidArgument;
      case 404: return StatusCode::NotFound;
      case 429: return StatusCode::Unavailable;
      case 502: return StatusCode::ProtocolError;
      case 503: return StatusCode::Unavailable;
      case 504: return StatusCode::DeadlineExpired;
      default: return StatusCode::Internal;
    }
}

/**
 * The dial state shared between an HttpTransport and the sessions it
 * opened: host/port/token plus a pool of keep-alive connections (one
 * per in-flight request — HTTP/1.1 without multiplexing pipelines by
 * connection count, matching the wire client's many-in-flight
 * semantics for the bench).
 */
class HttpChannel
{
  public:
    HttpChannel(std::string host, std::uint16_t port,
                std::string token)
        : host_(std::move(host)), port_(port),
          token_(std::move(token))
    {}

    /** One JSON exchange. Returns the HTTP status and body via
     *  @p http_status / @p body; a non-Ok return is a transport-level
     *  failure (dial, send, malformed response). */
    Status
    roundTrip(const std::string &method, const std::string &target,
              const std::string &request_body, int &http_status,
              std::string &body)
    {
        std::unique_ptr<gateway::HttpClientConnection> connection;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return Status::error(StatusCode::Unavailable,
                                     "client endpoint is closed");
            if (!idle_.empty()) {
                connection = std::move(idle_.back());
                idle_.pop_back();
            }
        }
        std::vector<std::pair<std::string, std::string>> headers;
        if (!token_.empty())
            headers.emplace_back("Authorization",
                                 "Bearer " + token_);
        // One transparent retry on a dead pooled connection: the
        // gateway may have reaped it between requests, which is not
        // a request failure.
        for (int attempt = 0;; ++attempt) {
            if (!connection) {
                try {
                    connection = std::make_unique<
                        gateway::HttpClientConnection>(host_, port_);
                } catch (const std::exception &error) {
                    return Status::error(StatusCode::TransportError,
                                         error.what());
                }
            }
            try {
                const gateway::HttpParsedResponse response =
                    connection->roundTrip(method, target, headers,
                                          request_body);
                http_status = response.status;
                body = response.body;
                if (connection->alive())
                    release(std::move(connection));
                return Status::success();
            } catch (const gateway::HttpError &error) {
                connection.reset();
                if (attempt == 0)
                    continue; // dial fresh and retry once
                return Status::error(StatusCode::TransportError,
                                     error.what());
            }
        }
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        idle_.clear();
    }

  private:
    void
    release(std::unique_ptr<gateway::HttpClientConnection> connection)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Bound the pool: beyond the high-water mark of in-flight
        // requests, extra sockets buy nothing.
        if (!closed_ && idle_.size() < 16)
            idle_.push_back(std::move(connection));
    }

    const std::string host_;
    const std::uint16_t port_;
    const std::string token_;

    std::mutex mutex_;
    bool closed_ = false;
    std::vector<std::unique_ptr<gateway::HttpClientConnection>>
        idle_;
};

/** Parse a gateway response body, its arrays of numbers stored as
 *  @p arrays says; a non-2xx maps onto the Status taxonomy
 *  (error-body code name first, HTTP status class as the fallback).
 *  On Ok @p out is the parsed body. */
Status
gatewayStatus(int http_status, const std::string &body,
              obs::JsonValue &out,
              obs::JsonNumberArrays arrays = obs::JsonNumberArrays::Tree)
{
    try {
        out = obs::parseJson(body, arrays);
    } catch (const std::exception &) {
        out = obs::JsonValue{};
        if (http_status / 100 == 2)
            return Status::error(
                StatusCode::ProtocolError,
                "malformed JSON in gateway response");
    }
    if (http_status / 100 == 2)
        return Status::success();
    std::string message = "HTTP " + std::to_string(http_status);
    StatusCode code = statusCodeFromHttp(http_status);
    if (const obs::JsonValue *error = out.find("error")) {
        StatusCode named;
        if (statusCodeFromName(error->stringOr("code", ""), named) &&
            named != StatusCode::Ok)
            code = named;
        const std::string detail = error->stringOr("message", "");
        if (!detail.empty())
            message += ": " + detail;
    }
    return Status::error(code, std::move(message));
}

/** A session whose recurrent state lives behind the gateway. */
class HttpSession final : public SessionImpl
{
  public:
    HttpSession(std::shared_ptr<HttpChannel> channel, std::string id,
                std::string model, std::size_t input_size,
                std::size_t hidden_size)
        : channel_(std::move(channel)), id_(std::move(id)),
          model_(std::move(model)), input_size_(input_size),
          hidden_size_(hidden_size)
    {}

    ~HttpSession() override { close(); }

    Session::StepResult
    step(const nn::Vector &x, std::int32_t priority,
         std::chrono::microseconds deadline) override
    {
        if (closed_)
            return {Status::error(StatusCode::Unavailable,
                                  "session is closed"),
                    {}};
        obs::JsonWriter request;
        request.beginObject()
            .field("session", id_)
            .key("x")
            .floatArray(x)
            .field("priority", priority)
            .field("deadline_us",
                   static_cast<std::int64_t>(deadline.count()))
            .endObject();
        int http_status = 0;
        std::string body;
        Status status =
            channel_->roundTrip("POST", "/v1/session/step",
                                request.str(), http_status, body);
        if (!status.ok())
            return {std::move(status), {}};
        obs::JsonValue parsed;
        status = gatewayStatus(http_status, body, parsed,
                               obs::JsonNumberArrays::Float);
        if (!status.ok())
            return {std::move(status), {}};
        const obs::JsonValue *h = parsed.find("h");
        if (h == nullptr || h->kind != obs::JsonValue::Kind::FloatArray)
            return {Status::error(StatusCode::ProtocolError,
                                  "gateway step response without "
                                  "\"h\""),
                    {}};
        ++steps_;
        return {Status::success(), h->floats,
                static_cast<std::uint64_t>(
                    parsed.numberOr("trace_id", 0.0))};
    }

    void
    close() override
    {
        if (closed_)
            return;
        closed_ = true;
        int http_status = 0;
        std::string body;
        channel_->roundTrip("POST", "/v1/session/close",
                            "{\"session\":\"" + id_ + "\"}",
                            http_status, body);
    }

    std::size_t inputSize() const override { return input_size_; }
    std::size_t hiddenSize() const override { return hidden_size_; }
    const std::string &model() const override { return model_; }
    std::uint64_t steps() const override { return steps_; }

  private:
    std::shared_ptr<HttpChannel> channel_;
    std::string id_;
    std::string model_;
    std::size_t input_size_;
    std::size_t hidden_size_;
    std::uint64_t steps_ = 0;
    bool closed_ = false;
};

/** `http://` — a remote eie_gateway daemon over JSON/HTTP: the
 *  multi-tenant front door (bearer auth, quotas, tiers) behind the
 *  same typed API and Status codes as the other three transports. */
class HttpTransport final : public Transport
{
  public:
    /** Dialing verifies reachability up front, like tcp://. */
    static std::unique_ptr<HttpTransport>
    create(const ParsedEndpoint &endpoint, Status &status)
    {
        try {
            gateway::HttpClientConnection probe(endpoint.host,
                                                endpoint.port);
        } catch (const std::exception &error) {
            status = Status::error(StatusCode::TransportError,
                                   error.what());
            return nullptr;
        }
        status = Status::success();
        return std::unique_ptr<HttpTransport>(
            new HttpTransport(endpoint));
    }

    Status
    info(const std::string &model, std::uint32_t version,
         ModelInfo &out) override
    {
        std::string target = "/v1/models/" + model;
        if (version != 0)
            target += "?version=" + std::to_string(version);
        int http_status = 0;
        std::string body;
        Status status = channel_->roundTrip("GET", target, "",
                                            http_status, body);
        if (!status.ok())
            return status;
        obs::JsonValue parsed;
        status = gatewayStatus(http_status, body, parsed);
        if (!status.ok())
            return status;
        out.model = parsed.stringOr("model", model);
        out.version = static_cast<std::uint32_t>(
            parsed.numberOr("version", 0.0));
        out.input_size = static_cast<std::size_t>(
            parsed.numberOr("input_size", 0.0));
        out.output_size = static_cast<std::size_t>(
            parsed.numberOr("output_size", 0.0));
        out.shards = static_cast<unsigned>(
            parsed.numberOr("shards", 1.0));
        out.placement = parsed.stringOr("placement", "replicated");
        return Status::success();
    }

    FrameFuture
    submitFrame(const std::string &model, std::uint32_t version,
                std::vector<std::int64_t> frame, std::int32_t priority,
                std::chrono::microseconds deadline,
                std::uint64_t /*trace_id*/) override
    {
        // One HTTP request per frame on its own connection: in-flight
        // frames pipeline by connection count, and a blocking round
        // trip per async task keeps the gateway's per-request
        // concurrency quota meaningful.
        obs::JsonWriter request;
        request.beginObject()
            .field("model", model)
            .field("version", std::uint64_t{version});
        request.key("frames").beginArray().int64Array(frame).endArray();
        request
            .field("priority", priority)
            .field("deadline_us",
                   static_cast<std::int64_t>(deadline.count()))
            .endObject();
        return FrameFuture::ofAsync(std::async(
            std::launch::async,
            [channel = channel_,
             body = request.str()]() -> FrameResult {
                int http_status = 0;
                std::string response;
                Status status =
                    channel->roundTrip("POST", "/v1/infer", body,
                                       http_status, response);
                if (!status.ok())
                    return {std::move(status), {}};
                obs::JsonValue parsed;
                status = gatewayStatus(http_status, response, parsed,
                                       obs::JsonNumberArrays::Int64);
                const obs::JsonValue *frames = parsed.find("frames");
                if (frames == nullptr || !frames->isArray() ||
                    frames->array.empty()) {
                    if (!status.ok())
                        return {std::move(status), {}};
                    return {Status::error(
                                StatusCode::ProtocolError,
                                "gateway infer response without "
                                "\"frames\""),
                            {}};
                }
                // The per-frame code is authoritative — it survives
                // even when the overall HTTP status was an error.
                const obs::JsonValue &first = frames->array.front();
                StatusCode code = StatusCode::Internal;
                if (!statusCodeFromName(first.stringOr("code", ""),
                                        code))
                    return {Status::error(
                                StatusCode::ProtocolError,
                                "gateway frame without a status "
                                "code"),
                            {}};
                if (code != StatusCode::Ok)
                    return {Status::error(
                                code, first.stringOr("message", "")),
                            {}};
                const obs::JsonValue *output = first.find("output");
                if (output == nullptr ||
                    output->kind != obs::JsonValue::Kind::Int64Array)
                    return {Status::error(
                                StatusCode::ProtocolError,
                                "gateway frame without an output"),
                            {}};
                return {Status::success(), output->int64s};
            }));
    }

    std::unique_ptr<SessionImpl>
    openSession(const std::string &model, std::uint32_t version,
                Status &status) override
    {
        obs::JsonWriter request;
        request.beginObject()
            .field("model", model)
            .field("version", std::uint64_t{version})
            .endObject();
        int http_status = 0;
        std::string body;
        status = channel_->roundTrip("POST", "/v1/session/open",
                                     request.str(), http_status,
                                     body);
        if (!status.ok())
            return nullptr;
        obs::JsonValue parsed;
        status = gatewayStatus(http_status, body, parsed);
        if (!status.ok())
            return nullptr;
        const std::string id = parsed.stringOr("session", "");
        if (id.empty()) {
            status = Status::error(StatusCode::ProtocolError,
                                   "gateway session-open response "
                                   "without \"session\"");
            return nullptr;
        }
        status = Status::success();
        return std::make_unique<HttpSession>(
            channel_, id, parsed.stringOr("model", model),
            static_cast<std::size_t>(
                parsed.numberOr("input_size", 0.0)),
            static_cast<std::size_t>(
                parsed.numberOr("hidden_size", 0.0)));
    }

    Status
    stats(EndpointStats &out) override
    {
        int http_status = 0;
        std::string body;
        Status status = channel_->roundTrip("GET", "/v1/stats", "",
                                            http_status, body);
        if (!status.ok())
            return status;
        obs::JsonValue parsed;
        status = gatewayStatus(http_status, body, parsed);
        if (!status.ok())
            return status;
        out = EndpointStats{};
        out.json = body;
        if (const obs::JsonValue *gw = parsed.find("gateway"))
            out.requests = static_cast<std::uint64_t>(
                gw->numberOr("requests", 0.0));
        return Status::success();
    }

    Status
    traceDump(std::string &out) override
    {
        int http_status = 0;
        std::string body;
        Status status = channel_->roundTrip("GET", "/v1/trace", "",
                                            http_status, body);
        if (!status.ok())
            return status;
        obs::JsonValue parsed;
        status = gatewayStatus(http_status, body, parsed);
        if (!status.ok())
            return status;
        out = std::move(body);
        return Status::success();
    }

    void
    close() override
    {
        channel_->close();
    }

  private:
    explicit HttpTransport(const ParsedEndpoint &endpoint)
        : channel_(std::make_shared<HttpChannel>(
              endpoint.host, endpoint.port, endpoint.token))
    {}

    std::shared_ptr<HttpChannel> channel_;
};

} // namespace detail

// -------------------------------------------------------------- Session

Session::Session(std::unique_ptr<detail::SessionImpl> impl)
    : impl_(std::move(impl))
{}

Session::~Session() = default;

Session::StepResult
Session::step(const nn::Vector &x, std::int32_t priority,
              std::chrono::microseconds deadline)
{
    return impl_->step(x, priority, deadline);
}

std::size_t
Session::inputSize() const
{
    return impl_->inputSize();
}

std::size_t
Session::hiddenSize() const
{
    return impl_->hiddenSize();
}

const std::string &
Session::model() const
{
    return impl_->model();
}

std::uint64_t
Session::steps() const
{
    return impl_->steps();
}

void
Session::close()
{
    impl_->close();
}

// --------------------------------------------------------------- Client

Client::Client(std::string endpoint, TransportKind kind,
               const ClientOptions &options,
               std::unique_ptr<detail::Transport> transport)
    : endpoint_(std::move(endpoint)), kind_(kind),
      functional_(options.config), retry_(options.retry),
      transport_(std::move(transport))
{}

Client::~Client()
{
    close();
}

std::unique_ptr<Client>
Client::connect(const std::string &endpoint,
                const ClientOptions &options, Status &status)
{
    ParsedEndpoint parsed;
    status = parseEndpoint(endpoint, parsed);
    if (!status.ok())
        return nullptr;

    std::unique_ptr<detail::Transport> transport;
    switch (parsed.kind) {
      case TransportKind::Local:
      case TransportKind::Cluster:
        transport = std::make_unique<detail::ClusterTransport>(
            parsed, options);
        break;
      case TransportKind::Tcp:
        transport = detail::TcpTransport::create(parsed, status);
        if (!transport)
            return nullptr;
        break;
      case TransportKind::Http:
        transport = detail::HttpTransport::create(parsed, status);
        if (!transport)
            return nullptr;
        break;
    }
    status = Status::success();
    return std::unique_ptr<Client>(
        new Client(endpoint, parsed.kind, options,
                   std::move(transport)));
}

std::unique_ptr<Client>
Client::connectOrDie(const std::string &endpoint,
                     const ClientOptions &options)
{
    Status status;
    std::unique_ptr<Client> client =
        connect(endpoint, options, status);
    fatal_if(!client, "cannot connect to '%s': %s", endpoint.c_str(),
             status.toString().c_str());
    return client;
}

const char *
Client::transport() const
{
    return transportKindName(kind_);
}

std::future<InferenceResult>
Client::submit(InferenceRequest request)
{
    // Request-level validation resolves immediately.
    const auto ready = [](Status status) {
        std::promise<InferenceResult> promise;
        InferenceResult result;
        result.status = std::move(status);
        promise.set_value(std::move(result));
        return promise.get_future();
    };
    if (!request.fixed.empty() && !request.floats.empty())
        return ready(Status::error(
            StatusCode::InvalidArgument,
            "request carries both fixed and float frames"));

    const bool use_floats = !request.floats.empty();
    std::vector<std::vector<std::int64_t>> frames;
    if (use_floats) {
        frames.reserve(request.floats.size());
        for (const nn::Vector &frame : request.floats)
            frames.push_back(functional_.quantizeInput(frame));
    } else {
        frames = std::move(request.fixed);
    }

    // Retry needs the frame bytes back for re-submission, so only
    // then do the initial submissions keep a copy.
    const bool retry_enabled =
        request.idempotent && retry_.max_attempts > 1;
    const auto overall_deadline = retry_.timeout.count() > 0
        ? std::chrono::steady_clock::now() + retry_.timeout
        : std::chrono::steady_clock::time_point::max();

    // Every frame gets its own trace id so its spans can be found in
    // traceDump(); a retried frame keeps its id, tying all attempts
    // into one timeline.
    std::vector<std::uint64_t> trace_ids;
    trace_ids.reserve(frames.size());
    std::vector<detail::FrameFuture> futures;
    futures.reserve(frames.size());
    for (std::vector<std::int64_t> &frame : frames) {
        std::vector<std::int64_t> submitted =
            retry_enabled ? frame : std::move(frame);
        trace_ids.push_back(obs::nextTraceId());
        futures.push_back(transport_->submitFrame(
            request.model, request.version, std::move(submitted),
            request.priority, request.deadline, trace_ids.back()));
    }

    // Deferred gather: waiting happens on the caller's get(). The
    // lambda owns everything it touches (FunctionalModel copies
    // share the configuration only, and the transport is co-owned
    // by shared_ptr), so the future stays valid even past the
    // Client's destruction — transports guarantee every frame
    // future resolves when they shut down.
    return std::async(
        std::launch::deferred,
        [functional = functional_, use_floats,
         futures = std::move(futures), frames = std::move(frames),
         trace_ids = std::move(trace_ids), transport = transport_,
         policy = retry_, retry_enabled, overall_deadline,
         model = std::move(request.model), version = request.version,
         priority = request.priority,
         deadline = request.deadline]() mutable {
            // One frame's outcome after waiting, including any
            // retry attempts. The overall timeout bounds waits and
            // backoffs across all attempts; on its expiry the frame
            // stays in flight server-side, but this caller stops
            // waiting for it.
            const auto resolve =
                [&](detail::FrameFuture &future,
                    std::size_t index) -> detail::FrameResult {
                for (unsigned attempt = 0;; ++attempt) {
                    if (!future.waitUntil(overall_deadline))
                        return {Status::error(
                                    StatusCode::DeadlineExpired,
                                    "client-side request timeout"),
                                {}};
                    detail::FrameResult frame = future.take();
                    if (!retry_enabled ||
                        !retryableStatus(frame.status.code) ||
                        attempt + 1 >= policy.max_attempts)
                        return frame;
                    const auto resume =
                        std::chrono::steady_clock::now() +
                        retryBackoff(policy, attempt);
                    if (resume >= overall_deadline)
                        return frame; // no budget for another try
                    std::this_thread::sleep_until(resume);
                    future = transport->submitFrame(
                        model, version, frames[index], priority,
                        deadline, trace_ids[index]);
                }
            };

            InferenceResult result;
            result.frame_status.reserve(futures.size());
            result.outputs.reserve(futures.size());
            result.trace_ids = trace_ids;
            for (std::size_t i = 0; i < futures.size(); ++i) {
                detail::FrameResult frame = resolve(futures[i], i);
                if (!frame.status.ok() && result.status.ok())
                    result.status = frame.status;
                if (use_floats)
                    result.float_outputs.push_back(
                        frame.status.ok()
                            ? functional.dequantize(frame.output)
                            : nn::Vector{});
                result.frame_status.push_back(
                    std::move(frame.status));
                result.outputs.push_back(std::move(frame.output));
            }
            return result;
        });
}

InferenceResult
Client::infer(const InferenceRequest &request)
{
    return submit(request).get();
}

InferenceResult
Client::inferRaw(const std::string &model,
                 std::vector<std::int64_t> frame)
{
    InferenceRequest request;
    request.model = model;
    request.fixed.push_back(std::move(frame));
    return infer(request);
}

InferenceResult
Client::inferFloat(const std::string &model, const nn::Vector &frame)
{
    InferenceRequest request;
    request.model = model;
    request.floats.push_back(frame);
    return infer(request);
}

Status
Client::info(const std::string &model, std::uint32_t version,
             ModelInfo &out)
{
    return transport_->info(model, version, out);
}

std::unique_ptr<Session>
Client::openSession(const std::string &model, std::uint32_t version,
                    Status &status)
{
    std::unique_ptr<detail::SessionImpl> impl =
        transport_->openSession(model, version, status);
    if (!impl)
        return nullptr;
    return std::unique_ptr<Session>(new Session(std::move(impl)));
}

Status
Client::stats(EndpointStats &out)
{
    return transport_->stats(out);
}

Status
Client::traceDump(std::string &out)
{
    return transport_->traceDump(out);
}

std::vector<std::int64_t>
Client::quantize(const nn::Vector &input) const
{
    return functional_.quantizeInput(input);
}

nn::Vector
Client::dequantize(const std::vector<std::int64_t> &raw) const
{
    return functional_.dequantize(raw);
}

void
Client::close()
{
    transport_->close();
}

} // namespace eie::client
