/**
 * @file
 * eie::client::Client — the one front door to every EIE execution
 * path.
 *
 * The repo grew four divergent ways to run an inference — direct
 * NetworkRunner/FunctionalModel calls, engine::InferenceServer
 * futures, ClusterEngine::submit and hand-rolled wire frames over a
 * TcpClient — each with its own input types and failure conventions.
 * Client replaces them with one typed request/response API
 * (InferenceRequest/InferenceResult plus the Status taxonomy of
 * client/status.hh) constructed from an endpoint string
 * (client/endpoint.hh) that resolves to any of the four transports:
 *
 *   local:<backend>...   a one-shard in-process cluster: the
 *                        cluster: engine over in-memory models
 *                        and/or a ModelRegistry
 *   cluster:<dir>...     in-process sharded ClusterEngine(s) via a
 *                        ServingDirectory over a ModelRegistry
 *   tcp://host:port      a remote eie_serve daemon over the binary
 *                        wire protocol (async, id-correlated)
 *   http://host:port     a remote eie_gateway over JSON/HTTP
 *
 * The same request produces bit-exact outputs and identical Status
 * codes on all of them (tests/client/test_client.cc holds that
 * contract), so moving a caller from an in-process prototype to a
 * daemon is an endpoint-string edit. openSession() adds the
 * recurrent half: a Session threads LSTM hidden/cell state across
 * sequential step() calls — the NT-LSTM serving path.
 *
 * Error convention: no method of Client/Session throws; every
 * failure is a Status (in the return, the result, or per frame).
 * The one deliberate exception: misconfigurations the underlying
 * factories treat as fatal (e.g. forcing kernel=vector onto a layer
 * whose formats would overflow the SIMD lanes) stay fatal — they are
 * operator errors, not request errors.
 *
 * Thread safety: Client is safe to share across threads. A Session
 * is strictly sequential (step N+1 consumes step N's state) and must
 * be driven by one thread at a time.
 */

#ifndef EIE_CLIENT_CLIENT_HH
#define EIE_CLIENT_CLIENT_HH

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "client/endpoint.hh"
#include "client/retry.hh"
#include "client/status.hh"
#include "core/config.hh"
#include "core/functional.hh"
#include "core/plan.hh"
#include "engine/server.hh"
#include "nn/tensor.hh"
#include "serve/cluster.hh"

namespace eie::client {

namespace detail {
class Transport;
class SessionImpl;
} // namespace detail

/**
 * One typed inference request: a ragged batch of frames for one
 * model, as raw fixed-point activations or as floats (quantized by
 * the client), plus per-request scheduling knobs. Exactly one of
 * `fixed` / `floats` may be non-empty.
 */
struct InferenceRequest
{
    std::string model;         ///< registry/in-memory model name
    std::uint32_t version = 0; ///< 0 = latest published

    /** Raw fixed-point activation frames (ragged batch: any count,
     *  each frame one full input vector). */
    std::vector<std::vector<std::int64_t>> fixed;

    /** Float activation frames; the client quantizes them into the
     *  endpoint's activation format and fills
     *  InferenceResult::float_outputs. */
    std::vector<nn::Vector> floats;

    std::int32_t priority = 0; ///< higher pops first under load

    /** Time budget per frame from submission; zero = none. */
    std::chrono::microseconds deadline{0};

    /** Whether re-submitting this request is safe. Inference is
     *  naturally idempotent, so this defaults true; clear it for
     *  requests with side effects the caller tracks externally —
     *  ClientOptions::retry only ever retries idempotent requests. */
    bool idempotent = true;
};

/** The response half: per-frame outputs plus the uniform Status. */
struct InferenceResult
{
    /** Ok iff every frame succeeded; otherwise the first failing
     *  frame's status. */
    Status status;

    /** One status per input frame, in request order. */
    std::vector<Status> frame_status;

    /** Raw fixed-point outputs; a failed frame's entry is empty. */
    std::vector<std::vector<std::int64_t>> outputs;

    /** Dequantized outputs, filled only for float requests. */
    std::vector<nn::Vector> float_outputs;

    /** One trace id per input frame (allocated by submit); look the
     *  ids up in Client::traceDump() to see each frame's span
     *  timeline. */
    std::vector<std::uint64_t> trace_ids;

    bool ok() const { return status.ok(); }
};

/** What an endpoint knows about one served model. */
struct ModelInfo
{
    std::string model;
    std::uint32_t version = 0; ///< resolved (never 0 on success)
    std::size_t input_size = 0;
    std::size_t output_size = 0;
    unsigned shards = 1;
    std::string placement = "replicated";
};

/** Aggregate serving statistics of an endpoint. Structured fields
 *  are filled by the in-process transports; `json` carries the
 *  transport-native rendering for every transport. */
struct EndpointStats
{
    std::uint64_t requests = 0;
    std::uint64_t dropped_deadline = 0;
    std::uint64_t requests_shed = 0; ///< rejected by admission control
    double mean_batch = 0.0;
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double p999_latency_us = 0.0;
    std::size_t max_queue_depth = 0;

    std::string json;
};

/** An in-memory model served by a `local:` endpoint — how tools and
 *  examples that build layers on the fly (eie_sim, quickstart) put
 *  them behind the Client API without a registry directory. Served
 *  as built under every request kind: the plans fix their own drain
 *  non-linearities (plan an LSTM gate stack without one). */
struct LocalModel
{
    std::string name;
    /** The compiled stack, execution order; the plans (and what they
     *  point into) must outlive the Client. Served as version 1. */
    std::vector<const core::LayerPlan *> plans;
};

/** Construction-time configuration of a Client. */
struct ClientOptions
{
    /** Machine configuration: planning (local/cluster) and float
     *  quantization. Must match the daemon's for tcp:// endpoints —
     *  raw fixed-point frames are interpreted in its formats. */
    core::EieConfig config;

    /** Micro-batcher policy of every in-process shard: the `local:`
     *  shard's, and ClusterOptions::server's for `cluster:`. */
    engine::ServerOptions server;

    /** Fallback registry directory of `local:` endpoints without a
     *  dir= option. */
    std::string registry;

    /** `cluster:` endpoint defaults; endpoint options override the
     *  matching fields, and `server` above overrides its
     *  micro-batcher policy. */
    serve::ClusterOptions cluster;

    /** In-memory models for `local:` endpoints (looked up before the
     *  registry directory). */
    std::vector<LocalModel> models;

    /** Retry/backoff/timeout policy applied to every idempotent
     *  request (see client/retry.hh). The default retries nothing. */
    RetryPolicy retry;
};

/**
 * A streaming LSTM session: recurrent hidden/cell state threaded
 * across sequential step() calls. Obtained from Client::openSession;
 * closing (or destroying) it releases any server-side state. A
 * Session borrows its Client's transport and must not outlive the
 * Client that opened it.
 */
class Session
{
  public:
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** One committed step's outcome. */
    struct StepResult
    {
        Status status;
        nn::Vector h; ///< new hidden state (empty on failure)

        /** The step's trace id (allocated per step, 0 when the
         *  attempt failed before submission). */
        std::uint64_t trace_id = 0;

        bool ok() const { return status.ok(); }
    };

    /**
     * One time step on input @p x (length inputSize()). On success
     * the state advances and `h` is the new hidden state; on failure
     * (deadline drop, closed endpoint, wrong length...) the state is
     * unchanged and the step may be retried.
     */
    StepResult step(const nn::Vector &x, std::int32_t priority = 0,
                    std::chrono::microseconds deadline =
                        std::chrono::microseconds{0});

    std::size_t inputSize() const;  ///< X: per-step input length
    std::size_t hiddenSize() const; ///< H: hidden state length
    const std::string &model() const;

    /** Committed (successful) steps so far. */
    std::uint64_t steps() const;

    /** Release the session (server-side state included). Idempotent;
     *  further step() calls return Unavailable. */
    void close();

  private:
    friend class Client;
    explicit Session(std::unique_ptr<detail::SessionImpl> impl);

    std::unique_ptr<detail::SessionImpl> impl_;
};

/** The transport-agnostic typed client. */
class Client
{
  public:
    /**
     * Resolve @p endpoint (see client/endpoint.hh for the grammar)
     * and connect. Returns nullptr with @p status set on a malformed
     * endpoint or an unreachable daemon; never throws.
     */
    static std::unique_ptr<Client>
    connect(const std::string &endpoint, const ClientOptions &options,
            Status &status);

    /** connect() with default options (fatal on failure — for
     *  callers without a failure path of their own). */
    static std::unique_ptr<Client>
    connectOrDie(const std::string &endpoint,
                 const ClientOptions &options = {});

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** The endpoint string the client was built from. */
    const std::string &endpoint() const { return endpoint_; }

    /** The resolved transport's name: "local", "cluster", "tcp" or
     *  "http". */
    const char *transport() const;

    /**
     * Submit @p request asynchronously; every frame is in flight at
     * once (pipelined on tcp, micro-batched in process). The future
     * never throws — failures arrive as Status codes in the result.
     * Waiting happens lazily on get().
     */
    std::future<InferenceResult> submit(InferenceRequest request);

    /** Blocking convenience wrapper: submit and wait. */
    InferenceResult infer(const InferenceRequest &request);

    /** Single-frame conveniences for the common case. */
    InferenceResult inferRaw(const std::string &model,
                             std::vector<std::int64_t> frame);
    InferenceResult inferFloat(const std::string &model,
                               const nn::Vector &frame);

    /** Describe @p model at @p version (0 = latest). */
    Status info(const std::string &model, std::uint32_t version,
                ModelInfo &out);

    /**
     * Open a streaming LSTM session on @p model (which must be
     * packed-gate LSTM-shaped: (4H) x (X+H+1); the M×V runs with no
     * drain non-linearity). Returns nullptr with @p status set when
     * the model is missing or not LSTM-shaped.
     */
    std::unique_ptr<Session> openSession(const std::string &model,
                                         std::uint32_t version,
                                         Status &status);

    /** Aggregate serving statistics of the endpoint. */
    Status stats(EndpointStats &out);

    /**
     * Dump the endpoint's span ring as a chrome://tracing JSON
     * document (load it in chrome://tracing or Perfetto). In-process
     * endpoints render this process's ring; tcp endpoints ask the
     * daemon. Look up a request's spans by the trace id submit() put
     * in InferenceResult::trace_ids.
     */
    Status traceDump(std::string &out);

    /** Quantize a float frame into the client's activation format. */
    std::vector<std::int64_t> quantize(const nn::Vector &input) const;

    /** Dequantize a raw output back to floats. */
    nn::Vector dequantize(const std::vector<std::int64_t> &raw) const;

    /** Stop the endpoint's in-process engines / drop the connection.
     *  Idempotent; subsequent requests return Unavailable. */
    void close();

  private:
    Client(std::string endpoint, TransportKind kind,
           const ClientOptions &options,
           std::unique_ptr<detail::Transport> transport);

    std::string endpoint_;
    TransportKind kind_;
    core::FunctionalModel functional_; ///< float <-> raw conversions
    RetryPolicy retry_;
    /** Shared: the deferred futures submit() hands out co-own the
     *  transport so retries work even past the Client's lifetime. */
    std::shared_ptr<detail::Transport> transport_;
};

} // namespace eie::client

#endif // EIE_CLIENT_CLIENT_HH
