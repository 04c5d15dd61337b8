/**
 * @file
 * HttpGateway — the multi-tenant HTTP/1.1 front door to the serving
 * stack. It terminates JSON-over-HTTP (infer, model info, streaming
 * sessions, stats), authenticates bearer tokens against a
 * TenantTable, enforces per-tenant token-bucket rate limits and
 * concurrency quotas, maps tenant tiers onto the engine's
 * `SubmitOptions{priority, deadline}`, and proxies to any backend a
 * `client::Client` can reach (`tcp://` daemon, in-process
 * `cluster:`/`local:`) — so the gateway gets retry, failover and the
 * Status taxonomy for free.
 *
 * HTTP surface (all bodies JSON; obs/json.hh on both sides):
 *
 *   POST /v1/infer        {"model","version"?,"frames":[[i64...]...],
 *                          "priority"?,"deadline_us"?}
 *                      -> {"code","message","frames":[{"code",
 *                          "message","output":[i64...],"trace_id"}...]}
 *   GET  /v1/models/NAME[?version=N]
 *                      -> {"model","version","input_size",
 *                          "output_size","shards","placement"}
 *   POST /v1/session/open  {"model","version"?}
 *                      -> {"session","input_size","hidden_size"}
 *   POST /v1/session/step  {"session","x":[f...],"priority"?,
 *                           "deadline_us"?}
 *                      -> {"code","h":[f...],"trace_id"}
 *   POST /v1/session/close {"session"}        -> {"code":"OK"}
 *   GET  /v1/stats      gateway + per-tenant + backend statistics
 *   GET  /metrics[.json | /json]  process metrics exposition
 *
 * i64 arrays are exact integers (a frame value that is not an int64
 * literal is a 400); f arrays are float32, written as the shortest
 * text that reads back to the same float and read by
 * from_chars(float) (README "HTTP gateway" has the whole contract).
 *
 * Status ↔ HTTP mapping (README "HTTP gateway" holds the table):
 * Ok→200, InvalidArgument→400, NotFound→404, DeadlineExpired→504,
 * Unavailable→503, Protocol/TransportError→502, Internal→500;
 * gateway-local 401 (missing/unknown token), 403 (disabled tenant),
 * 429 (rate limit / concurrency quota). Every error body carries
 * {"error":{"code":"<StatusCode name>","message":...}} so the
 * `http://` client transport recovers the exact typed Status.
 *
 * Auth policy: with an empty TenantTable the gateway runs open (every
 * request is the anonymous tenant, no quotas). Once tenants are
 * configured, the /v1/ routes require `Authorization: Bearer
 * <token>`;
 * /v1/stats and /metrics stay open — the listener binds loopback by
 * default, matching the metrics port's exposure model.
 */

#ifndef EIE_GATEWAY_GATEWAY_HH
#define EIE_GATEWAY_GATEWAY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "client/client.hh"
#include "gateway/http.hh"
#include "gateway/tenants.hh"

namespace eie::obs {
class MetricsRegistry;
}

namespace eie::gateway {

/** Construction-time configuration of an HttpGateway. */
struct GatewayOptions
{
    /** HTTP listener knobs (loopback + ephemeral port default). */
    HttpListener::Options http;

    /** Backend client configuration (config/retry/cluster defaults —
     *  see client::ClientOptions). The gateway's config must match a
     *  tcp:// daemon's, exactly like any other client. */
    client::ClientOptions client;

    /** Metrics registry to record into (defaults to the process
     *  registry when null). */
    obs::MetricsRegistry *registry = nullptr;
};

/**
 * The gateway server. Construction dials the backend and binds the
 * listener; requests are served on the listener's connection threads
 * (blocking proxy calls — the backend pipelines internally).
 * Thread-safe throughout.
 */
class HttpGateway
{
  public:
    /**
     * Connect to @p backend_endpoint (client/endpoint.hh grammar)
     * and start listening. Returns nullptr with @p status set on a
     * malformed endpoint, an unreachable backend, or an unbindable
     * port; never throws.
     */
    static std::unique_ptr<HttpGateway>
    create(const std::string &backend_endpoint,
           const GatewayOptions &options, client::Status &status);

    ~HttpGateway();

    HttpGateway(const HttpGateway &) = delete;
    HttpGateway &operator=(const HttpGateway &) = delete;

    /** The bound HTTP port (resolves port 0). */
    std::uint16_t port() const { return listener_->port(); }

    /** The backend endpoint string the gateway proxies to. */
    const std::string &backend() const { return backend_endpoint_; }

    /** The tenant directory — load()/loadFile() it to (re)configure
     *  auth and quotas (the daemon's SIGHUP handler does). */
    TenantTable &tenants() { return tenants_; }

    /** Open streaming sessions held server-side for HTTP clients. */
    std::size_t openSessions() const;

    /** The gateway's /v1/stats document (tests poll it directly). */
    std::string statsJson() const;

    /** Stop the listener, close sessions and the backend client.
     *  Idempotent. */
    void stop();

  private:
    HttpGateway(const GatewayOptions &options,
                std::string backend_endpoint,
                std::unique_ptr<client::Client> backend);

    /** One server-side streaming session owned by an HTTP client. */
    struct GatewaySession
    {
        std::unique_ptr<client::Session> session;
        std::string tenant; ///< owner ("" when auth is off)
        std::mutex mutex;   ///< sessions are strictly sequential
    };

    HttpResponse handle(const HttpRequest &request);
    HttpResponse handleInfer(const HttpRequest &request,
                             const TenantConfig &tier);
    HttpResponse handleModelInfo(const HttpRequest &request);
    HttpResponse handleSessionOpen(const HttpRequest &request,
                                   const std::string &tenant);
    HttpResponse handleSessionStep(const HttpRequest &request,
                                   const std::string &tenant,
                                   const TenantConfig &tier);
    HttpResponse handleSessionClose(const HttpRequest &request,
                                    const std::string &tenant);
    HttpResponse handleStats() const;

    /** Record one finished request against @p tenant ("" = anon). */
    void recordRequest(const std::string &tenant, double latency_us);

    GatewayOptions options_;
    std::string backend_endpoint_;
    std::unique_ptr<client::Client> backend_;
    TenantTable tenants_;
    obs::MetricsRegistry *registry_;

    mutable std::mutex sessions_mutex_;
    std::map<std::string, std::shared_ptr<GatewaySession>> sessions_;
    std::atomic<std::uint64_t> next_session_{1};
    std::atomic<bool> stopped_{false};

    /** Last member: its connection threads call handle(), so it must
     *  be torn down before anything handle() touches. */
    std::unique_ptr<HttpListener> listener_;
};

} // namespace eie::gateway

#endif // EIE_GATEWAY_GATEWAY_HH
