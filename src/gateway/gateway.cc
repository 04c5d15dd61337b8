#include "gateway/gateway.hh"

#include <algorithm>
#include <chrono>

#include "obs/json.hh"
#include "obs/metrics.hh"

namespace eie::gateway {

namespace {

using client::Status;
using client::StatusCode;

/** The one Status ↔ HTTP table (README "HTTP gateway" mirrors it). */
int
httpStatusOf(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return 200;
      case StatusCode::InvalidArgument: return 400;
      case StatusCode::NotFound: return 404;
      case StatusCode::DeadlineExpired: return 504;
      case StatusCode::Unavailable: return 503;
      case StatusCode::ProtocolError: return 502;
      case StatusCode::TransportError: return 502;
      case StatusCode::Internal: return 500;
    }
    return 500;
}

/** {"error":{"code":"<name>","message":...}} with the matching HTTP
 *  status. @p http_status overrides the table for the gateway-local
 *  codes (401/403/429 all carry client-facing Status names). */
HttpResponse
errorResponse(StatusCode code, const std::string &message,
              int http_status = 0)
{
    HttpResponse response;
    response.status =
        http_status != 0 ? http_status : httpStatusOf(code);
    obs::JsonWriter body;
    body.beginObject()
        .key("error")
        .beginObject()
        .field("code", client::statusCodeName(code))
        .field("message", message)
        .endObject()
        .endObject();
    response.body = body.str();
    return response;
}

/** Parse the request body as a JSON object, its arrays of numbers
 *  stored as @p arrays says; false → @p bad is the 400 to return. */
bool
parseBodyObject(const HttpRequest &request, obs::JsonValue &out,
                HttpResponse &bad,
                obs::JsonNumberArrays arrays = obs::JsonNumberArrays::Tree)
{
    try {
        out = obs::parseJson(request.body, arrays);
    } catch (const std::exception &exception) {
        bad = errorResponse(StatusCode::InvalidArgument,
                            std::string("malformed JSON body: ") +
                                exception.what());
        return false;
    }
    if (!out.isObject()) {
        bad = errorResponse(StatusCode::InvalidArgument,
                            "request body must be a JSON object");
        return false;
    }
    return true;
}

/**
 * Tier mapping: a request may self-deprioritize below its tenant's
 * tier but never outrank it, and its deadline is clamped to the
 * tenant's cap.
 */
void
applyTier(const TenantConfig &tier, std::int32_t &priority,
          std::chrono::microseconds &deadline)
{
    priority = tier.priority + std::min(priority, std::int32_t{0});
    if (tier.deadline_cap.count() > 0) {
        if (deadline.count() == 0 || deadline > tier.deadline_cap)
            deadline = tier.deadline_cap;
    }
}

/** RAII in-flight hold of one admitted request. */
struct AdmissionHold
{
    std::shared_ptr<TenantState> tenant;

    ~AdmissionHold() { TenantTable::release(tenant); }
};

} // namespace

std::unique_ptr<HttpGateway>
HttpGateway::create(const std::string &backend_endpoint,
                    const GatewayOptions &options, Status &status)
{
    std::unique_ptr<client::Client> backend = client::Client::connect(
        backend_endpoint, options.client, status);
    if (!backend)
        return nullptr;
    try {
        return std::unique_ptr<HttpGateway>(new HttpGateway(
            options, backend_endpoint, std::move(backend)));
    } catch (const std::exception &exception) {
        status = Status::error(StatusCode::Unavailable,
                               exception.what());
        return nullptr;
    }
}

HttpGateway::HttpGateway(const GatewayOptions &options,
                         std::string backend_endpoint,
                         std::unique_ptr<client::Client> backend)
    : options_(options), backend_endpoint_(std::move(backend_endpoint)),
      backend_(std::move(backend)),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::processRegistry())
{
    // Touch the aggregate handles up front so the exposition
    // surfaces show them at zero before the first request.
    registry_->counter("eie_gateway_requests_total");
    registry_->counter("eie_gateway_rejected_total");
    registry_->histogram("eie_gateway_latency_us");
    listener_ = std::make_unique<HttpListener>(
        options_.http,
        [this](const HttpRequest &request) { return handle(request); });
}

HttpGateway::~HttpGateway()
{
    stop();
}

void
HttpGateway::stop()
{
    if (stopped_.exchange(true))
        return;
    listener_->stop();
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        sessions_.clear(); // Session dtors release backend state.
    }
    backend_->close();
}

std::size_t
HttpGateway::openSessions() const
{
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    return sessions_.size();
}

void
HttpGateway::recordRequest(const std::string &tenant,
                           double latency_us)
{
    registry_->counter("eie_gateway_requests_total").add();
    registry_->histogram("eie_gateway_latency_us").record(latency_us);
    if (!tenant.empty()) {
        registry_
            ->counter("eie_gateway_requests_total_" + tenant)
            .add();
        registry_->histogram("eie_gateway_latency_us_" + tenant)
            .record(latency_us);
    }
}

HttpResponse
HttpGateway::handle(const HttpRequest &request)
{
    // Open surfaces first: exposition and stats carry no tenant data
    // a bearer token would protect, and the listener is loopback by
    // default (the same exposure model as --metrics-port).
    if (request.path == "/metrics" ||
        request.path.rfind("/metrics", 0) == 0) {
        HttpResponse response;
        if (request.path.find("json") != std::string::npos) {
            response.body = registry_->renderJson();
        } else {
            response.content_type = "text/plain; version=0.0.4";
            response.body = registry_->renderText();
        }
        return response;
    }
    if (request.path == "/v1/stats") {
        if (request.method != "GET")
            return errorResponse(StatusCode::InvalidArgument,
                                 "use GET on /v1/stats", 405);
        return handleStats();
    }

    // Everything else is the tenant-scoped API.
    std::string tenant_name;
    TenantConfig tier; // anonymous default: no quotas, priority 0
    AdmissionHold hold;
    if (!tenants_.empty()) {
        const std::string *auth = request.header("authorization");
        std::string token;
        if (auth != nullptr) {
            std::string_view value = *auth;
            static constexpr std::string_view kBearer = "Bearer ";
            if (value.size() > kBearer.size()) {
                std::string scheme(value.substr(0, kBearer.size()));
                std::transform(scheme.begin(), scheme.end(),
                               scheme.begin(), ::tolower);
                if (scheme == "bearer ")
                    token = std::string(
                        value.substr(kBearer.size()));
            }
        }
        if (token.empty()) {
            registry_->counter("eie_gateway_rejected_total").add();
            registry_
                ->counter(
                    "eie_gateway_rejected_total_unauthorized")
                .add();
            return errorResponse(
                StatusCode::InvalidArgument,
                "missing or malformed Authorization: Bearer token",
                401);
        }
        std::shared_ptr<TenantState> tenant;
        const Admit outcome = tenants_.admit(
            token, std::chrono::steady_clock::now(), tenant);
        switch (outcome) {
          case Admit::Ok:
            break;
          case Admit::UnknownToken:
            registry_->counter("eie_gateway_rejected_total").add();
            registry_
                ->counter(
                    "eie_gateway_rejected_total_unauthorized")
                .add();
            return errorResponse(StatusCode::InvalidArgument,
                                 "unknown bearer token", 401);
          case Admit::Disabled:
            registry_->counter("eie_gateway_rejected_total").add();
            registry_
                ->counter("eie_gateway_rejected_total_disabled")
                .add();
            return errorResponse(StatusCode::InvalidArgument,
                                 "tenant '" + tenant->name() +
                                     "' is disabled",
                                 403);
          case Admit::RateLimited:
            registry_->counter("eie_gateway_rejected_total").add();
            registry_
                ->counter(
                    "eie_gateway_rejected_total_rate_limited")
                .add();
            return errorResponse(StatusCode::Unavailable,
                                 "tenant '" + tenant->name() +
                                     "' is over its rate limit",
                                 429);
          case Admit::OverQuota:
            registry_->counter("eie_gateway_rejected_total").add();
            registry_
                ->counter("eie_gateway_rejected_total_over_quota")
                .add();
            return errorResponse(
                StatusCode::Unavailable,
                "tenant '" + tenant->name() +
                    "' is over its concurrency quota",
                429);
        }
        hold.tenant = tenant;
        tenant_name = tenant->name();
        tier = tenant->config();
    }

    const auto start = std::chrono::steady_clock::now();
    HttpResponse response;
    if (request.path == "/v1/infer") {
        response = request.method == "POST"
            ? handleInfer(request, tier)
            : errorResponse(StatusCode::InvalidArgument,
                            "use POST on /v1/infer", 405);
    } else if (request.path.rfind("/v1/models/", 0) == 0) {
        response = request.method == "GET"
            ? handleModelInfo(request)
            : errorResponse(StatusCode::InvalidArgument,
                            "use GET on /v1/models/<name>", 405);
    } else if (request.path == "/v1/session/open") {
        response = request.method == "POST"
            ? handleSessionOpen(request, tenant_name)
            : errorResponse(StatusCode::InvalidArgument,
                            "use POST on /v1/session/open", 405);
    } else if (request.path == "/v1/session/step") {
        response = request.method == "POST"
            ? handleSessionStep(request, tenant_name, tier)
            : errorResponse(StatusCode::InvalidArgument,
                            "use POST on /v1/session/step", 405);
    } else if (request.path == "/v1/session/close") {
        response = request.method == "POST"
            ? handleSessionClose(request, tenant_name)
            : errorResponse(StatusCode::InvalidArgument,
                            "use POST on /v1/session/close", 405);
    } else if (request.path == "/v1/trace") {
        if (request.method != "GET") {
            response = errorResponse(StatusCode::InvalidArgument,
                                     "use GET on /v1/trace", 405);
        } else {
            std::string trace;
            const Status status = backend_->traceDump(trace);
            if (status.ok()) {
                response = HttpResponse{};
                response.body = std::move(trace);
            } else {
                response =
                    errorResponse(status.code, status.message);
            }
        }
    } else {
        return errorResponse(StatusCode::NotFound,
                             "no route for '" + request.path + "'");
    }
    const double latency_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    recordRequest(tenant_name, latency_us);
    return response;
}

HttpResponse
HttpGateway::handleInfer(const HttpRequest &request,
                         const TenantConfig &tier)
{
    // Raw frames are exact integers: a value above 2^53 keeps its low
    // bits, and a non-integer or out-of-range one is a 400.
    obs::JsonValue body;
    HttpResponse bad;
    if (!parseBodyObject(request, body, bad,
                         obs::JsonNumberArrays::Int64))
        return bad;

    client::InferenceRequest infer;
    infer.model = body.stringOr("model", "");
    if (infer.model.empty())
        return errorResponse(StatusCode::InvalidArgument,
                             "missing \"model\"");
    infer.version =
        static_cast<std::uint32_t>(body.numberOr("version", 0.0));
    const obs::JsonValue *frames = body.find("frames");
    if (frames == nullptr || !frames->isArray() ||
        frames->array.empty())
        return errorResponse(
            StatusCode::InvalidArgument,
            "missing \"frames\" (non-empty array of arrays)");
    for (const obs::JsonValue &frame : frames->array) {
        if (frame.kind != obs::JsonValue::Kind::Int64Array)
            return errorResponse(StatusCode::InvalidArgument,
                                 "frames must be arrays of numbers");
        infer.fixed.push_back(frame.int64s);
    }
    infer.priority =
        static_cast<std::int32_t>(body.numberOr("priority", 0.0));
    infer.deadline = std::chrono::microseconds(
        static_cast<std::int64_t>(body.numberOr("deadline_us", 0.0)));
    applyTier(tier, infer.priority, infer.deadline);

    const client::InferenceResult result = backend_->infer(infer);

    obs::JsonWriter out;
    out.beginObject()
        .field("code", client::statusCodeName(result.status.code))
        .field("message", result.status.message)
        .key("frames")
        .beginArray();
    for (std::size_t i = 0; i < result.frame_status.size(); ++i) {
        out.beginObject()
            .field("code",
                   client::statusCodeName(
                       result.frame_status[i].code))
            .field("message", result.frame_status[i].message)
            .key("output")
            .int64Array(i < result.outputs.size()
                            ? std::span<const std::int64_t>(
                                  result.outputs[i])
                            : std::span<const std::int64_t>());
        out.field("trace_id",
                  std::uint64_t{i < result.trace_ids.size()
                                    ? result.trace_ids[i]
                                    : 0});
        out.endObject();
    }
    out.endArray().endObject();

    HttpResponse response;
    response.status = httpStatusOf(result.status.code);
    response.body = out.str();
    return response;
}

HttpResponse
HttpGateway::handleModelInfo(const HttpRequest &request)
{
    const std::string name =
        request.path.substr(std::string("/v1/models/").size());
    if (name.empty() ||
        name.find('/') != std::string::npos)
        return errorResponse(StatusCode::InvalidArgument,
                             "use GET /v1/models/<name>");
    std::uint32_t version = 0;
    static constexpr std::string_view kVersion = "version=";
    if (request.query.rfind(kVersion, 0) == 0) {
        const std::string digits(
            request.query.substr(kVersion.size()));
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            return errorResponse(StatusCode::InvalidArgument,
                                 "malformed ?version=");
        version = static_cast<std::uint32_t>(std::stoul(digits));
    } else if (!request.query.empty()) {
        return errorResponse(StatusCode::InvalidArgument,
                             "unknown query parameter");
    }

    client::ModelInfo info;
    const Status status = backend_->info(name, version, info);
    if (!status.ok())
        return errorResponse(status.code, status.message);

    obs::JsonWriter out;
    out.beginObject()
        .field("model", info.model)
        .field("version", std::uint64_t{info.version})
        .field("input_size", std::uint64_t{info.input_size})
        .field("output_size", std::uint64_t{info.output_size})
        .field("shards", std::uint64_t{info.shards})
        .field("placement", info.placement)
        .endObject();
    HttpResponse response;
    response.body = out.str();
    return response;
}

HttpResponse
HttpGateway::handleSessionOpen(const HttpRequest &request,
                               const std::string &tenant)
{
    obs::JsonValue body;
    HttpResponse bad;
    if (!parseBodyObject(request, body, bad))
        return bad;
    const std::string model = body.stringOr("model", "");
    if (model.empty())
        return errorResponse(StatusCode::InvalidArgument,
                             "missing \"model\"");
    const std::uint32_t version =
        static_cast<std::uint32_t>(body.numberOr("version", 0.0));

    Status status;
    std::unique_ptr<client::Session> session =
        backend_->openSession(model, version, status);
    if (!session)
        return errorResponse(status.code, status.message);

    const std::string id =
        "s" + std::to_string(next_session_.fetch_add(1));
    auto entry = std::make_shared<GatewaySession>();
    entry->session = std::move(session);
    entry->tenant = tenant;
    obs::JsonWriter out;
    out.beginObject()
        .field("session", id)
        .field("model", entry->session->model())
        .field("input_size",
               std::uint64_t{entry->session->inputSize()})
        .field("hidden_size",
               std::uint64_t{entry->session->hiddenSize()})
        .endObject();
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        sessions_.emplace(id, std::move(entry));
    }
    HttpResponse response;
    response.body = out.str();
    return response;
}

HttpResponse
HttpGateway::handleSessionStep(const HttpRequest &request,
                               const std::string &tenant,
                               const TenantConfig &tier)
{
    // x crosses as float32 text: read by from_chars(float), never
    // through a double, which misrounds some values.
    obs::JsonValue body;
    HttpResponse bad;
    if (!parseBodyObject(request, body, bad,
                         obs::JsonNumberArrays::Float))
        return bad;
    const std::string id = body.stringOr("session", "");
    std::shared_ptr<GatewaySession> entry;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        const auto it = sessions_.find(id);
        if (it != sessions_.end())
            entry = it->second;
    }
    // A foreign tenant's session id is indistinguishable from an
    // unknown one — ids must not leak across tenants.
    if (!entry || entry->tenant != tenant)
        return errorResponse(StatusCode::NotFound,
                             "unknown session '" + id + "'");

    const obs::JsonValue *x = body.find("x");
    if (x == nullptr || x->kind != obs::JsonValue::Kind::FloatArray)
        return errorResponse(StatusCode::InvalidArgument,
                             "missing \"x\" (array of numbers)");
    std::int32_t priority =
        static_cast<std::int32_t>(body.numberOr("priority", 0.0));
    std::chrono::microseconds deadline(
        static_cast<std::int64_t>(body.numberOr("deadline_us", 0.0)));
    applyTier(tier, priority, deadline);

    client::Session::StepResult result;
    {
        std::lock_guard<std::mutex> lock(entry->mutex);
        result = entry->session->step(x->floats, priority, deadline);
    }
    if (!result.ok())
        return errorResponse(result.status.code,
                             result.status.message);

    obs::JsonWriter out;
    out.beginObject()
        .field("code", client::statusCodeName(StatusCode::Ok))
        .key("h")
        .floatArray(result.h)
        .field("trace_id", std::uint64_t{result.trace_id})
        .endObject();
    HttpResponse response;
    response.body = out.str();
    return response;
}

HttpResponse
HttpGateway::handleSessionClose(const HttpRequest &request,
                                const std::string &tenant)
{
    obs::JsonValue body;
    HttpResponse bad;
    if (!parseBodyObject(request, body, bad))
        return bad;
    const std::string id = body.stringOr("session", "");
    std::shared_ptr<GatewaySession> entry;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        const auto it = sessions_.find(id);
        if (it != sessions_.end() &&
            it->second->tenant == tenant) {
            entry = it->second;
            sessions_.erase(it);
        }
    }
    if (!entry)
        return errorResponse(StatusCode::NotFound,
                             "unknown session '" + id + "'");
    {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->session->close();
    }
    HttpResponse response;
    response.body = "{\"code\":\"OK\"}";
    return response;
}

HttpResponse
HttpGateway::handleStats() const
{
    HttpResponse response;
    response.body = statsJson();
    return response;
}

std::string
HttpGateway::statsJson() const
{
    obs::JsonWriter out;
    out.beginObject();

    out.key("gateway").beginObject();
    out.field("backend", backend_endpoint_);
    out.field("requests",
              registry_->counter("eie_gateway_requests_total")
                  .value());
    out.field("rejected",
              registry_->counter("eie_gateway_rejected_total")
                  .value());
    out.field("open_sessions", std::uint64_t{openSessions()});
    out.field("tenant_generation", tenants_.generation());
    out.field("auth_enabled", !tenants_.empty());
    out.endObject();

    out.key("tenants").beginArray();
    for (const auto &tenant : tenants_.states()) {
        const TenantConfig config = tenant->config();
        out.beginObject()
            .field("name", tenant->name())
            .field("enabled", config.enabled)
            .field("priority", config.priority)
            .field("rate_qps", config.rate_qps)
            .field("burst", config.burst)
            .field("max_concurrent",
                   std::uint64_t{config.max_concurrent})
            .field("deadline_cap_us",
                   static_cast<std::int64_t>(
                       config.deadline_cap.count()))
            .field("in_flight", std::uint64_t{tenant->inFlight()})
            .field("admitted", tenant->admitted())
            .field("rejected_rate", tenant->rejectedRate())
            .field("rejected_quota", tenant->rejectedQuota())
            .field("bucket_level", tenant->bucketLevel());
        const double quota_utilization = config.max_concurrent > 0
            ? static_cast<double>(tenant->inFlight()) /
                static_cast<double>(config.max_concurrent)
            : 0.0;
        out.field("quota_utilization", quota_utilization);
        const obs::LatencySummary latency =
            registry_
                ->histogram("eie_gateway_latency_us_" +
                            tenant->name())
                .snapshot()
                .summary();
        out.key("latency_us")
            .beginObject()
            .field("count", latency.count)
            .field("mean", latency.mean)
            .field("p50", latency.p50)
            .field("p95", latency.p95)
            .field("p99", latency.p99)
            .field("p999", latency.p999)
            .field("max", latency.max)
            .endObject();
        out.endObject();
    }
    out.endArray();

    client::EndpointStats backend_stats;
    const Status status = backend_->stats(backend_stats);
    out.key("backend_stats");
    if (status.ok() && !backend_stats.json.empty())
        out.raw(backend_stats.json);
    else
        out.raw("null");

    out.endObject();
    return out.str();
}

} // namespace eie::gateway
