/**
 * @file
 * End-to-end gateway acceptance: the same requests driven through a
 * direct `tcp://` client and through `http://` via the gateway (which
 * itself proxies to the same TCP daemon) are bit-exact and carry
 * identical Status codes — for successes and for the whole error
 * taxonomy (unknown model, bad token, over quota, expired deadline).
 * Multi-tenant admission rides on top: 401/403/429 on the wire with
 * typed bodies, per-tenant quotas that cannot starve other tenants,
 * hot reload, sessions, stats and gateway metrics.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>

#include <unistd.h>

#include "client/client.hh"
#include "core/functional.hh"
#include "gateway/gateway.hh"
#include "helpers.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"

namespace {

using namespace eie;
using namespace std::chrono_literals;
namespace fs = std::filesystem;

constexpr std::size_t kX = 8; ///< LSTM per-step input size
constexpr std::size_t kH = 8; ///< LSTM hidden size

fs::path
scratchDir()
{
    static int counter = 0;
    return fs::temp_directory_path() /
        ("eie_gateway_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
}

core::EieConfig
makeConfig()
{
    core::EieConfig config;
    config.n_pe = 4;
    return config;
}

/**
 * Registry + TCP daemon + gateway in front of it + a direct tcp://
 * client and an http:// client — the two paths the acceptance
 * criteria compare. The gateway records into a scratch registry so
 * metric assertions are hermetic.
 */
struct GatewayFixture
{
    fs::path dir;
    core::EieConfig config;
    compress::CompressedLayer layer;
    serve::ModelRegistry registry;
    serve::ServingDirectory directory;
    serve::TcpServer server;
    core::FunctionalModel functional;
    core::LayerPlan oracle_plan;
    obs::MetricsRegistry metrics;
    std::unique_ptr<gateway::HttpGateway> gateway;

    std::unique_ptr<client::Client> tcp;  ///< direct to the daemon
    std::unique_ptr<client::Client> http; ///< through the gateway

    explicit GatewayFixture(
        const engine::ServerOptions &server_options = {})
        : dir(scratchDir()), config(makeConfig()),
          layer(test::randomCompressedLayer(96, 64, 0.25, 4, 9001)),
          registry(dir.string(), config),
          directory(registry, clusterOptions(server_options)),
          server(directory), functional(config),
          oracle_plan(core::planLayer(layer, nn::Nonlinearity::ReLU,
                                      config))
    {
        registry.publish("fc", 1, layer.storage());
        // An NT-LSTM-shaped model for the session routes:
        // (4H) x (X + H + 1).
        registry.publish("nt-lstm", 1,
                         test::randomCompressedLayer(
                             4 * kH, kX + kH + 1, 0.4, 4, 777)
                             .storage());
        // 97 rows: no H solves 4H = 97, so this can never pass the
        // packed-gate shape check (the session-refusal case).
        registry.publish("fc97", 1,
                         test::randomCompressedLayer(97, 64, 0.25, 4,
                                                     778)
                             .storage());
        server.start();

        gateway::GatewayOptions options;
        options.client = clientOptions();
        options.registry = &metrics;
        client::Status status;
        gateway = gateway::HttpGateway::create(
            "tcp://127.0.0.1:" + std::to_string(server.port()),
            options, status);
        EXPECT_NE(gateway, nullptr) << status.toString();

        tcp = connectOrFail(
            "tcp://127.0.0.1:" + std::to_string(server.port()));
        http = connectOrFail(httpEndpoint());
    }

    ~GatewayFixture()
    {
        if (tcp)
            tcp->close();
        if (http)
            http->close();
        if (gateway)
            gateway->stop();
        server.stop();
        directory.stopAll();
        fs::remove_all(dir);
    }

    std::string
    httpEndpoint(const std::string &token = "") const
    {
        return "http://127.0.0.1:" +
            std::to_string(gateway->port()) +
            (token.empty() ? "" : ",token=" + token);
    }

    static serve::ClusterOptions
    clusterOptions(const engine::ServerOptions &server_options)
    {
        serve::ClusterOptions options;
        options.shards = 2;
        options.server = server_options;
        return options;
    }

    client::ClientOptions
    clientOptions() const
    {
        client::ClientOptions options;
        options.config = config;
        return options;
    }

    std::unique_ptr<client::Client>
    connectOrFail(const std::string &endpoint) const
    {
        client::Status status;
        auto connected = client::Client::connect(
            endpoint, clientOptions(), status);
        EXPECT_NE(connected, nullptr)
            << endpoint << ": " << status.toString();
        return connected;
    }

    std::vector<std::int64_t>
    randomInput(std::uint64_t seed) const
    {
        return functional.quantizeInput(
            test::randomActivations(64, 0.6, seed));
    }

    std::vector<std::int64_t>
    oracle(const std::vector<std::int64_t> &input) const
    {
        return functional.run(oracle_plan, input).output_raw;
    }

    /** One raw exchange against the gateway's HTTP surface. */
    gateway::HttpParsedResponse
    raw(const std::string &method, const std::string &target,
        const std::string &body, const std::string &token = "")
    {
        gateway::HttpClientConnection connection(
            "127.0.0.1", gateway->port());
        std::vector<std::pair<std::string, std::string>> headers;
        if (!token.empty())
            headers.push_back(
                {"Authorization", "Bearer " + token});
        return connection.roundTrip(method, target, headers, body);
    }

    /** The "error.code" name of a typed error body. */
    static std::string
    errorCode(const std::string &body)
    {
        const obs::JsonValue root = obs::parseJson(body);
        const obs::JsonValue *error = root.find("error");
        return error != nullptr ? error->stringOr("code", "")
                                : std::string();
    }
};

TEST(Gateway, HttpTransportIsBitExactWithTcp)
{
    GatewayFixture fx;
    EXPECT_STREQ(fx.http->transport(), "http");

    // Single raw frames: http (through the gateway) must match both
    // the oracle and the direct tcp client bit-exactly.
    for (int i = 0; i < 6; ++i) {
        const auto input = fx.randomInput(100 + i);
        const auto expected = fx.oracle(input);
        const client::InferenceResult via_tcp =
            fx.tcp->inferRaw("fc", input);
        const client::InferenceResult via_http =
            fx.http->inferRaw("fc", input);
        ASSERT_TRUE(via_tcp.ok()) << via_tcp.status.toString();
        ASSERT_TRUE(via_http.ok()) << via_http.status.toString();
        EXPECT_EQ(via_tcp.outputs.front(), expected);
        EXPECT_EQ(via_http.outputs.front(), expected)
            << "request " << i;
    }

    // A ragged batch pipelines through the gateway per frame.
    client::InferenceRequest batch;
    batch.model = "fc";
    for (int i = 0; i < 5; ++i)
        batch.fixed.push_back(fx.randomInput(200 + i));
    const client::InferenceResult result = fx.http->infer(batch);
    ASSERT_TRUE(result.ok()) << result.status.toString();
    ASSERT_EQ(result.outputs.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(result.frame_status[i].ok());
        EXPECT_EQ(result.outputs[i], fx.oracle(batch.fixed[i]))
            << "frame " << i;
    }

    // Float frames: the client quantizes before the transport, so
    // both paths see identical fixed frames and return identical
    // floats.
    const nn::Vector float_input =
        test::randomActivations(64, 0.5, 424242);
    const client::InferenceResult float_tcp =
        fx.tcp->inferFloat("fc", float_input);
    const client::InferenceResult float_http =
        fx.http->inferFloat("fc", float_input);
    ASSERT_TRUE(float_tcp.ok());
    ASSERT_TRUE(float_http.ok());
    EXPECT_EQ(float_http.outputs.front(),
              float_tcp.outputs.front());
    EXPECT_EQ(float_http.float_outputs.front(),
              float_tcp.float_outputs.front());

    // Model info agrees.
    client::ModelInfo tcp_info, http_info;
    ASSERT_TRUE(fx.tcp->info("fc", 0, tcp_info).ok());
    ASSERT_TRUE(fx.http->info("fc", 0, http_info).ok());
    EXPECT_EQ(http_info.model, tcp_info.model);
    EXPECT_EQ(http_info.version, tcp_info.version);
    EXPECT_EQ(http_info.input_size, tcp_info.input_size);
    EXPECT_EQ(http_info.output_size, tcp_info.output_size);

    // Stats and trace flow through.
    client::EndpointStats stats;
    ASSERT_TRUE(fx.http->stats(stats).ok());
    EXPECT_FALSE(stats.json.empty());
    EXPECT_GE(stats.requests, 6u);
    std::string trace;
    EXPECT_TRUE(fx.http->traceDump(trace).ok());
    EXPECT_FALSE(trace.empty());
}

TEST(Gateway, StatusTaxonomyMatchesTcpForErrors)
{
    engine::ServerOptions slow;
    slow.max_batch = 1000;
    slow.max_delay = std::chrono::milliseconds(200);
    GatewayFixture fx(slow);

    // Unknown model -> NOT_FOUND on both paths, infer and info.
    for (client::Client *c : {fx.tcp.get(), fx.http.get()}) {
        EXPECT_EQ(c->inferRaw("missing", fx.randomInput(1)).status
                      .code,
                  client::StatusCode::NotFound)
            << c->endpoint();
        client::ModelInfo info;
        EXPECT_EQ(c->info("missing", 0, info).code,
                  client::StatusCode::NotFound)
            << c->endpoint();
    }

    // Wrong input length -> INVALID_ARGUMENT, and the endpoint
    // stays usable afterwards.
    for (client::Client *c : {fx.tcp.get(), fx.http.get()}) {
        EXPECT_EQ(
            c->inferRaw("fc", std::vector<std::int64_t>(3, 1))
                .status.code,
            client::StatusCode::InvalidArgument)
            << c->endpoint();
        const auto input = fx.randomInput(2);
        EXPECT_EQ(c->inferRaw("fc", input).outputs.front(),
                  fx.oracle(input))
            << c->endpoint();
    }

    // Expired deadlines -> DEADLINE_EXPIRED on both paths (the slow
    // forming server guarantees the frames expire queued).
    for (client::Client *c : {fx.tcp.get(), fx.http.get()}) {
        client::InferenceRequest request;
        request.model = "fc";
        request.deadline = std::chrono::milliseconds(2);
        for (int i = 0; i < 4; ++i)
            request.fixed.push_back(fx.randomInput(10 + i));
        const client::InferenceResult result = c->infer(request);
        EXPECT_EQ(result.status.code,
                  client::StatusCode::DeadlineExpired)
            << c->endpoint() << ": " << result.status.toString();
    }

    // A closed http client is UNAVAILABLE like every transport.
    fx.http->close();
    EXPECT_EQ(fx.http->inferRaw("fc", fx.randomInput(3)).status.code,
              client::StatusCode::Unavailable);
}

TEST(Gateway, MalformedNumberInABodyIsInvalidArgument)
{
    // A frame of the right length whose first value is "1.2.3" is a
    // malformed body, not a frame that starts with 1.2: the gateway
    // answers 400 before anything is served.
    GatewayFixture fx;
    const auto body = [](const std::string &first) {
        std::string frame = first;
        for (int i = 1; i < 64; ++i)
            frame += ",0";
        return R"({"model":"fc","frames":[[)" + frame + "]]}";
    };
    EXPECT_EQ(fx.raw("POST", "/v1/infer", body("1")).status, 200);
    const auto bad = fx.raw("POST", "/v1/infer", body("1.2.3"));
    EXPECT_EQ(bad.status, 400);
    EXPECT_EQ(GatewayFixture::errorCode(bad.body), "INVALID_ARGUMENT");
    EXPECT_NE(bad.body.find("bad number"), std::string::npos)
        << bad.body;
}

TEST(Gateway, FrameValuesMustBeInt64Literals)
{
    // A well-formed number that is not an int64 literal (a fraction,
    // an exponent, a magnitude of 2^63 or more) is a 400, not a value
    // cast through a double: 1.5 is not served as 1, nor 1e30 as
    // whatever an out-of-range conversion yields.
    GatewayFixture fx;
    const auto body = [](const std::string &last) {
        std::string frame;
        for (int i = 1; i < 64; ++i)
            frame += "0,";
        return R"({"model":"fc","frames":[[)" + frame + last + "]]}";
    };
    EXPECT_EQ(fx.raw("POST", "/v1/infer", body("7")).status, 200);
    for (const char *value : {"1e30", "-1e30", "1.5", "5.0", "1e3",
                              "9223372036854775808"}) {
        const auto bad = fx.raw("POST", "/v1/infer", body(value));
        EXPECT_EQ(bad.status, 400) << value;
        EXPECT_EQ(GatewayFixture::errorCode(bad.body),
                  "INVALID_ARGUMENT")
            << value;
        EXPECT_NE(bad.body.find("not a 64-bit integer"),
                  std::string::npos)
            << bad.body;
    }
}

TEST(Gateway, RawFramesAndOutputsCrossExactly)
{
    // Integers above 2^53 keep their low bits on every leg of the
    // gateway: the request body it parses, the frame it forwards to
    // its backend and the output it reads back and returns. The
    // backend is a stub http:// server (a real model saturates such
    // inputs) that records the body it is sent and answers with the
    // same values as the frame's output.
    const std::vector<std::int64_t> values = {
        9007199254740993, // 2^53 + 1: a double rounds it to ...992
        -9007199254740993,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
        0,
    };
    std::mutex mutex;
    std::string forwarded;
    gateway::HttpListener stub(
        {}, [&](const gateway::HttpRequest &request) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                forwarded = request.body;
            }
            obs::JsonWriter out;
            out.beginObject()
                .field("code", "OK")
                .field("message", "")
                .key("frames")
                .beginArray()
                .beginObject()
                .field("code", "OK")
                .field("message", "")
                .key("output")
                .int64Array(values)
                .field("trace_id", std::uint64_t{0})
                .endObject()
                .endArray()
                .endObject();
            gateway::HttpResponse response;
            response.body = out.str();
            return response;
        });
    obs::MetricsRegistry metrics;
    gateway::GatewayOptions options;
    options.client.config = makeConfig();
    options.registry = &metrics;
    client::Status status;
    const auto front = gateway::HttpGateway::create(
        "http://127.0.0.1:" + std::to_string(stub.port()), options,
        status);
    ASSERT_NE(front, nullptr) << status.toString();

    gateway::HttpClientConnection connection("127.0.0.1", front->port());
    const gateway::HttpParsedResponse response = connection.roundTrip(
        "POST", "/v1/infer", {},
        "{\"model\":\"fc\",\"frames\":[[9007199254740993,"
        "-9007199254740993,9223372036854775807,"
        "-9223372036854775808,0]]}");
    ASSERT_EQ(response.status, 200) << response.body;
    {
        std::lock_guard<std::mutex> lock(mutex);
        const obs::JsonValue sent =
            obs::parseJson(forwarded, obs::JsonNumberArrays::Int64);
        const obs::JsonValue *frames = sent.find("frames");
        ASSERT_NE(frames, nullptr) << forwarded;
        ASSERT_EQ(frames->array.size(), 1u) << forwarded;
        EXPECT_EQ(frames->array[0].int64s, values) << forwarded;
    }
    const obs::JsonValue answer =
        obs::parseJson(response.body, obs::JsonNumberArrays::Int64);
    const obs::JsonValue *frames = answer.find("frames");
    ASSERT_NE(frames, nullptr) << response.body;
    ASSERT_EQ(frames->array.size(), 1u) << response.body;
    const obs::JsonValue *output = frames->array[0].find("output");
    ASSERT_NE(output, nullptr) << response.body;
    EXPECT_EQ(output->int64s, values) << response.body;
    front->stop();
    stub.stop();
}

TEST(Gateway, AuthQuotasAndTiersEnforcePerTenant)
{
    GatewayFixture fx;
    fx.gateway->tenants().load(gateway::loadTenantConfigs(R"({
        "tenants":[
            {"name":"acme","token":"tok-acme","priority":5,
             "deadline_cap_us":2000000},
            {"name":"metered","token":"tok-metered",
             "rate_qps":0.001,"burst":1},
            {"name":"lapsed","token":"tok-lapsed","enabled":false}
        ]})"));

    const auto input = fx.randomInput(42);
    const auto expected = fx.oracle(input);

    // No token / wrong token -> 401 with a typed body; the client
    // surfaces INVALID_ARGUMENT.
    EXPECT_EQ(fx.http->inferRaw("fc", input).status.code,
              client::StatusCode::InvalidArgument);
    auto bad_token = fx.connectOrFail(fx.httpEndpoint("wrong"));
    EXPECT_EQ(bad_token->inferRaw("fc", input).status.code,
              client::StatusCode::InvalidArgument);
    bad_token->close();

    // A valid tenant works and is bit-exact.
    auto acme = fx.connectOrFail(fx.httpEndpoint("tok-acme"));
    const client::InferenceResult ok = acme->inferRaw("fc", input);
    ASSERT_TRUE(ok.ok()) << ok.status.toString();
    EXPECT_EQ(ok.outputs.front(), expected);

    // A disabled tenant authenticates but is refused (403).
    auto lapsed = fx.connectOrFail(fx.httpEndpoint("tok-lapsed"));
    EXPECT_EQ(lapsed->inferRaw("fc", input).status.code,
              client::StatusCode::InvalidArgument);
    lapsed->close();

    // The metered tenant has burst 1 and a ~nil refill rate: its
    // first request is admitted, the next is 429/UNAVAILABLE — while
    // acme's requests keep completing (no cross-tenant starvation).
    auto metered = fx.connectOrFail(fx.httpEndpoint("tok-metered"));
    ASSERT_TRUE(metered->inferRaw("fc", input).ok());
    const client::InferenceResult limited =
        metered->inferRaw("fc", input);
    EXPECT_EQ(limited.status.code, client::StatusCode::Unavailable)
        << limited.status.toString();
    for (int i = 0; i < 3; ++i) {
        const client::InferenceResult still_ok =
            acme->inferRaw("fc", input);
        ASSERT_TRUE(still_ok.ok()) << still_ok.status.toString();
        EXPECT_EQ(still_ok.outputs.front(), expected);
    }
    metered->close();

    // Raw wire statuses + body codes: the table the README pins.
    EXPECT_EQ(fx.raw("POST", "/v1/infer", "{}").status, 401);
    EXPECT_EQ(GatewayFixture::errorCode(
                  fx.raw("POST", "/v1/infer", "{}").body),
              "INVALID_ARGUMENT");
    EXPECT_EQ(fx.raw("POST", "/v1/infer", "{}", "tok-lapsed").status,
              403);
    const auto over = fx.raw("POST", "/v1/infer", "{}",
                             "tok-metered");
    EXPECT_EQ(over.status, 429);
    EXPECT_EQ(GatewayFixture::errorCode(over.body), "UNAVAILABLE");
    EXPECT_EQ(fx.raw("GET", "/v1/nope", "", "tok-acme").status, 404);
    EXPECT_EQ(fx.raw("GET", "/v1/infer", "", "tok-acme").status,
              405);
    // Stats stay open (no token) even with auth on.
    EXPECT_EQ(fx.raw("GET", "/v1/stats", "").status, 200);

    // Per-tenant accounting lands in /v1/stats.
    const obs::JsonValue stats =
        obs::parseJson(fx.gateway->statsJson());
    EXPECT_TRUE(
        stats.find("gateway")->find("auth_enabled")->boolean);
    bool saw_metered = false;
    for (const obs::JsonValue &tenant :
         stats.find("tenants")->array) {
        if (tenant.stringOr("name", "") != "metered")
            continue;
        saw_metered = true;
        EXPECT_GE(tenant.numberOr("admitted", 0), 1.0);
        EXPECT_GE(tenant.numberOr("rejected_rate", 0), 1.0);
    }
    EXPECT_TRUE(saw_metered);

    // Hot reload: rotate acme's token; the old one dies, the new one
    // works, counters survive (same runtime state).
    fx.gateway->tenants().load(gateway::loadTenantConfigs(R"({
        "tenants":[{"name":"acme","token":"tok-acme2"}]})"));
    EXPECT_EQ(acme->inferRaw("fc", input).status.code,
              client::StatusCode::InvalidArgument);
    acme->close();
    auto acme2 = fx.connectOrFail(fx.httpEndpoint("tok-acme2"));
    EXPECT_TRUE(acme2->inferRaw("fc", input).ok());
    acme2->close();

    // Gateway metrics landed in the scratch registry.
    const std::string text = fx.metrics.renderText();
    EXPECT_NE(text.find("eie_gateway_requests_total"),
              std::string::npos);
    EXPECT_NE(text.find("eie_gateway_requests_total_acme"),
              std::string::npos);
    EXPECT_NE(text.find("eie_gateway_rejected_total_rate_limited"),
              std::string::npos);
    EXPECT_NE(text.find("eie_gateway_rejected_total_unauthorized"),
              std::string::npos);
}

TEST(Gateway, SessionsStreamBitExactWithTcp)
{
    GatewayFixture fx;

    client::Status status;
    auto tcp_session = fx.tcp->openSession("nt-lstm", 0, status);
    ASSERT_NE(tcp_session, nullptr) << status.toString();
    auto http_session = fx.http->openSession("nt-lstm", 0, status);
    ASSERT_NE(http_session, nullptr) << status.toString();
    EXPECT_EQ(fx.gateway->openSessions(), 1u);

    EXPECT_EQ(http_session->inputSize(), kX);
    EXPECT_EQ(http_session->hiddenSize(), kH);
    EXPECT_EQ(http_session->model(), "nt-lstm");

    // The recurrent trajectory must match step for step. The hidden
    // state travels as shortest float32 text, read back by
    // from_chars(float), which carries any float exactly.
    for (int t = 0; t < 6; ++t) {
        const nn::Vector x =
            test::randomActivations(kX, 0.8, 7000 + t);
        const auto via_tcp = tcp_session->step(x);
        const auto via_http = http_session->step(x);
        ASSERT_TRUE(via_tcp.ok()) << via_tcp.status.toString();
        ASSERT_TRUE(via_http.ok()) << via_http.status.toString();
        ASSERT_EQ(via_http.h.size(), via_tcp.h.size());
        for (std::size_t i = 0; i < via_tcp.h.size(); ++i)
            EXPECT_EQ(via_http.h[i], via_tcp.h[i])
                << "step " << t << " h[" << i << "]";
    }
    EXPECT_EQ(http_session->steps(), 6u);

    // Wrong step width is INVALID_ARGUMENT with state intact.
    EXPECT_EQ(http_session->step(nn::Vector(kX + 3, 0.f)).status.code,
              client::StatusCode::InvalidArgument);
    EXPECT_EQ(http_session->steps(), 6u);

    // Non-LSTM models refuse to open, with the same code as tcp.
    client::Status tcp_refused, http_refused;
    EXPECT_EQ(fx.tcp->openSession("fc97", 0, tcp_refused), nullptr);
    EXPECT_EQ(fx.http->openSession("fc97", 0, http_refused),
              nullptr);
    EXPECT_EQ(http_refused.code, tcp_refused.code)
        << http_refused.toString() << " vs "
        << tcp_refused.toString();

    http_session->close();
    EXPECT_EQ(fx.gateway->openSessions(), 0u);
    EXPECT_EQ(http_session->step(nn::Vector(kX, 0.f)).status.code,
              client::StatusCode::Unavailable);
    tcp_session->close();

    // Stepping an unknown session id over the raw wire is 404.
    const auto stale = fx.raw(
        "POST", "/v1/session/step",
        R"({"session":"s999","x":[0,0,0,0,0,0,0,0]})");
    EXPECT_EQ(stale.status, 404);
    EXPECT_EQ(GatewayFixture::errorCode(stale.body), "NOT_FOUND");
}

TEST(Gateway, CreateFailsTypedOnBadBackendOrPort)
{
    gateway::GatewayOptions options;
    options.client.config = makeConfig();
    client::Status status;

    // Malformed backend endpoint.
    EXPECT_EQ(gateway::HttpGateway::create("warp://x", options,
                                           status),
              nullptr);
    EXPECT_EQ(status.code, client::StatusCode::InvalidArgument);

    // Unreachable tcp backend.
    EXPECT_EQ(gateway::HttpGateway::create("tcp://127.0.0.1:1",
                                           options, status),
              nullptr);
    EXPECT_EQ(status.code, client::StatusCode::TransportError)
        << status.toString();
}

} // namespace
