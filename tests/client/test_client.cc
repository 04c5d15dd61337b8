/**
 * @file
 * The client-API equivalence suite — the tentpole contract of
 * eie::client::Client: the same requests driven through a `local:`,
 * a `cluster:` and a `tcp://` endpoint produce bit-exact outputs and
 * identical Status codes. One registry directory backs all three
 * (the TCP daemon runs in-process on a loopback socket), and the
 * FunctionalModel oracle on the original pre-file plan anchors
 * bit-exactness.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <future>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "client/client.hh"
#include "core/functional.hh"
#include "helpers.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"
#include "serve/wire.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

fs::path
scratchDir(const char *tag)
{
    static int counter = 0;
    return fs::temp_directory_path() /
        ("eie_client_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
}

core::EieConfig
makeConfig()
{
    core::EieConfig config;
    config.n_pe = 4;
    return config;
}

/** Registry + daemon + one Client per transport, same model files. */
struct TransportTrio
{
    fs::path dir;
    core::EieConfig config;
    compress::CompressedLayer layer;
    serve::ModelRegistry registry;
    serve::ServingDirectory directory;
    serve::TcpServer server;
    core::FunctionalModel functional;
    core::LayerPlan oracle_plan;

    std::vector<std::unique_ptr<client::Client>> clients;

    explicit TransportTrio(
        const engine::ServerOptions &server_options = {})
        : dir(scratchDir("trio")), config(makeConfig()),
          layer(test::randomCompressedLayer(96, 64, 0.25, 4, 9001)),
          registry(dir.string(), config),
          directory(registry, clusterOptions(server_options)),
          server(directory), functional(config),
          oracle_plan(core::planLayer(layer, nn::Nonlinearity::ReLU,
                                      config))
    {
        registry.publish("fc", 1, layer.storage());
        server.start();

        client::ClientOptions options;
        options.config = config;
        options.server = server_options;
        options.cluster = clusterOptions(server_options);

        clients.push_back(connectOrFail(
            "local:compiled,dir=" + dir.string(), options));
        clients.push_back(connectOrFail(
            "cluster:" + dir.string() + ",shards=2", options));
        clients.push_back(connectOrFail(
            "tcp://127.0.0.1:" + std::to_string(server.port()),
            options));
    }

    ~TransportTrio()
    {
        for (auto &client : clients)
            client->close();
        server.stop();
        directory.stopAll();
        fs::remove_all(dir);
    }

    static serve::ClusterOptions
    clusterOptions(const engine::ServerOptions &server_options)
    {
        serve::ClusterOptions options;
        options.shards = 2;
        options.server = server_options;
        return options;
    }

    static std::unique_ptr<client::Client>
    connectOrFail(const std::string &endpoint,
                  const client::ClientOptions &options)
    {
        client::Status status;
        auto connected =
            client::Client::connect(endpoint, options, status);
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

    /** The FunctionalModel oracle on the original (pre-file) plan. */
    std::vector<std::int64_t>
    oracle(const std::vector<std::int64_t> &input) const
    {
        return functional.run(oracle_plan, input).output_raw;
    }
};

TEST(ClientEquivalence, SameRequestsSameBitsOnEveryTransport)
{
    TransportTrio trio;

    // Single raw frames: every transport must match the oracle (and
    // therefore each other) bit-exactly.
    for (int i = 0; i < 8; ++i) {
        const auto input = trio.randomInput(100 + i);
        const auto expected = trio.oracle(input);
        for (auto &client : trio.clients) {
            const client::InferenceResult result =
                client->inferRaw("fc", input);
            ASSERT_TRUE(result.ok())
                << client->endpoint() << ": "
                << result.status.toString();
            EXPECT_EQ(result.outputs.front(), expected)
                << client->endpoint() << " request " << i;
        }
    }

    // A ragged batch (5 frames in one request): per-frame outputs in
    // request order, all Ok, all bit-exact, on all transports.
    client::InferenceRequest batch;
    batch.model = "fc";
    for (int i = 0; i < 5; ++i)
        batch.fixed.push_back(trio.randomInput(200 + i));
    for (auto &client : trio.clients) {
        const client::InferenceResult result = client->infer(batch);
        ASSERT_TRUE(result.ok()) << client->endpoint();
        ASSERT_EQ(result.outputs.size(), 5u);
        ASSERT_EQ(result.frame_status.size(), 5u);
        for (int i = 0; i < 5; ++i) {
            EXPECT_TRUE(result.frame_status[i].ok());
            EXPECT_EQ(result.outputs[i],
                      trio.oracle(batch.fixed[i]))
                << client->endpoint() << " frame " << i;
        }
    }

    // Float frames: the client quantizes on the way in and fills
    // float_outputs on the way out — identically everywhere.
    const nn::Vector float_input =
        test::randomActivations(64, 0.5, 424242);
    std::vector<client::InferenceResult> float_results;
    for (auto &client : trio.clients) {
        float_results.push_back(
            client->inferFloat("fc", float_input));
        ASSERT_TRUE(float_results.back().ok())
            << client->endpoint();
        ASSERT_EQ(float_results.back().float_outputs.size(), 1u);
    }
    for (std::size_t c = 1; c < float_results.size(); ++c) {
        EXPECT_EQ(float_results[c].outputs.front(),
                  float_results[0].outputs.front());
        EXPECT_EQ(float_results[c].float_outputs.front(),
                  float_results[0].float_outputs.front());
    }

    // An empty request is trivially Ok (a ragged batch may be empty).
    client::InferenceRequest empty;
    empty.model = "fc";
    for (auto &client : trio.clients) {
        const client::InferenceResult result = client->infer(empty);
        EXPECT_TRUE(result.ok());
        EXPECT_TRUE(result.outputs.empty());
    }
}

TEST(ClientEquivalence, ModelInfoAgreesAcrossTransports)
{
    TransportTrio trio;
    for (auto &client : trio.clients) {
        client::ModelInfo info;
        const client::Status status = client->info("fc", 0, info);
        ASSERT_TRUE(status.ok())
            << client->endpoint() << ": " << status.toString();
        EXPECT_EQ(info.model, "fc");
        EXPECT_EQ(info.version, 1u);
        EXPECT_EQ(info.input_size, 64u);
        EXPECT_EQ(info.output_size, 96u);
    }
}

TEST(ClientEquivalence, StatusTaxonomyIsIdenticalAcrossTransports)
{
    TransportTrio trio;

    // Unknown model -> NOT_FOUND, from infer and info alike.
    for (auto &client : trio.clients) {
        const client::InferenceResult result =
            client->inferRaw("missing", trio.randomInput(300));
        EXPECT_EQ(result.status.code, client::StatusCode::NotFound)
            << client->endpoint() << ": "
            << result.status.toString();
        client::ModelInfo info;
        EXPECT_EQ(client->info("missing", 0, info).code,
                  client::StatusCode::NotFound)
            << client->endpoint();
    }

    // Wrong input length -> INVALID_ARGUMENT (an error response, not
    // a dead endpoint — a good frame right after must succeed).
    for (auto &client : trio.clients) {
        const client::InferenceResult result =
            client->inferRaw("fc", std::vector<std::int64_t>(3, 1));
        EXPECT_EQ(result.status.code,
                  client::StatusCode::InvalidArgument)
            << client->endpoint() << ": "
            << result.status.toString();
        const auto input = trio.randomInput(301);
        EXPECT_EQ(client->inferRaw("fc", input).outputs.front(),
                  trio.oracle(input))
            << client->endpoint();
    }

    // Mixed fixed+float frames -> INVALID_ARGUMENT before any
    // transport is touched.
    client::InferenceRequest mixed;
    mixed.model = "fc";
    mixed.fixed.push_back(trio.randomInput(302));
    mixed.floats.push_back(test::randomActivations(64, 0.5, 303));
    for (auto &client : trio.clients)
        EXPECT_EQ(client->infer(mixed).status.code,
                  client::StatusCode::InvalidArgument);

    // Closed endpoint -> UNAVAILABLE everywhere.
    for (auto &client : trio.clients) {
        client->close();
        const client::InferenceResult result =
            client->inferRaw("fc", trio.randomInput(304));
        EXPECT_EQ(result.status.code,
                  client::StatusCode::Unavailable)
            << client->endpoint() << ": "
            << result.status.toString();
    }
}

TEST(ClientEquivalence, DeadlineDropsAreDeadlineExpiredEverywhere)
{
    // Forming deadline far beyond the request deadlines and a batch
    // cap a small burst cannot reach: every request expires queued,
    // on every transport.
    engine::ServerOptions slow;
    slow.max_batch = 1000;
    slow.max_delay = std::chrono::milliseconds(200);
    TransportTrio trio(slow);

    for (auto &client : trio.clients) {
        client::InferenceRequest request;
        request.model = "fc";
        request.deadline = std::chrono::milliseconds(2);
        for (int i = 0; i < 4; ++i)
            request.fixed.push_back(trio.randomInput(400 + i));
        const client::InferenceResult result =
            client->infer(request);
        EXPECT_EQ(result.status.code,
                  client::StatusCode::DeadlineExpired)
            << client->endpoint() << ": "
            << result.status.toString();
        for (const client::Status &frame : result.frame_status)
            EXPECT_EQ(frame.code,
                      client::StatusCode::DeadlineExpired)
                << client->endpoint();
    }
}

TEST(ClientEquivalence, EndpointStatsCountRequests)
{
    TransportTrio trio;
    for (auto &client : trio.clients)
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(
                client->inferRaw("fc", trio.randomInput(500 + i))
                    .ok());
    for (auto &client : trio.clients) {
        client::EndpointStats stats;
        ASSERT_TRUE(client->stats(stats).ok())
            << client->endpoint();
        EXPECT_FALSE(stats.json.empty()) << client->endpoint();
        if (std::string(client->transport()) != "tcp")
            EXPECT_GE(stats.requests, 4u) << client->endpoint();
    }
}

TEST(ClientEquivalence, TransportNamesResolve)
{
    TransportTrio trio;
    EXPECT_STREQ(trio.clients[0]->transport(), "local");
    EXPECT_STREQ(trio.clients[1]->transport(), "cluster");
    EXPECT_STREQ(trio.clients[2]->transport(), "tcp");
}

TEST(Client, ConnectRejectsBadEndpointsAndDeadDaemons)
{
    client::ClientOptions options;
    options.config = makeConfig();
    client::Status status;

    EXPECT_EQ(client::Client::connect("warp://nowhere", options,
                                      status),
              nullptr);
    EXPECT_EQ(status.code, client::StatusCode::InvalidArgument);

    // A refused TCP connection is a transport failure, not a crash.
    EXPECT_EQ(client::Client::connect("tcp://127.0.0.1:1", options,
                                      status),
              nullptr);
    EXPECT_EQ(status.code, client::StatusCode::TransportError)
        << status.toString();

    // A local endpoint with neither in-memory models nor a registry
    // connects (endpoints are cheap) but serves nothing.
    auto empty = client::Client::connect("local:compiled", options,
                                         status);
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->inferRaw("fc", {1, 2, 3}).status.code,
              client::StatusCode::NotFound);
}

TEST(Client, MalformedServerFramesAreProtocolErrors)
{
    // A fake daemon that handshakes correctly, then answers the
    // first request with an absurd frame: the pending future must
    // resolve with PROTOCOL_ERROR (distinct from a clean close's
    // UNAVAILABLE).
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&bound),
                            &bound_len),
              0);
    const std::uint16_t port = ntohs(bound.sin_port);

    std::thread fake_server([listener] {
        const int fd = ::accept(listener, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        // Read the Hello (9 bytes), answer a well-formed ack.
        std::uint8_t hello[9];
        std::size_t at = 0;
        while (at < sizeof(hello)) {
            const ssize_t got =
                ::recv(fd, hello + at, sizeof(hello) - at, 0);
            ASSERT_GT(got, 0);
            at += static_cast<std::size_t>(got);
        }
        const auto ack =
            serve::wire::encodeFrame(serve::wire::HelloAck{});
        ::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL);
        // Read the request's length prefix, then answer garbage.
        std::uint32_t len = 0;
        ASSERT_EQ(::recv(fd, &len, 4, MSG_WAITALL), 4);
        std::vector<std::uint8_t> request(len);
        ASSERT_EQ(::recv(fd, request.data(), len, MSG_WAITALL),
                  static_cast<ssize_t>(len));
        const std::uint32_t absurd = 0xffffffffu;
        ::send(fd, &absurd, 4, MSG_NOSIGNAL);
        char byte = 0;
        ::recv(fd, &byte, 1, 0); // wait for the client to bail
        ::close(fd);
    });

    client::ClientOptions options;
    options.config = makeConfig();
    client::Status status;
    auto client = client::Client::connect(
        "tcp://127.0.0.1:" + std::to_string(port), options, status);
    ASSERT_NE(client, nullptr) << status.toString();

    const client::InferenceResult result =
        client->inferRaw("fc", std::vector<std::int64_t>(4, 1));
    EXPECT_EQ(result.status.code, client::StatusCode::ProtocolError)
        << result.status.toString();

    client->close();
    fake_server.join();
    ::close(listener);
}

TEST(Client, AReplyOfTheWrongTypeIsAProtocolError)
{
    // A fake daemon that handshakes, then answers the first request's
    // id with an InfoResponse. The infer must resolve PROTOCOL_ERROR
    // at once rather than wait for the connection to close. The
    // daemon closes after 10 s without the client bailing, so a
    // client that drops the stray reply fails this test instead of
    // hanging it.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&bound),
                            &bound_len),
              0);
    const std::uint16_t port = ntohs(bound.sin_port);

    std::thread fake_server([listener] {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            return;
        const timeval patience{10, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                     sizeof(patience));
        std::uint8_t hello[9];
        std::uint32_t len = 0;
        if (::recv(fd, hello, sizeof(hello), MSG_WAITALL) ==
                static_cast<ssize_t>(sizeof(hello))) {
            const auto ack =
                serve::wire::encodeFrame(serve::wire::HelloAck{});
            ::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL);
        }
        if (::recv(fd, &len, 4, MSG_WAITALL) == 4 && len < 4096) {
            std::vector<std::uint8_t> body(len);
            if (::recv(fd, body.data(), len, MSG_WAITALL) ==
                static_cast<ssize_t>(len)) {
                const serve::wire::Message request =
                    serve::wire::decodeBody(body);
                serve::wire::InfoResponse info;
                if (const auto *infer =
                        std::get_if<serve::wire::InferRequest>(&request))
                    info.id = infer->id;
                info.ok = true;
                const auto reply = serve::wire::encodeFrame(info);
                ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
            }
        }
        char byte = 0;
        ::recv(fd, &byte, 1, 0); // the client bails, or patience ends
        ::close(fd);
    });

    client::ClientOptions options;
    options.config = makeConfig();
    client::Status status;
    auto client = client::Client::connect(
        "tcp://127.0.0.1:" + std::to_string(port), options, status);
    EXPECT_NE(client, nullptr) << status.toString();
    if (client != nullptr) {
        auto infer = std::async(std::launch::async, [&client] {
            return client->inferRaw("fc",
                                    std::vector<std::int64_t>(4, 1));
        });
        EXPECT_EQ(infer.wait_for(std::chrono::seconds(5)),
                  std::future_status::ready)
            << "the infer waited for the connection to close";
        const client::InferenceResult result = infer.get();
        EXPECT_EQ(result.status.code, client::StatusCode::ProtocolError)
            << result.status.toString();
        EXPECT_NE(result.status.message.find("wrong type"),
                  std::string::npos)
            << result.status.message;
        client->close();
    }
    fake_server.join();
    ::close(listener);
}

} // namespace
