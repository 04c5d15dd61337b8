/**
 * @file
 * Client-side resilience: the RetryPolicy schedule (deterministic
 * backoff with jitter), retry of shed requests, the idempotent-only
 * guard, the per-request wall-clock timeout, TcpTransport's
 * transparent reconnect (a fresh wire handshake) across a daemon
 * bounce and an injected connection drop, and shed session steps
 * surfacing as Unavailable on every transport. Runs under
 * ThreadSanitizer and ASan/UBSan in tools/check.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "client/client.hh"
#include "client/retry.hh"
#include "common/faultpoint.hh"
#include "core/functional.hh"
#include "core/network_runner.hh"
#include "helpers.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

struct FaultGuard
{
    FaultGuard() { fault::disarmAll(); }
    ~FaultGuard() { fault::disarmAll(); }
};

core::EieConfig
makeConfig()
{
    core::EieConfig config;
    config.n_pe = 4;
    return config;
}

fs::path
scratchDir(const char *tag)
{
    static int counter = 0;
    return fs::temp_directory_path() /
        ("eie_retry_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
}

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndGrows)
{
    client::RetryPolicy policy;
    policy.initial_backoff = std::chrono::microseconds(1000);
    policy.multiplier = 2.0;
    policy.max_backoff = std::chrono::microseconds(8000);

    // Pure function of (policy, attempt): identical calls replay the
    // identical schedule.
    for (unsigned attempt = 0; attempt < 10; ++attempt)
        EXPECT_EQ(client::retryBackoff(policy, attempt),
                  client::retryBackoff(policy, attempt));

    // Jitter keeps each wait in [1/2, 1] of its nominal backoff, and
    // the nominal doubles until the cap.
    for (unsigned attempt = 0; attempt < 10; ++attempt) {
        const double nominal = std::min(
            1000.0 * std::pow(2.0, static_cast<double>(attempt)),
            8000.0);
        const auto wait = client::retryBackoff(policy, attempt);
        EXPECT_GE(wait.count(), nominal / 2 - 1) << attempt;
        EXPECT_LE(wait.count(), nominal) << attempt;
    }

    // A different seed yields a different (decorrelated) schedule
    // somewhere in the first attempts.
    client::RetryPolicy other = policy;
    other.jitter_seed = 1234567;
    bool differs = false;
    for (unsigned attempt = 0; attempt < 10 && !differs; ++attempt)
        differs = client::retryBackoff(policy, attempt) !=
            client::retryBackoff(other, attempt);
    EXPECT_TRUE(differs);
}

TEST(RetryPolicy, OnlyTransientStatusesAreRetryable)
{
    using client::StatusCode;
    EXPECT_TRUE(client::retryableStatus(StatusCode::Unavailable));
    EXPECT_TRUE(client::retryableStatus(StatusCode::TransportError));
    EXPECT_FALSE(client::retryableStatus(StatusCode::Ok));
    EXPECT_FALSE(client::retryableStatus(StatusCode::InvalidArgument));
    EXPECT_FALSE(client::retryableStatus(StatusCode::NotFound));
    EXPECT_FALSE(client::retryableStatus(StatusCode::DeadlineExpired));
    EXPECT_FALSE(client::retryableStatus(StatusCode::ProtocolError));
    EXPECT_FALSE(client::retryableStatus(StatusCode::Internal));
}

/** A `local:` endpoint over one in-memory layer, with a shedding
 *  micro-batcher (one queue slot) and the batcher stalled by fault
 *  injection so bursts deterministically overflow it. */
struct SheddingFixture
{
    core::EieConfig config;
    core::NetworkRunner net;
    core::FunctionalModel functional;

    SheddingFixture()
        : config(makeConfig()), net(config), functional(config)
    {
        net.addLayer(
            test::randomCompressedLayer(48, 32, 0.25, 4, 811),
            nn::Nonlinearity::ReLU);
    }

    std::unique_ptr<client::Client>
    connect(const client::RetryPolicy &retry)
    {
        client::ClientOptions options;
        options.config = config;
        options.server.max_batch = 1;
        options.server.max_delay = std::chrono::microseconds(50);
        options.server.max_queue = 1;
        options.retry = retry;
        options.models.push_back(
            client::LocalModel{"fc", {&net.plan(0)}});
        client::Status status;
        auto client = client::Client::connect("local:compiled",
                                              options, status);
        EXPECT_NE(client, nullptr) << status.toString();
        return client;
    }

    std::vector<std::int64_t>
    input(std::uint64_t seed) const
    {
        return functional.quantizeInput(
            test::randomActivations(32, 0.6, seed));
    }
};

TEST(ClientRetry, RetryAbsorbsShedRequests)
{
    FaultGuard guard;
    SheddingFixture fx;

    client::RetryPolicy retry;
    retry.max_attempts = 16;
    retry.initial_backoff = std::chrono::milliseconds(10);
    retry.multiplier = 1.5;
    retry.max_backoff = std::chrono::milliseconds(80);
    auto client = fx.connect(retry);

    // Burst 6 single-frame requests into a one-slot queue with every
    // batch stalled 25 ms: some initial attempts must shed, and the
    // retry loop must absorb every shed into an eventual success.
    fault::arm("batcher.stall");
    std::vector<std::future<client::InferenceResult>> futures;
    for (int i = 0; i < 6; ++i) {
        client::InferenceRequest request;
        request.model = "fc";
        request.fixed.push_back(fx.input(20 + i));
        futures.push_back(client->submit(std::move(request)));
    }
    for (auto &future : futures) {
        const client::InferenceResult result = future.get();
        EXPECT_TRUE(result.ok()) << result.status.toString();
    }
    fault::disarmAll();

    client::EndpointStats stats;
    ASSERT_TRUE(client->stats(stats).ok());
    // The server must have shed at least one attempt for the retry
    // path to have been exercised (the burst is 6 deep on 1 slot).
    EXPECT_GE(stats.requests_shed, 1u);
    client->close();
}

TEST(ClientRetry, NonIdempotentRequestsAreNeverRetried)
{
    FaultGuard guard;
    SheddingFixture fx;

    client::RetryPolicy retry;
    retry.max_attempts = 16;
    retry.initial_backoff = std::chrono::milliseconds(10);
    auto client = fx.connect(retry);

    fault::arm("batcher.stall");
    // Same burst, but idempotent=false: a shed must surface as
    // Unavailable instead of being resubmitted behind our back.
    std::vector<std::future<client::InferenceResult>> futures;
    for (int i = 0; i < 6; ++i) {
        client::InferenceRequest request;
        request.model = "fc";
        request.idempotent = false;
        request.fixed.push_back(fx.input(40 + i));
        futures.push_back(client->submit(std::move(request)));
    }
    std::uint64_t ok = 0, unavailable = 0;
    for (auto &future : futures) {
        const client::InferenceResult result = future.get();
        if (result.ok())
            ++ok;
        else {
            EXPECT_EQ(result.status.code,
                      client::StatusCode::Unavailable)
                << result.status.toString();
            ++unavailable;
        }
    }
    EXPECT_EQ(ok + unavailable, 6u);
    EXPECT_GE(unavailable, 1u);
    fault::disarmAll();
    client->close();
}

TEST(ClientRetry, PerRequestTimeoutBoundsTheWait)
{
    FaultGuard guard;
    SheddingFixture fx;

    // A 2 ms client-side budget against a batcher that stalls 25 ms
    // per batch: the request cannot finish in time, and the client
    // must return DeadlineExpired on its own clock — not hang until
    // the server eventually answers.
    client::RetryPolicy retry;
    retry.max_attempts = 4;
    retry.timeout = std::chrono::milliseconds(2);
    auto client = fx.connect(retry);

    fault::arm("batcher.stall");
    client::InferenceRequest request;
    request.model = "fc";
    request.fixed.push_back(fx.input(60));
    const auto start = std::chrono::steady_clock::now();
    const client::InferenceResult result =
        client->infer(request);
    const auto elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.code,
              client::StatusCode::DeadlineExpired)
        << result.status.toString();
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    fault::disarmAll();
    client->close();
}

/** Registry + daemon the reconnect tests can bounce. */
struct DaemonFixture
{
    fs::path dir;
    core::EieConfig config;
    compress::CompressedLayer layer;
    serve::ModelRegistry registry;
    serve::ClusterOptions cluster_options;
    serve::ServingDirectory directory;
    core::FunctionalModel functional;
    core::LayerPlan oracle_plan;

    DaemonFixture()
        : dir(scratchDir("daemon")), config(makeConfig()),
          layer(test::randomCompressedLayer(48, 32, 0.25, 4, 812)),
          registry(dir.string(), config),
          directory(registry, cluster_options),
          functional(config),
          oracle_plan(core::planLayer(layer, nn::Nonlinearity::ReLU,
                                      config))
    {
        registry.publish("fc", 1, layer.storage());
    }

    ~DaemonFixture() { fs::remove_all(dir); }

    std::vector<std::int64_t>
    input(std::uint64_t seed) const
    {
        return functional.quantizeInput(
            test::randomActivations(32, 0.6, seed));
    }

    std::vector<std::int64_t>
    oracle(const std::vector<std::int64_t> &in) const
    {
        return functional.run(oracle_plan, in).output_raw;
    }
};

TEST(ClientRetry, TcpTransportReconnectsAcrossDaemonBounce)
{
    FaultGuard guard;
    DaemonFixture fx;

    auto first_server =
        std::make_unique<serve::TcpServer>(fx.directory);
    first_server->start();
    const std::uint16_t port = first_server->port();

    client::ClientOptions options;
    options.config = fx.config;
    client::Status status;
    auto client = client::Client::connect(
        "tcp://127.0.0.1:" + std::to_string(port), options, status);
    ASSERT_NE(client, nullptr) << status.toString();

    const auto input = fx.input(70);
    client::InferenceResult before = client->inferRaw("fc", input);
    ASSERT_TRUE(before.ok()) << before.status.toString();
    EXPECT_EQ(before.outputs.front(), fx.oracle(input));

    // Bounce the daemon: stop it, then bring a new one up on the
    // same port (a deploy restart as the client sees it).
    first_server->stop();
    first_server.reset();
    Logger::setQuiet(true);
    client::InferenceResult during = client->inferRaw("fc", input);
    EXPECT_FALSE(during.ok());
    EXPECT_TRUE(during.status.code ==
                    client::StatusCode::Unavailable ||
                during.status.code ==
                    client::StatusCode::TransportError)
        << during.status.toString();
    Logger::setQuiet(false);

    serve::TcpServerOptions reborn_options;
    reborn_options.port = port;
    serve::TcpServer second_server(fx.directory, reborn_options);
    second_server.start();

    // The transport re-dials (fresh wire handshake) on the next
    // request — same client object, same bits.
    client::InferenceResult after = client->inferRaw("fc", input);
    ASSERT_TRUE(after.ok()) << after.status.toString();
    EXPECT_EQ(after.outputs.front(), fx.oracle(input));

    client->close();
    second_server.stop();
    fx.directory.stopAll();
}

TEST(ClientRetry, InjectedConnectionDropIsTransparent)
{
    FaultGuard guard;
    DaemonFixture fx;

    serve::TcpServer server(fx.directory);
    server.start();

    client::ClientOptions options;
    options.config = fx.config;
    options.retry.max_attempts = 4;
    options.retry.initial_backoff = std::chrono::milliseconds(5);
    client::Status status;
    auto client = client::Client::connect(
        "tcp://127.0.0.1:" + std::to_string(server.port()), options,
        status);
    ASSERT_NE(client, nullptr) << status.toString();

    const auto input = fx.input(80);
    const auto expected = fx.oracle(input);

    // Drop the connection after the next successful response write;
    // subsequent requests must transparently reconnect (and retry if
    // the race lands the attempt on the dying socket).
    fault::FaultSpec once;
    once.count = 1;
    fault::arm("tcp.drop_after_write", once);

    Logger::setQuiet(true);
    for (int i = 0; i < 5; ++i) {
        const client::InferenceResult result =
            client->inferRaw("fc", input);
        ASSERT_TRUE(result.ok())
            << "request " << i << ": " << result.status.toString();
        EXPECT_EQ(result.outputs.front(), expected);
    }
    Logger::setQuiet(false);
    EXPECT_EQ(fault::hits("tcp.drop_after_write"), 1u);

    client->close();
    server.stop();
    fx.directory.stopAll();
}

/** A one-shard daemon (and the matching in-process options) serving
 *  an LSTM-shaped packed-gate model, (4H) x (X+H+1), behind a
 *  micro-batcher that runs one frame per batch and queues one more. */
struct SheddingSessionFixture
{
    static constexpr std::size_t kX = 8;
    static constexpr std::size_t kH = 8;

    fs::path dir;
    core::EieConfig config;
    serve::ModelRegistry registry;
    serve::ServingDirectory directory;
    serve::TcpServer server;

    SheddingSessionFixture()
        : dir(scratchDir("sessions")), config(makeConfig()),
          registry(dir.string(), config),
          directory(registry, clusterOptions()), server(directory)
    {
        registry.publish("nt-lstm", 1,
                         test::randomCompressedLayer(
                             4 * kH, kX + kH + 1, 0.4, 4, 813)
                             .storage());
        server.start();
    }

    ~SheddingSessionFixture()
    {
        server.stop();
        directory.stopAll();
        fs::remove_all(dir);
    }

    static serve::ClusterOptions
    clusterOptions()
    {
        serve::ClusterOptions options;
        options.shards = 1;
        options.server.max_batch = 1;
        options.server.max_queue = 1;
        return options;
    }

    std::unique_ptr<client::Client>
    connect(const std::string &endpoint) const
    {
        client::ClientOptions options;
        options.config = config;
        options.cluster = clusterOptions();
        options.server = options.cluster.server;
        client::Status status;
        auto connected =
            client::Client::connect(endpoint, options, status);
        EXPECT_NE(connected, nullptr)
            << endpoint << ": " << status.toString();
        return connected;
    }
};

TEST(ClientRetry, ShedSessionStepsAreUnavailableOnEveryTransport)
{
    FaultGuard guard;
    SheddingSessionFixture fx;
    constexpr std::size_t kCallers = 6;
    constexpr int kSteps = 3;

    for (const std::string &endpoint :
         {"local:compiled,dir=" + fx.dir.string(),
          "cluster:" + fx.dir.string() + ",shards=1",
          "tcp://127.0.0.1:" + std::to_string(fx.server.port())}) {
        // Each caller steps its own session. An in-process endpoint
        // owns its serving core, so the callers share one Client
        // there; over tcp each caller gets its own connection, the
        // way independent clients reach a daemon.
        const bool per_caller = endpoint.rfind("tcp://", 0) == 0;
        std::vector<std::unique_ptr<client::Client>> clients;
        std::vector<std::unique_ptr<client::Session>> sessions;
        for (std::size_t c = 0; c < kCallers; ++c) {
            if (clients.empty() || per_caller)
                clients.push_back(fx.connect(endpoint));
            ASSERT_NE(clients.back(), nullptr);
            client::Status status;
            sessions.push_back(
                clients.back()->openSession("nt-lstm", 0, status));
            ASSERT_NE(sessions.back(), nullptr)
                << endpoint << ": " << status.toString();
        }

        // Six callers against one running and one queued step, with
        // every batch stalled 25 ms: steps must shed.
        fault::arm("batcher.stall");
        std::atomic<bool> go{false};
        std::vector<std::vector<client::StatusCode>> failures(kCallers);
        std::vector<std::thread> callers;
        for (std::size_t c = 0; c < kCallers; ++c)
            callers.emplace_back([&, c] {
                while (!go.load())
                    std::this_thread::yield();
                for (int t = 0; t < kSteps; ++t) {
                    const client::Session::StepResult result =
                        sessions[c]->step(test::randomActivations(
                            SheddingSessionFixture::kX, 0.7,
                            900 + 10 * c + t));
                    if (!result.ok())
                        failures[c].push_back(result.status.code);
                }
            });
        go.store(true);
        for (std::thread &caller : callers)
            caller.join();
        fault::disarmAll();

        std::size_t failed = 0;
        for (const auto &codes : failures)
            for (const client::StatusCode code : codes) {
                EXPECT_EQ(code, client::StatusCode::Unavailable)
                    << endpoint << ": " << client::statusCodeName(code);
                ++failed;
            }
        EXPECT_GE(failed, 1u) << endpoint;
        sessions.clear();
        for (const auto &connected : clients)
            connected->close();
    }
}

} // namespace
