/**
 * @file
 * Streaming LSTM session tests — the recurrent half of the client
 * API. An NT-LSTM-shaped packed-gate model (one (4H) x (X+H+1) M×V)
 * is published to a registry and a sequence is streamed through
 * Client::openSession on all three transports, including a live TCP
 * daemon; every step's hidden state must match the scalar-oracle
 * session (FunctionalModel M×V + the same host gate math)
 * bit-exactly. Shape validation, error taxonomy and
 * failed-step-state-intact semantics ride along, as do the daemon's
 * step scheduling on one connection: steps of different sessions
 * reach the cluster together, steps of one session run in order, and
 * a connection dropped mid-step is still torn down.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "client/client.hh"
#include "common/faultpoint.hh"
#include "core/functional.hh"
#include "engine/lstm_session.hh"
#include "helpers.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

constexpr std::size_t kX = 8; ///< per-step input size
constexpr std::size_t kH = 8; ///< hidden size
// The packed gate M×V: (4H) x (X + H + 1) = 32 x 17.

core::EieConfig
makeConfig()
{
    core::EieConfig config;
    config.n_pe = 4;
    return config;
}

struct FaultGuard
{
    FaultGuard() { fault::disarmAll(); }
    ~FaultGuard() { fault::disarmAll(); }
};

/** Registry with an LSTM-shaped model + a plain FC one + daemon. */
struct SessionFixture
{
    fs::path dir;
    core::EieConfig config;
    compress::CompressedLayer lstm_layer;
    serve::ModelRegistry registry;
    serve::ServingDirectory directory;
    serve::TcpServer server;
    core::FunctionalModel functional;
    core::LayerPlan oracle_plan; ///< None-drain plan of the M×V

    /** @p daemon_shards: shards per cluster behind the daemon. */
    explicit SessionFixture(std::size_t daemon_shards = 2)
        : dir(scratchDir()), config(makeConfig()),
          lstm_layer(test::randomCompressedLayer(4 * kH, kX + kH + 1,
                                                 0.4, 4, 777)),
          registry(dir.string(), config),
          directory(registry, makeClusterOptions(daemon_shards)),
          server(directory), functional(config),
          oracle_plan(core::planLayer(lstm_layer,
                                      nn::Nonlinearity::None, config))
    {
        registry.publish("nt-lstm", 1, lstm_layer.storage());
        // 97 output rows: no H solves 4H = 97, so this FC layer can
        // never pass the packed-gate shape check. (A 4H x big-enough
        // layer is indistinguishable from an LSTM by shape alone.)
        registry.publish(
            "fc", 1,
            test::randomCompressedLayer(97, 64, 0.25, 4, 778)
                .storage());
        server.start();
    }

    ~SessionFixture()
    {
        server.stop();
        directory.stopAll();
        fs::remove_all(dir);
    }

    static fs::path
    scratchDir()
    {
        static int counter = 0;
        return fs::temp_directory_path() /
            ("eie_session_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    }

    static serve::ClusterOptions
    makeClusterOptions(std::size_t shards = 2)
    {
        serve::ClusterOptions options;
        options.shards = shards;
        return options;
    }

    client::ClientOptions
    clientOptions() const
    {
        client::ClientOptions options;
        options.config = config;
        options.cluster = makeClusterOptions();
        return options;
    }

    std::unique_ptr<client::Client>
    connect(const std::string &endpoint) const
    {
        client::Status status;
        auto connected = client::Client::connect(
            endpoint, clientOptions(), status);
        EXPECT_NE(connected, nullptr)
            << endpoint << ": " << status.toString();
        return connected;
    }

    std::vector<std::string>
    endpoints() const
    {
        return {"local:compiled,dir=" + dir.string(),
                "cluster:" + dir.string() + ",shards=2",
                "tcp://127.0.0.1:" + std::to_string(server.port())};
    }

    /** Deterministic step inputs. */
    nn::Vector
    stepInput(std::uint64_t t) const
    {
        return test::randomActivations(kX, 0.7, 5000 + t);
    }

    /** The scalar-oracle hidden trajectory over T steps whose inputs
     *  start at stepInput(@p first): the same engine::LstmSession
     *  host math around the FunctionalModel M×V on the original
     *  pre-file plan. */
    std::vector<nn::Vector>
    oracleTrajectory(std::size_t steps, std::uint64_t first = 0) const
    {
        engine::LstmShape shape;
        std::string error;
        EXPECT_TRUE(engine::LstmShape::derive(
            kX + kH + 1, 4 * kH, shape, error))
            << error;
        engine::LstmSession session(config, shape);
        std::vector<nn::Vector> trajectory;
        for (std::size_t t = 0; t < steps; ++t)
            trajectory.push_back(session.step(
                stepInput(first + t),
                [&](std::vector<std::int64_t> packed) {
                    return functional.run(oracle_plan, packed)
                        .output_raw;
                }));
        return trajectory;
    }
};

TEST(LstmShape, DerivesAndRejects)
{
    engine::LstmShape shape;
    std::string error;
    // NT-LSTM's published shape: 1201 -> 2400 gives X = H = 600.
    ASSERT_TRUE(engine::LstmShape::derive(1201, 2400, shape, error));
    EXPECT_EQ(shape.input_size, 600u);
    EXPECT_EQ(shape.hidden_size, 600u);

    ASSERT_TRUE(engine::LstmShape::derive(kX + kH + 1, 4 * kH, shape,
                                          error));
    EXPECT_EQ(shape.input_size, kX);
    EXPECT_EQ(shape.hidden_size, kH);

    // Not divisible by four.
    EXPECT_FALSE(engine::LstmShape::derive(64, 97, shape, error));
    EXPECT_NE(error.find("not LSTM-shaped"), std::string::npos);
    // No room for [x; h; 1].
    EXPECT_FALSE(engine::LstmShape::derive(8, 32, shape, error));
    EXPECT_NE(error.find("not LSTM-shaped"), std::string::npos);
    // Zero output.
    EXPECT_FALSE(engine::LstmShape::derive(10, 0, shape, error));
}

TEST(ClientSession, NtLstmSequenceMatchesTheOracleOnEveryTransport)
{
    SessionFixture fx;
    constexpr std::size_t kSteps = 12;
    const std::vector<nn::Vector> oracle =
        fx.oracleTrajectory(kSteps);

    for (const std::string &endpoint : fx.endpoints()) {
        const auto client = fx.connect(endpoint);
        client::Status status;
        const auto session =
            client->openSession("nt-lstm", 0, status);
        ASSERT_NE(session, nullptr)
            << endpoint << ": " << status.toString();
        EXPECT_EQ(session->inputSize(), kX) << endpoint;
        EXPECT_EQ(session->hiddenSize(), kH) << endpoint;
        EXPECT_EQ(session->model(), "nt-lstm") << endpoint;

        // The acceptance bar: the streamed hidden trajectory equals
        // the scalar oracle's bit for bit, step by step — including
        // over the live TCP daemon (state held server-side).
        for (std::size_t t = 0; t < kSteps; ++t) {
            const client::Session::StepResult step =
                session->step(fx.stepInput(t));
            ASSERT_TRUE(step.ok())
                << endpoint << " step " << t << ": "
                << step.status.toString();
            EXPECT_EQ(step.h, oracle[t])
                << endpoint << " diverged at step " << t;
        }
        EXPECT_EQ(session->steps(), kSteps) << endpoint;
    }
}

TEST(ClientSession, AdaptiveFormingWindowMeetsStepDeadlines)
{
    // Sequential session streaming is the traffic that shrinks the
    // adaptive forming window to min_delay. The window never exceeds
    // max_delay, so a per-step deadline that was feasible under the
    // fixed window must hold at every adapted size: all steps commit
    // (no deadline drops) and the trajectory stays bit-exact.
    SessionFixture fx;
    constexpr std::size_t kSteps = 24;
    const std::vector<nn::Vector> oracle =
        fx.oracleTrajectory(kSteps);

    client::ClientOptions options = fx.clientOptions();
    ASSERT_TRUE(options.server.adaptive_delay);
    options.server.max_delay = std::chrono::microseconds(200);
    options.server.min_delay = std::chrono::microseconds(20);

    client::Status status;
    const auto client = client::Client::connect(
        fx.endpoints().front(), options, status);
    ASSERT_NE(client, nullptr) << status.toString();
    const auto session = client->openSession("nt-lstm", 0, status);
    ASSERT_NE(session, nullptr) << status.toString();

    // Far above max_delay + compute, so a drop can only mean the
    // batcher held a request past its deadline — exactly the bug an
    // adaptive window must not introduce.
    const auto deadline = std::chrono::microseconds(
        std::chrono::milliseconds(250));
    for (std::size_t t = 0; t < kSteps; ++t) {
        const client::Session::StepResult step =
            session->step(fx.stepInput(t), 0, deadline);
        ASSERT_TRUE(step.ok())
            << "step " << t << ": " << step.status.toString();
        EXPECT_EQ(step.h, oracle[t]) << "diverged at step " << t;
    }
    EXPECT_EQ(session->steps(), kSteps);
}

TEST(ClientSession, TwoSessionsThreadIndependentState)
{
    SessionFixture fx;
    const auto client = fx.connect(fx.endpoints().back()); // tcp
    client::Status status;
    const auto a = client->openSession("nt-lstm", 0, status);
    ASSERT_NE(a, nullptr) << status.toString();
    const auto b = client->openSession("nt-lstm", 0, status);
    ASSERT_NE(b, nullptr) << status.toString();

    // Interleaved steps: each session's trajectory must equal a
    // solo run — no cross-talk through shared server state.
    const std::vector<nn::Vector> oracle = fx.oracleTrajectory(4);
    for (std::size_t t = 0; t < 4; ++t) {
        const auto step_a = a->step(fx.stepInput(t));
        const auto step_b = b->step(fx.stepInput(t));
        ASSERT_TRUE(step_a.ok() && step_b.ok());
        EXPECT_EQ(step_a.h, oracle[t]) << "session a, step " << t;
        EXPECT_EQ(step_b.h, oracle[t]) << "session b, step " << t;
    }
}

TEST(ClientSession, StepsOfSessionsSharingAConnectionBatchTogether)
{
    // The gateway sends every session over one tcp:// connection, so
    // the daemon must not serve that connection's steps one at a
    // time: four sessions stepping at once all reach the (stalled)
    // shard's queue together.
    FaultGuard guard;
    SessionFixture fx(1);
    constexpr std::size_t kSessions = 4;
    const auto client = fx.connect(fx.endpoints().back()); // tcp
    std::vector<std::unique_ptr<client::Session>> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
        client::Status status;
        sessions.push_back(client->openSession("nt-lstm", 0, status));
        ASSERT_NE(sessions.back(), nullptr) << status.toString();
    }

    fault::arm("batcher.stall");
    std::atomic<bool> go{false};
    std::vector<client::Session::StepResult> results(kSessions);
    std::vector<std::thread> callers;
    for (std::size_t s = 0; s < kSessions; ++s)
        callers.emplace_back([&, s] {
            while (!go.load())
                std::this_thread::yield();
            results[s] = sessions[s]->step(fx.stepInput(s));
        });
    go.store(true);
    for (std::thread &caller : callers)
        caller.join();
    fault::disarmAll();

    for (std::size_t s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(results[s].ok())
            << "session " << s << ": " << results[s].status.toString();
        EXPECT_EQ(results[s].h, fx.oracleTrajectory(1, s).front())
            << "session " << s;
    }
    std::string error;
    serve::ClusterEngine *cluster = fx.directory.cluster(
        "nt-lstm", 0, error, nn::Nonlinearity::None);
    ASSERT_NE(cluster, nullptr) << error;
    const serve::ClusterStats stats = cluster->stats();
    ASSERT_EQ(stats.shards.size(), 1u);
    EXPECT_GE(stats.shards.front().server.max_queue_depth, 2u);
}

/** Accept-time reaping runs only when a connection arrives: open
 *  short-lived probes until the probe is the only tracked connection
 *  (every earlier one has been reaped), or give up at @p budget. */
bool
reapedWithin(const serve::TcpServer &server,
             std::chrono::milliseconds budget)
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        serve::TcpClient probe("127.0.0.1", server.port());
        if (server.trackedConnections() == 1)
            return true;
    }
    return false;
}

TEST(ClientSession, PipelinedStepsRunInOrderAndADroppedConnectionIsReaped)
{
    FaultGuard guard;
    SessionFixture fx(1);
    const std::vector<nn::Vector> oracle = fx.oracleTrajectory(4);

    // Replies written on this connection: HelloAck, SessionAck and
    // three steps; the drop lands on the fourth step's reply, while
    // the steps behind it are in flight.
    fault::FaultSpec drop;
    drop.skip = 5;
    drop.count = 1;
    fault::arm("tcp.drop_after_write", drop);

    serve::TcpClient client("127.0.0.1", fx.server.port());
    const serve::wire::SessionAck ack =
        client.openSession("nt-lstm").get();
    ASSERT_TRUE(ack.ok) << ack.error;
    const std::uint64_t id = ack.session_id;

    const auto submit = [&](std::uint64_t t) {
        const nn::Vector x = fx.stepInput(t);
        return client.submitStep(id, std::vector<float>(x.begin(),
                                                        x.end()));
    };
    // Three steps without waiting: each runs on the state the one
    // before it committed.
    std::vector<std::future<serve::wire::SessionState>> steps;
    for (std::uint64_t t = 0; t < 3; ++t)
        steps.push_back(submit(t));
    for (std::size_t t = 0; t < 3; ++t) {
        const serve::wire::SessionState state = steps[t].get();
        ASSERT_TRUE(state.ok) << "step " << t << ": " << state.error;
        EXPECT_EQ(state.h, oracle[t]) << "step " << t;
    }

    // With every batch stalled, the next step is in flight while the
    // two behind it wait in the daemon's reader. The writer drops the
    // connection after the first reply; the reader must not be left
    // waiting for a commit that will never come.
    fault::arm("batcher.stall");
    steps.clear();
    for (std::uint64_t t = 3; t < 6; ++t)
        steps.push_back(submit(t));
    const serve::wire::SessionState last_ok = steps[0].get();
    ASSERT_TRUE(last_ok.ok) << last_ok.error;
    EXPECT_EQ(last_ok.h, oracle[3]);
    for (std::size_t t = 1; t < 3; ++t)
        EXPECT_EQ(steps[t].get().code,
                  serve::wire::ErrorCode::Unavailable)
            << "step " << 3 + t;
    EXPECT_EQ(fault::hits("tcp.drop_after_write"), 1u);
    fault::disarmAll();

    EXPECT_TRUE(reapedWithin(fx.server, std::chrono::seconds(5)))
        << fx.server.trackedConnections() << " connections tracked";
}

TEST(ClientSession, ErrorTaxonomyAndStateSafety)
{
    SessionFixture fx;
    for (const std::string &endpoint : fx.endpoints()) {
        const auto client = fx.connect(endpoint);
        client::Status status;

        // Unknown model -> NOT_FOUND.
        EXPECT_EQ(client->openSession("missing", 0, status), nullptr);
        EXPECT_EQ(status.code, client::StatusCode::NotFound)
            << endpoint << ": " << status.toString();

        // A 96x64 FC layer is not LSTM-shaped -> INVALID_ARGUMENT.
        EXPECT_EQ(client->openSession("fc", 0, status), nullptr);
        EXPECT_EQ(status.code, client::StatusCode::InvalidArgument)
            << endpoint << ": " << status.toString();

        // A live session survives a wrong-length step: the bad step
        // reports INVALID_ARGUMENT, the state stays put, and the
        // trajectory continues exactly on the oracle.
        const auto session =
            client->openSession("nt-lstm", 0, status);
        ASSERT_NE(session, nullptr) << endpoint;
        const std::vector<nn::Vector> oracle =
            fx.oracleTrajectory(2);
        ASSERT_TRUE(session->step(fx.stepInput(0)).ok());
        const client::Session::StepResult bad =
            session->step(nn::Vector(kX + 3, 0.5f));
        EXPECT_EQ(bad.status.code,
                  client::StatusCode::InvalidArgument)
            << endpoint << ": " << bad.status.toString();
        const client::Session::StepResult resumed =
            session->step(fx.stepInput(1));
        ASSERT_TRUE(resumed.ok()) << endpoint;
        EXPECT_EQ(resumed.h, oracle[1])
            << endpoint << ": state was corrupted by a failed step";
        EXPECT_EQ(session->steps(), 2u) << endpoint;

        // Closed session -> UNAVAILABLE.
        session->close();
        EXPECT_EQ(session->step(fx.stepInput(2)).status.code,
                  client::StatusCode::Unavailable)
            << endpoint;
    }
}

TEST(ClientSession, TcpSessionCloseFreesServerStateForReuse)
{
    SessionFixture fx;
    const auto client = fx.connect(fx.endpoints().back()); // tcp
    client::Status status;

    // Open, close, reopen, and stream: reopened sessions start from
    // zero state (the close released the server-side slot).
    auto session = client->openSession("nt-lstm", 0, status);
    ASSERT_NE(session, nullptr) << status.toString();
    ASSERT_TRUE(session->step(fx.stepInput(99)).ok());
    session->close();

    session = client->openSession("nt-lstm", 0, status);
    ASSERT_NE(session, nullptr) << status.toString();
    const std::vector<nn::Vector> oracle = fx.oracleTrajectory(2);
    for (std::size_t t = 0; t < 2; ++t) {
        const auto step = session->step(fx.stepInput(t));
        ASSERT_TRUE(step.ok());
        EXPECT_EQ(step.h, oracle[t]) << "step " << t;
    }
}

TEST(ClientSession, PerConnectionSessionCapBoundsServerMemory)
{
    SessionFixture fx;
    const auto client = fx.connect(fx.endpoints().back()); // tcp
    client::Status status;

    // Fill the per-connection budget (the fixture server runs the
    // default cap), then one more: the overflow open is rejected
    // with UNAVAILABLE instead of growing the daemon without bound.
    const std::size_t cap =
        serve::TcpServerOptions{}.max_sessions_per_connection;
    std::vector<std::unique_ptr<client::Session>> sessions;
    for (std::size_t i = 0; i < cap; ++i) {
        sessions.push_back(client->openSession("nt-lstm", 0, status));
        ASSERT_NE(sessions.back(), nullptr)
            << "open " << i << ": " << status.toString();
    }
    EXPECT_EQ(client->openSession("nt-lstm", 0, status), nullptr);
    EXPECT_EQ(status.code, client::StatusCode::Unavailable)
        << status.toString();
    EXPECT_NE(status.message.find("session limit"),
              std::string::npos)
        << status.message;

    // Closing one frees a slot.
    sessions.front()->close();
    const auto reopened = client->openSession("nt-lstm", 0, status);
    EXPECT_NE(reopened, nullptr) << status.toString();
}

TEST(ClientSession, StoppedDaemonYieldsUnavailableSteps)
{
    SessionFixture fx;
    const auto client = fx.connect(fx.endpoints().back()); // tcp
    client::Status status;
    const auto session = client->openSession("nt-lstm", 0, status);
    ASSERT_NE(session, nullptr) << status.toString();
    ASSERT_TRUE(session->step(fx.stepInput(0)).ok());

    fx.server.stop();
    const client::Session::StepResult step =
        session->step(fx.stepInput(1));
    EXPECT_FALSE(step.ok());
    EXPECT_EQ(step.status.code, client::StatusCode::Unavailable)
        << step.status.toString();
}

} // namespace
