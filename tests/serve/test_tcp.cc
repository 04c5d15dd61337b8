/**
 * @file
 * TCP loopback end-to-end tests: the full serving stack — EIEM model
 * file on disk, ModelRegistry load, ServingDirectory + ClusterEngine,
 * wire frames over a real socket — verified bit-exact against
 * FunctionalModel on the same vectors, plus pipelining, error
 * responses, stats/info frames and deadline propagation over the
 * wire.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "compress/model_file.hh"
#include "core/functional.hh"
#include "helpers.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

/** Registry + directory + listening server on an ephemeral port. */
struct TcpFixture
{
    fs::path dir;
    core::EieConfig config;
    compress::CompressedLayer layer;
    serve::ModelRegistry registry;
    serve::ServingDirectory directory;
    serve::TcpServer server;
    core::FunctionalModel functional;
    core::LayerPlan oracle_plan;

    explicit TcpFixture(
        serve::Placement placement = serve::Placement::Replicated,
        unsigned shards = 2)
        : dir(scratchDir()), config(makeConfig()),
          layer(test::randomCompressedLayer(96, 64, 0.25, 4, 1101)),
          registry(dir.string(), config),
          directory(registry, makeClusterOptions(placement, shards)),
          server(directory), functional(config),
          oracle_plan(core::planLayer(layer, nn::Nonlinearity::ReLU,
                                      config))
    {
        // The satellite round trip: the model reaches the serving
        // stack only through its on-disk EIEM file.
        registry.publish("fc", 1, layer.storage());
        server.start();
    }

    ~TcpFixture()
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
            ("eie_tcp_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    }

    static core::EieConfig
    makeConfig()
    {
        core::EieConfig config;
        config.n_pe = 4;
        return config;
    }

    static serve::ClusterOptions
    makeClusterOptions(serve::Placement placement, unsigned shards)
    {
        serve::ClusterOptions options;
        options.shards = shards;
        options.placement = placement;
        options.server.max_batch = 8;
        options.server.max_delay = std::chrono::microseconds(200);
        return options;
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

TEST(TcpServing, ModelFileRoundTripServesBitExactOverTheWire)
{
    TcpFixture fx;
    serve::TcpClient client("127.0.0.1", fx.server.port());

    const serve::wire::InfoResponse info = client.info("fc");
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_EQ(info.input_size, 64u);
    EXPECT_EQ(info.output_size, 96u);
    EXPECT_EQ(info.shards, 2u);
    EXPECT_EQ(info.placement, "replicated");

    for (int i = 0; i < 16; ++i) {
        const auto input = fx.randomInput(1200 + i);
        EXPECT_EQ(client.infer("fc", input), fx.oracle(input))
            << "request " << i;
    }

    // A version written straight through compress::saveModelFile
    // (no publish() involved — e.g. rsync'd in by an operator) must
    // be served just the same.
    compress::saveModelFile((fx.dir / "fc" / "v2.eiem").string(),
                            fx.layer.storage());
    const auto input = fx.randomInput(1299);
    EXPECT_EQ(client.infer("fc", input, /*version=*/2),
              fx.oracle(input));
    const serve::wire::InfoResponse v2 = client.info("fc", 0);
    EXPECT_TRUE(v2.ok);
    EXPECT_EQ(v2.version, 2u); // version 0 now resolves to v2
}

TEST(TcpServing, PartitionedClusterServesBitExactOverTheWire)
{
    TcpFixture fx(serve::Placement::ColumnPartitioned, 4);
    serve::TcpClient client("127.0.0.1", fx.server.port());
    for (int i = 0; i < 12; ++i) {
        const auto input = fx.randomInput(1300 + i);
        EXPECT_EQ(client.infer("fc", input), fx.oracle(input))
            << "request " << i;
    }
}

TEST(TcpServing, PipelinedBurstCorrelatesResponsesById)
{
    TcpFixture fx;
    serve::TcpClient client("127.0.0.1", fx.server.port());

    // Every request in flight at once; the async client correlates
    // each response to its future by id, whatever the arrival order.
    constexpr int kRequests = 256;
    std::vector<std::vector<std::int64_t>> inputs;
    std::vector<std::future<serve::wire::InferResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
        inputs.push_back(fx.randomInput(1400 + i));
        futures.push_back(client.submitInfer("fc", 0, inputs.back()));
    }
    for (int i = 0; i < kRequests; ++i) {
        const serve::wire::InferResponse response = futures[i].get();
        ASSERT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.output, fx.oracle(inputs[i]))
            << "request " << i;
    }

    const std::string stats = client.stats();
    EXPECT_NE(stats.find("\"requests\":256"), std::string::npos)
        << stats;
}

TEST(TcpServing, ConcurrentConnectionsShareTheCluster)
{
    TcpFixture fx;
    constexpr int kClients = 3;
    constexpr int kPerClient = 32;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                serve::TcpClient client("127.0.0.1",
                                        fx.server.port());
                for (int i = 0; i < kPerClient; ++i) {
                    const auto input =
                        fx.randomInput(1500 + 41 * c + 100 * i);
                    if (client.infer("fc", input) !=
                        fx.oracle(input)) {
                        failures[c] = "diverged at request " +
                            std::to_string(i);
                        return;
                    }
                }
            } catch (const std::exception &error) {
                failures[c] = error.what();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_TRUE(failures[c].empty())
            << "client " << c << ": " << failures[c];
    EXPECT_EQ(fx.server.connectionsAccepted(), 3u);
}

TEST(TcpServing, UnknownModelAndWrongSizeYieldErrorResponses)
{
    TcpFixture fx;
    serve::TcpClient client("127.0.0.1", fx.server.port());

    const serve::wire::InfoResponse info = client.info("missing");
    EXPECT_FALSE(info.ok);
    EXPECT_NE(info.error.find("not found"), std::string::npos);

    EXPECT_THROW(client.infer("missing", fx.randomInput(1600)),
                 std::runtime_error);

    // Wrong input length: an error response, not a dead daemon.
    EXPECT_THROW(client.infer("fc", std::vector<std::int64_t>(3, 1)),
                 std::runtime_error);

    // And the connection is still healthy afterwards.
    const auto input = fx.randomInput(1601);
    EXPECT_EQ(client.infer("fc", input), fx.oracle(input));
}

TEST(TcpServing, ConcurrentCallsOfEveryTypeGetTheirOwnReplies)
{
    TcpFixture fx;
    fx.registry.publish(
        "wide", 1,
        test::randomCompressedLayer(80, 64, 0.25, 4, 1102).storage());
    serve::TcpClient client("127.0.0.1", fx.server.port());

    // Four threads share one connection. Each pipelines inferences
    // around blocking info, stats, metrics and trace queries, so
    // replies of every type interleave on the wire, and each reply
    // must reach the call that asked for it.
    constexpr int kThreads = 4;
    constexpr int kRounds = 6;
    constexpr int kPipelined = 4;
    std::vector<std::vector<std::int64_t>> inputs, oracles;
    for (int i = 0; i < kThreads * kRounds * kPipelined; ++i) {
        inputs.push_back(fx.randomInput(2300 + i));
        oracles.push_back(fx.oracle(inputs.back()));
    }
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            try {
                for (int round = 0; round < kRounds; ++round) {
                    const int first = (t * kRounds + round) * kPipelined;
                    std::vector<std::future<serve::wire::InferResponse>>
                        futures;
                    for (int i = first; i < first + kPipelined; ++i)
                        futures.push_back(
                            client.submitInfer("fc", 0, inputs[i]));

                    const bool wide = (t + round) % 2 != 0;
                    const serve::wire::InfoResponse info =
                        client.info(wide ? "wide" : "fc", 1);
                    if (!info.ok || info.model != (wide ? "wide" : "fc") ||
                        info.version != 1 ||
                        info.output_size != (wide ? 80u : 96u))
                        failures[t] += "round " + std::to_string(round) +
                            ": info answered " + info.model + " v" +
                            std::to_string(info.version) + "; ";
                    if (round % 3 == 0 &&
                        client.stats().find("\"clusters\"") ==
                            std::string::npos)
                        failures[t] += "stats without clusters; ";
                    if (round % 3 == 1 &&
                        client.metrics().text.find("eie_") ==
                            std::string::npos)
                        failures[t] += "metrics without eie_ names; ";
                    if (round % 3 == 2 &&
                        client.traceDump().find("traceEvents") ==
                            std::string::npos)
                        failures[t] += "trace without traceEvents; ";

                    for (int i = 0; i < kPipelined; ++i) {
                        const serve::wire::InferResponse response =
                            futures[i].get();
                        if (!response.ok ||
                            response.output != oracles[first + i])
                            failures[t] += "request " +
                                std::to_string(first + i) +
                                " diverged: " + response.error + "; ";
                    }
                }
            } catch (const std::exception &error) {
                failures[t] += error.what();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(failures[t].empty())
            << "thread " << t << ": " << failures[t];
}

TEST(TcpServing, DeadlinesDropOverTheWire)
{
    TcpFixture fx;
    // Forming deadline far beyond the request deadlines and a batch
    // cap a small burst cannot reach: every request expires queued.
    serve::ClusterOptions options = TcpFixture::makeClusterOptions(
        serve::Placement::Replicated, 1);
    options.server.max_batch = 1000;
    options.server.max_delay = std::chrono::milliseconds(200);
    serve::ServingDirectory directory(fx.registry, options);
    serve::TcpServer server(directory);
    server.start();

    serve::TcpClient client("127.0.0.1", server.port());
    constexpr int kRequests = 8;
    std::vector<std::future<serve::wire::InferResponse>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(client.submitInfer(
            "fc", 0, fx.randomInput(1700 + i), 0,
            /*deadline_us=*/2000));
    for (int i = 0; i < kRequests; ++i) {
        const serve::wire::InferResponse response = futures[i].get();
        EXPECT_FALSE(response.ok);
        EXPECT_EQ(response.code,
                  serve::wire::ErrorCode::DeadlineExpired);
        EXPECT_NE(response.error.find("deadline"), std::string::npos)
            << response.error;
    }
    server.stop();
    directory.stopAll();
}

TEST(TcpServing, FinishedConnectionsAreReaped)
{
    TcpFixture fx;
    for (int i = 0; i < 3; ++i) {
        serve::TcpClient client("127.0.0.1", fx.server.port());
        const auto input = fx.randomInput(1900 + i);
        EXPECT_EQ(client.infer("fc", input), fx.oracle(input));
    } // destructor closes; the server notices EOF asynchronously

    // Reaping happens on accept: fresh probe connections must shake
    // the three finished ones out (probe + at most one lingering
    // previous probe may still be tracked).
    bool reaped = false;
    for (int attempt = 0; attempt < 100 && !reaped; ++attempt) {
        serve::TcpClient probe("127.0.0.1", fx.server.port());
        const auto input = fx.randomInput(1950);
        EXPECT_EQ(probe.infer("fc", input), fx.oracle(input));
        reaped = fx.server.trackedConnections() <= 2;
        if (!reaped)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(reaped) << "finished connections were never reaped";
}

namespace {

/** Connect a raw client socket to @p port. */
int
rawConnect(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/** Receive exactly @p size bytes (test helper; fails on short read). */
std::vector<std::uint8_t>
rawRecv(int fd, std::size_t size)
{
    std::vector<std::uint8_t> bytes(size);
    std::size_t at = 0;
    while (at < size) {
        const ssize_t got =
            ::recv(fd, bytes.data() + at, size - at, 0);
        if (got <= 0)
            break;
        at += static_cast<std::size_t>(got);
    }
    EXPECT_EQ(at, size);
    return bytes;
}

} // namespace

TEST(TcpServing, OldClientGetsACleanVersionRejection)
{
    TcpFixture fx;

    // Simulate a protocol-v3 client: its Hello carries version 3. The
    // HelloAck layout (u32 protocol, u8 ok, str error) is the same in
    // v3, so the old client decodes the rejection and its reason.
    const int fd = rawConnect(fx.server.port());
    const std::uint8_t v3_hello[] = {5, 0, 0, 0, // body length
                                     1,          // MsgType::Hello
                                     3, 0, 0, 0}; // protocol = 3
    ASSERT_EQ(::send(fd, v3_hello, sizeof(v3_hello), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(v3_hello)));

    const std::vector<std::uint8_t> header = rawRecv(fd, 4);
    std::uint32_t body_len = 0;
    std::memcpy(&body_len, header.data(), 4);
    ASSERT_LT(body_len, 1024u);
    const serve::wire::Message message =
        serve::wire::decodeBody(rawRecv(fd, body_len));
    const auto *ack = std::get_if<serve::wire::HelloAck>(&message);
    ASSERT_NE(ack, nullptr);
    EXPECT_FALSE(ack->ok);
    EXPECT_NE(ack->error.find("version 3"), std::string::npos)
        << ack->error;

    // ... and the server closes the connection.
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    // The daemon keeps serving current-version clients.
    serve::TcpClient client("127.0.0.1", fx.server.port());
    const auto input = fx.randomInput(2100);
    EXPECT_EQ(client.infer("fc", input), fx.oracle(input));
}

TEST(TcpServing, NewClientRejectsOldServerCleanly)
{
    // Simulate an older server on a raw listener. Two behaviours
    // exist: a v3 server acks the Hello with its own version 3, and
    // an older one closes without an ack. Both must surface as a
    // clean handshake error on the client.
    for (const bool send_v3_ack : {true, false}) {
        const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(listener, 0);
        const int one = 1;
        ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = 0;
        ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr),
                  1);
        ASSERT_EQ(::bind(listener,
                         reinterpret_cast<sockaddr *>(&addr),
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

        std::thread old_server([listener, send_v3_ack] {
            const int fd = ::accept(listener, nullptr, nullptr);
            ASSERT_GE(fd, 0);
            rawRecv(fd, 9); // the client's Hello frame
            if (send_v3_ack) {
                const std::uint8_t v3_ack[] = {10, 0, 0, 0, // length
                                               2, // MsgType::HelloAck
                                               3, 0, 0, 0, // v3
                                               1,          // ok
                                               0, 0, 0, 0}; // no error
                ::send(fd, v3_ack, sizeof(v3_ack), MSG_NOSIGNAL);
            }
            ::close(fd);
        });

        try {
            serve::TcpClient client("127.0.0.1", port);
            FAIL() << "handshake with a v3 server must fail "
                   << "(send_v3_ack=" << send_v3_ack << ")";
        } catch (const serve::wire::WireError &error) {
            // Clean rejection naming the mismatch, not garbage
            // decoding.
            const std::string what = error.what();
            EXPECT_TRUE(what.find("version") != std::string::npos ||
                        what.find("HelloAck") != std::string::npos)
                << what;
        }
        old_server.join();
        ::close(listener);
    }
}

TEST(TcpServing, GarbageFramesDropTheConnectionNotTheServer)
{
    TcpFixture fx;

    // Raw socket sending an absurd frame length: the server must
    // drop this connection (recv returns EOF for us) and keep
    // serving everyone else.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::uint32_t absurd_len = 0xffffffffu;
    ASSERT_EQ(::send(fd, &absurd_len, sizeof(absurd_len),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(absurd_len)));
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0); // server closed on us
    ::close(fd);

    // The server keeps serving healthy clients.
    serve::TcpClient client("127.0.0.1", fx.server.port());
    const auto input = fx.randomInput(1800);
    EXPECT_EQ(client.infer("fc", input), fx.oracle(input));
}

} // namespace
