/**
 * @file
 * Deterministic fault-injection suite: every named fault point in the
 * serving stack must resolve to a clean typed error — never a hang, a
 * crash, or a silently wrong answer. Covers the faultpoint harness
 * semantics, admission-control shedding (both policies), the shard
 * circuit breaker with failover and probe recovery, corrupt model
 * files through the registry and all three client transports, the
 * stalled-batcher deadline path, and a dropped TCP connection.
 * Runs under ThreadSanitizer and ASan/UBSan in tools/check.sh.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <vector>

#include "client/client.hh"
#include "common/faultpoint.hh"
#include "core/functional.hh"
#include "core/network_runner.hh"
#include "engine/backend.hh"
#include "engine/server.hh"
#include "helpers.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

/** Every test leaves the global fault registry clean. */
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
        ("eie_faults_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
}

/** One compiled layer behind an InferenceServer. */
struct ServerFixture
{
    core::EieConfig config;
    core::NetworkRunner net;
    core::FunctionalModel model;

    ServerFixture() : config(makeConfig()), net(config), model(config)
    {
        net.addLayer(test::randomCompressedLayer(48, 32, 0.25, 4, 801),
                     nn::Nonlinearity::ReLU);
    }

    std::unique_ptr<engine::ExecutionBackend>
    backend() const
    {
        return engine::makeBackend("compiled", config, {&net.plan(0)});
    }

    std::vector<std::int64_t>
    input(std::uint64_t seed) const
    {
        return model.quantizeInput(
            test::randomActivations(32, 0.6, seed));
    }
};

TEST(FaultPoints, HarnessSemantics)
{
    FaultGuard guard;

    // Disarmed points never fire.
    EXPECT_FALSE(fault::fire("test.point"));
    EXPECT_EQ(fault::hits("test.point"), 0u);

    // An armed point fires and counts its hits.
    fault::arm("test.point");
    EXPECT_TRUE(fault::fire("test.point"));
    EXPECT_TRUE(fault::fire("test.point"));
    EXPECT_EQ(fault::hits("test.point"), 2u);

    // Other points stay disarmed.
    EXPECT_FALSE(fault::fire("test.other"));

    // skip consumes the first N candidate firings; count bounds the
    // total.
    fault::FaultSpec spec;
    spec.skip = 2;
    spec.count = 1;
    fault::arm("test.bounded", spec);
    EXPECT_FALSE(fault::fire("test.bounded"));
    EXPECT_FALSE(fault::fire("test.bounded"));
    EXPECT_TRUE(fault::fire("test.bounded"));
    EXPECT_FALSE(fault::fire("test.bounded")); // count exhausted
    EXPECT_EQ(fault::hits("test.bounded"), 1u);

    // match restricts firing to details containing the substring.
    fault::FaultSpec match_spec;
    match_spec.match = "shard1";
    fault::arm("test.matched", match_spec);
    EXPECT_FALSE(fault::fire("test.matched", "shard0"));
    EXPECT_TRUE(fault::fire("test.matched", "shard1"));
    EXPECT_FALSE(fault::fire("test.matched"));

    // disarm removes exactly one point; disarmAll removes the rest.
    fault::disarm("test.point");
    EXPECT_FALSE(fault::fire("test.point"));
    EXPECT_TRUE(fault::fire("test.matched", "shard1"));
    fault::disarmAll();
    EXPECT_FALSE(fault::fire("test.matched", "shard1"));
}

TEST(FaultPoints, AdmissionControlShedsRejectNew)
{
    FaultGuard guard;
    ServerFixture fx;

    engine::ServerOptions options;
    options.max_batch = 1;
    options.max_delay = std::chrono::microseconds(50);
    options.max_queue = 1;
    engine::InferenceServer server(fx.backend(), options);

    // Stall every batch 25 ms so a burst must overflow the one-slot
    // queue; excess requests shed with ServerOverloaded instead of
    // queueing without bound.
    fault::arm("batcher.stall");
    std::vector<std::future<std::vector<std::int64_t>>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(server.submit(fx.input(10 + i)));

    std::uint64_t ok = 0, shed = 0;
    for (auto &future : futures) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "a shed/served request must never hang";
        try {
            future.get();
            ++ok;
        } catch (const engine::ServerOverloaded &error) {
            EXPECT_STREQ(error.what(),
                         "request shed: server queue is full");
            ++shed;
        }
    }
    EXPECT_EQ(ok + shed, 8u);
    EXPECT_GE(shed, 1u);
    EXPECT_GE(ok, 1u);
    EXPECT_EQ(server.stats().requests_shed, shed);
    fault::disarmAll();
    server.stop();
}

TEST(FaultPoints, AdmissionControlEvictsLowestPriority)
{
    FaultGuard guard;
    ServerFixture fx;

    engine::ServerOptions options;
    options.max_batch = 1;
    options.max_delay = std::chrono::microseconds(50);
    options.max_queue = 1;
    options.shed_policy = engine::ShedPolicy::EvictLowestPriority;
    engine::InferenceServer server(fx.backend(), options);

    fault::arm("batcher.stall");
    // The batcher fires the stall point once per batch it popped, so
    // waiting on the hit count (not on a sleep) proves the request is
    // in the stalled batch and out of the one queue slot.
    auto awaitStalls = [](std::uint64_t batches) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (fault::hits("batcher.stall") < batches) {
            ASSERT_LT(std::chrono::steady_clock::now(), give_up)
                << "the batcher never popped stalled batch " << batches;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    };

    // A occupies the backend (stalled); B sits in the single queue
    // slot at priority 0; the priority-5 newcomer C must evict B.
    auto future_a = server.submit(fx.input(1));
    ASSERT_NO_FATAL_FAILURE(awaitStalls(1));
    engine::SubmitOptions low;
    low.priority = 0;
    auto future_b = server.submit(fx.input(2), low);
    engine::SubmitOptions high;
    high.priority = 5;
    auto future_c = server.submit(fx.input(3), high);

    EXPECT_NO_THROW(future_a.get());
    EXPECT_THROW(future_b.get(), engine::ServerOverloaded);
    EXPECT_NO_THROW(future_c.get());
    EXPECT_EQ(server.stats().requests_shed, 1u);

    // An equal-priority newcomer is shed itself: FIFO within a level.
    // C's batch was the second stall, so D's is the third.
    auto future_d = server.submit(fx.input(4));
    ASSERT_NO_FATAL_FAILURE(awaitStalls(3));
    auto future_e = server.submit(fx.input(5), low);
    auto future_f = server.submit(fx.input(6), low);
    EXPECT_NO_THROW(future_d.get());
    EXPECT_NO_THROW(future_e.get());
    EXPECT_THROW(future_f.get(), engine::ServerOverloaded);

    fault::disarmAll();
    server.stop();
}

TEST(FaultPoints, InfeasibleDeadlineShedsUpfront)
{
    FaultGuard guard;
    ServerFixture fx;

    engine::ServerOptions options;
    options.max_batch = 1;
    options.max_delay = std::chrono::milliseconds(10);
    options.max_queue = 8;
    options.shed_infeasible_deadlines = true;
    engine::InferenceServer server(fx.backend(), options);

    // A 1 us deadline cannot survive even one 10 ms forming window:
    // the server must say "overloaded" immediately rather than admit
    // the request and expire it in the queue.
    engine::SubmitOptions doomed;
    doomed.deadline = std::chrono::microseconds(1);
    EXPECT_THROW(server.submit(fx.input(1), doomed).get(),
                 engine::ServerOverloaded);
    EXPECT_EQ(server.stats().requests_shed, 1u);

    // A generous deadline passes the feasibility check.
    engine::SubmitOptions fine;
    fine.deadline = std::chrono::seconds(10);
    EXPECT_NO_THROW(server.submit(fx.input(2), fine).get());
    server.stop();
}

TEST(FaultPoints, ShardFailureEjectsFailsOverAndRecovers)
{
    FaultGuard guard;
    core::EieConfig config = makeConfig();
    const auto layer =
        test::randomCompressedLayer(96, 64, 0.25, 4, 802);
    const auto model = serve::LoadedModel::fromStorage(
        "breaker", 1, layer.storage(), nn::Nonlinearity::ReLU,
        config);
    core::FunctionalModel functional(config);
    const core::LayerPlan oracle_plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);

    serve::ClusterOptions options;
    options.shards = 2;
    options.placement = serve::Placement::Replicated;
    options.server.max_batch = 4;
    options.server.max_delay = std::chrono::microseconds(100);
    options.eject_after_failures = 2;
    options.probe_interval = 2;
    serve::ClusterEngine cluster(model, options);

    // Shard 0 fails every submit; the breaker must eject it and the
    // failover path must keep every request bit-exact.
    fault::FaultSpec spec;
    spec.match = "shard0";
    fault::arm("shard.submit_fail", spec);

    for (int i = 0; i < 12; ++i) {
        const auto input = functional.quantizeInput(
            test::randomActivations(64, 0.6, 900 + i));
        const auto expected =
            functional.run(oracle_plan, input).output_raw;
        EXPECT_EQ(cluster.infer(input), expected) << "request " << i;
    }

    serve::ClusterStats sick = cluster.stats();
    EXPECT_TRUE(sick.shards[0].ejected);
    EXPECT_FALSE(sick.shards[1].ejected);
    EXPECT_EQ(sick.shards_ejected, 1u);
    EXPECT_GE(sick.shards[0].failures, 2u);
    EXPECT_GE(sick.failovers, 2u);
    EXPECT_GE(fault::hits("shard.submit_fail"), 2u);

    // Heal the shard: recovery probes route live traffic back to it,
    // and one success re-admits it to rotation.
    fault::disarmAll();
    for (int i = 0; i < 12; ++i) {
        const auto input = functional.quantizeInput(
            test::randomActivations(64, 0.6, 950 + i));
        const auto expected =
            functional.run(oracle_plan, input).output_raw;
        EXPECT_EQ(cluster.infer(input), expected);
    }
    serve::ClusterStats healed = cluster.stats();
    EXPECT_FALSE(healed.shards[0].ejected);
    EXPECT_EQ(healed.shards_ejected, 0u);
    EXPECT_GE(healed.shards[0].probes, 1u);
    cluster.stop();
}

TEST(FaultPoints, RegistryTruncateReadIsTypedCorrupt)
{
    FaultGuard guard;
    const fs::path dir = scratchDir("registry");
    core::EieConfig config = makeConfig();
    serve::ModelRegistry registry(dir.string(), config);
    const auto layer =
        test::randomCompressedLayer(48, 32, 0.25, 4, 803);
    registry.publish("fc", 1, layer.storage());

    // Injected mid-file truncation on the read path: the checksum
    // catches it and load() reports Corrupt — typed, not fatal.
    Logger::setQuiet(true);
    fault::arm("registry.truncate_read");
    serve::LoadError error = serve::LoadError::None;
    std::string detail;
    EXPECT_EQ(registry.load("fc", 1, nn::Nonlinearity::ReLU, &error,
                            &detail),
              nullptr);
    EXPECT_EQ(error, serve::LoadError::Corrupt);
    EXPECT_NE(detail.find("checksum"), std::string::npos) << detail;
    Logger::setQuiet(false);

    // The corrupt result is not cached: with the fault disarmed the
    // same load succeeds (recovery by republish/repair needs no
    // process restart).
    fault::disarmAll();
    error = serve::LoadError::None;
    EXPECT_NE(registry.load("fc", 1, nn::Nonlinearity::ReLU, &error,
                            &detail),
              nullptr);
    EXPECT_EQ(error, serve::LoadError::None);
    fs::remove_all(dir);
}

TEST(FaultPoints, CorruptModelFileSurfacesOnEveryTransport)
{
    FaultGuard guard;
    const fs::path dir = scratchDir("corrupt");
    core::EieConfig config = makeConfig();
    serve::ModelRegistry registry(dir.string(), config);
    const auto layer =
        test::randomCompressedLayer(48, 32, 0.25, 4, 804);
    const std::string path =
        registry.publish("fc", 1, layer.storage());

    // Physically truncate the published file mid-byte.
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    serve::ClusterOptions cluster_options;
    cluster_options.shards = 2;
    serve::ServingDirectory directory(registry, cluster_options);
    serve::TcpServer server(directory);
    server.start();

    Logger::setQuiet(true);
    // The directory reports a typed Rejected lookup, not a crash.
    std::string error;
    serve::ServingDirectory::LookupStatus lookup;
    EXPECT_EQ(directory.cluster("fc", 1, error,
                                nn::Nonlinearity::ReLU, &lookup),
              nullptr);
    EXPECT_EQ(lookup, serve::ServingDirectory::LookupStatus::Rejected);
    EXPECT_NE(error.find("unreadable"), std::string::npos) << error;

    // Every client transport turns the damage into a typed Status
    // (NotFound from a registry-backed local lookup, Internal for a
    // server-side policy rejection) — and stays alive.
    client::ClientOptions options;
    options.config = config;
    options.cluster = cluster_options;
    const std::vector<std::string> endpoints{
        "local:compiled,dir=" + dir.string(),
        "cluster:" + dir.string(),
        "tcp://127.0.0.1:" + std::to_string(server.port())};
    for (const std::string &endpoint : endpoints) {
        client::Status status;
        auto client = client::Client::connect(endpoint, options,
                                              status);
        ASSERT_NE(client, nullptr) << endpoint;
        const auto input = core::FunctionalModel(config).quantizeInput(
            test::randomActivations(32, 0.6, 42));
        const client::InferenceResult result =
            client->inferRaw("fc", input);
        EXPECT_FALSE(result.ok()) << endpoint;
        EXPECT_TRUE(result.status.code ==
                        client::StatusCode::NotFound ||
                    result.status.code ==
                        client::StatusCode::Internal)
            << endpoint << ": " << result.status.toString();
        // A model the daemon cannot load is its deployment's problem,
        // not a missing model, on every transport.
        client::ModelInfo info;
        const client::Status info_status = client->info("fc", 1, info);
        EXPECT_EQ(info_status.code, client::StatusCode::Internal)
            << endpoint << ": " << info_status.toString();
        client->close();
    }
    Logger::setQuiet(false);

    server.stop();
    directory.stopAll();
    fs::remove_all(dir);
}

TEST(FaultPoints, BatcherStallHonorsQueuedDeadlines)
{
    FaultGuard guard;
    ServerFixture fx;

    engine::ServerOptions options;
    options.max_batch = 1;
    options.max_delay = std::chrono::microseconds(50);
    engine::InferenceServer server(fx.backend(), options);

    // A wedged backend: the first request stalls in execution while
    // the second's 5 ms deadline expires in the queue. The deadline
    // must fire (typed), not hang behind the stall.
    fault::arm("batcher.stall");
    auto slow = server.submit(fx.input(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    engine::SubmitOptions tight;
    tight.deadline = std::chrono::milliseconds(5);
    auto dropped = server.submit(fx.input(2), tight);

    ASSERT_EQ(dropped.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_THROW(dropped.get(), engine::DeadlineExpired);
    EXPECT_NO_THROW(slow.get());
    fault::disarmAll();
    server.stop();
}

TEST(FaultPoints, TcpConnectionDropFailsPendingCleanly)
{
    FaultGuard guard;
    const fs::path dir = scratchDir("drop");
    core::EieConfig config = makeConfig();
    serve::ModelRegistry registry(dir.string(), config);
    const auto layer =
        test::randomCompressedLayer(48, 32, 0.25, 4, 805);
    registry.publish("fc", 1, layer.storage());

    serve::ClusterOptions cluster_options;
    serve::ServingDirectory directory(registry, cluster_options);
    serve::TcpServer server(directory);
    server.start();

    serve::TcpClient client("127.0.0.1", server.port());
    core::FunctionalModel functional(config);
    const auto input = functional.quantizeInput(
        test::randomActivations(32, 0.6, 7));

    // Healthy first: one round trip (also flushes the handshake).
    serve::wire::InferResponse first =
        client.submitInfer("fc", 1, input).get();
    ASSERT_TRUE(first.ok) << first.error;

    // Drop the connection right after the next response is written.
    // Whether that response survives is a kernel race (the server's
    // close can RST it out of the client's receive buffer), so the
    // contract is: delivered bit-exact, or failed typed Unavailable
    // — never a hang or a protocol error.
    fault::FaultSpec once;
    once.count = 1;
    fault::arm("tcp.drop_after_write", once);
    auto second_future = client.submitInfer("fc", 1, input);
    ASSERT_EQ(second_future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const serve::wire::InferResponse second = second_future.get();
    if (second.ok)
        EXPECT_EQ(second.output, first.output);
    else
        EXPECT_EQ(second.code, serve::wire::ErrorCode::Unavailable)
            << second.error;

    auto third = client.submitInfer("fc", 1, input);
    ASSERT_EQ(third.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "a request on a dropped connection must fail, not hang";
    const serve::wire::InferResponse response = third.get();
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.code, serve::wire::ErrorCode::Unavailable);
    EXPECT_EQ(fault::hits("tcp.drop_after_write"), 1u);

    client.close();
    server.stop();
    directory.stopAll();
    fs::remove_all(dir);
}

} // namespace
