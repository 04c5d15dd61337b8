/**
 * @file
 * ClusterEngine tests: bit-exact serving against the scalar oracle
 * under both placement policies, concurrent clients across shards,
 * aggregated statistics, deadline propagation and drain-on-stop.
 * The concurrent suites double as the ThreadSanitizer workload in
 * tools/check.sh.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <thread>

#include <unistd.h>

#include "core/functional.hh"
#include "engine/backend.hh"
#include "helpers.hh"
#include "serve/cluster.hh"

namespace {

using namespace eie;

/** A small single-layer model shared by the cluster tests. */
struct ClusterFixture
{
    core::EieConfig config;
    compress::CompressedLayer layer;
    std::shared_ptr<const serve::LoadedModel> model;
    core::FunctionalModel functional;
    core::LayerPlan oracle_plan;

    ClusterFixture()
        : config(makeConfig()),
          layer(test::randomCompressedLayer(96, 64, 0.25, 4, 901)),
          model(serve::LoadedModel::fromStorage(
              "fixture", 1, layer.storage(), nn::Nonlinearity::ReLU,
              config)),
          functional(config),
          oracle_plan(core::planLayer(layer, nn::Nonlinearity::ReLU,
                                      config))
    {}

    static core::EieConfig
    makeConfig()
    {
        core::EieConfig config;
        config.n_pe = 4;
        return config;
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

    serve::ClusterOptions
    options(unsigned shards, serve::Placement placement) const
    {
        serve::ClusterOptions opts;
        opts.shards = shards;
        opts.placement = placement;
        opts.server.max_batch = 8;
        opts.server.max_delay = std::chrono::microseconds(200);
        return opts;
    }
};

TEST(ClusterEngine, ReplicatedShardsServeBitExactUnderConcurrency)
{
    ClusterFixture fx;
    serve::ClusterEngine cluster(
        fx.model,
        fx.options(3, serve::Placement::Replicated));
    EXPECT_EQ(cluster.shardCount(), 3u);

    constexpr int kClients = 4;
    constexpr int kPerClient = 24;
    std::vector<std::thread> clients;
    std::vector<std::vector<std::vector<std::int64_t>>> inputs(
        kClients);
    std::vector<std::vector<std::vector<std::int64_t>>> outputs(
        kClients);
    for (int c = 0; c < kClients; ++c) {
        for (int i = 0; i < kPerClient; ++i)
            inputs[c].push_back(
                fx.randomInput(1000 + 37 * c + 100 * i));
        outputs[c].resize(kPerClient);
        clients.emplace_back([&, c] {
            std::vector<std::future<std::vector<std::int64_t>>>
                futures;
            for (int i = 0; i < kPerClient; ++i)
                futures.push_back(cluster.submit(inputs[c][i]));
            for (int i = 0; i < kPerClient; ++i)
                outputs[c][i] = futures[i].get();
        });
    }
    for (auto &client : clients)
        client.join();

    for (int c = 0; c < kClients; ++c)
        for (int i = 0; i < kPerClient; ++i)
            EXPECT_EQ(outputs[c][i], fx.oracle(inputs[c][i]))
                << "client " << c << ", request " << i;

    const serve::ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(stats.dropped_deadline, 0u);
    ASSERT_EQ(stats.shards.size(), 3u);
    double utilization = 0.0;
    for (const serve::ShardStats &shard : stats.shards) {
        utilization += shard.utilization;
        EXPECT_EQ(shard.queue_depth, 0u); // drained
    }
    EXPECT_NEAR(utilization, 1.0, 1e-9);
    EXPECT_LE(stats.p50_latency_us, stats.p99_latency_us + 1e-9);
}

TEST(ClusterEngine, LeastLoadedRoutingSpreadsABurstAcrossShards)
{
    ClusterFixture fx;
    serve::ClusterEngine cluster(
        fx.model, fx.options(4, serve::Placement::Replicated));

    std::vector<std::future<std::vector<std::int64_t>>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(cluster.submit(fx.randomInput(2000 + i)));
    for (auto &future : futures)
        future.get();

    // Every shard must have taken a meaningful share of the burst —
    // round-robin-on-tie alone guarantees this even if queue depths
    // never differ.
    const serve::ClusterStats stats = cluster.stats();
    for (const serve::ShardStats &shard : stats.shards)
        EXPECT_GE(shard.server.requests, 4u);
}

TEST(ClusterEngine, ColumnPartitionedMatchesOracleAndReplicated)
{
    ClusterFixture fx;
    serve::ClusterEngine partitioned(
        fx.model, fx.options(4, serve::Placement::ColumnPartitioned));
    serve::ClusterEngine replicated(
        fx.model, fx.options(2, serve::Placement::Replicated));

    // Contiguous cover of the input columns, one range per shard.
    const std::vector<std::size_t> &bounds =
        partitioned.columnBounds();
    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 64u);
    for (std::size_t s = 0; s + 1 < bounds.size(); ++s)
        EXPECT_LT(bounds[s], bounds[s + 1]);

    for (int i = 0; i < 16; ++i) {
        const auto input = fx.randomInput(3000 + i);
        const auto expected = fx.oracle(input);
        EXPECT_EQ(partitioned.infer(input), expected) << "input " << i;
        EXPECT_EQ(replicated.infer(input), expected) << "input " << i;
    }

    const serve::ClusterStats stats = partitioned.stats();
    EXPECT_EQ(stats.requests, 16u);
    EXPECT_EQ(stats.failed, 0u);
    ASSERT_EQ(stats.shards.size(), 4u);
    // Scatter means every shard saw every request.
    for (const serve::ShardStats &shard : stats.shards)
        EXPECT_EQ(shard.server.requests, 16u);
}

TEST(ClusterEngine, ColumnPartitionedScattersConcurrentClients)
{
    ClusterFixture fx;
    serve::ClusterEngine cluster(
        fx.model, fx.options(4, serve::Placement::ColumnPartitioned));

    constexpr int kClients = 3;
    constexpr int kPerClient = 16;
    std::vector<std::thread> clients;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const auto input =
                    fx.randomInput(4000 + 31 * c + 100 * i);
                if (cluster.infer(input) != fx.oracle(input)) {
                    failures[c] = "client " + std::to_string(c) +
                        " request " + std::to_string(i);
                    return;
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    for (const std::string &failure : failures)
        EXPECT_TRUE(failure.empty()) << failure;
}

TEST(ClusterEngine, StopDrainsAndRejectsLateSubmits)
{
    ClusterFixture fx;
    auto cluster = std::make_unique<serve::ClusterEngine>(
        fx.model, fx.options(2, serve::Placement::ColumnPartitioned));

    std::vector<std::vector<std::int64_t>> inputs;
    std::vector<std::future<std::vector<std::int64_t>>> futures;
    for (int i = 0; i < 24; ++i) {
        inputs.push_back(fx.randomInput(5000 + i));
        futures.push_back(cluster->submit(inputs.back()));
    }
    cluster->stop();
    for (int i = 0; i < 24; ++i)
        EXPECT_EQ(futures[i].get(), fx.oracle(inputs[i]))
            << "request " << i;

    auto late = cluster->submit(fx.randomInput(6000));
    EXPECT_THROW(late.get(), engine::ServerStopped);
    cluster.reset(); // double-stop via destructor is fine
}

TEST(ServingDirectory, StopAllLatchesModelsFirstServedAfterIt)
{
    ClusterFixture fx;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("eie_cluster_test_latch_" + std::to_string(::getpid()));
    serve::ModelRegistry registry(dir.string(), fx.config);
    registry.publish("fc", 1, fx.layer.storage());
    serve::ServingDirectory directory(
        registry, fx.options(1, serve::Placement::Replicated));
    directory.stopAll();

    // A model whose first lookup races (here: follows) stopAll() must
    // not come up as a live cluster: its submits fail as stopped.
    std::string error;
    serve::ClusterEngine *cluster = directory.cluster("fc", 0, error);
    ASSERT_NE(cluster, nullptr) << error;
    auto late = cluster->submit(fx.randomInput(7000));
    EXPECT_THROW(late.get(), engine::ServerStopped);
    std::filesystem::remove_all(dir);
}

TEST(ClusterEngine, DeadlinesPropagateToShardsAndAreCounted)
{
    ClusterFixture fx;
    // A forming deadline far longer than the request deadlines and a
    // batch cap the burst cannot reach: every request must expire in
    // the queue before the batcher would run it.
    serve::ClusterOptions opts =
        fx.options(2, serve::Placement::Replicated);
    opts.server.max_batch = 1000;
    opts.server.max_delay = std::chrono::milliseconds(200);
    serve::ClusterEngine cluster(fx.model, opts);

    engine::SubmitOptions submit;
    submit.deadline = std::chrono::milliseconds(2);
    std::vector<std::future<std::vector<std::int64_t>>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(
            cluster.submit(fx.randomInput(7000 + i), submit));
    for (auto &future : futures)
        EXPECT_THROW(future.get(), engine::DeadlineExpired);

    const serve::ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.requests, 0u);
    EXPECT_EQ(stats.dropped_deadline, 12u);
}

TEST(ClusterEngine, PartitionedDeadlineDropsCountClientRequestsOnce)
{
    ClusterFixture fx;
    serve::ClusterOptions opts =
        fx.options(4, serve::Placement::ColumnPartitioned);
    opts.server.max_batch = 1000;
    opts.server.max_delay = std::chrono::milliseconds(200);
    serve::ClusterEngine cluster(fx.model, opts);

    engine::SubmitOptions submit;
    submit.deadline = std::chrono::milliseconds(2);
    std::vector<std::future<std::vector<std::int64_t>>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(
            cluster.submit(fx.randomInput(8000 + i), submit));
    for (auto &future : futures)
        EXPECT_THROW(future.get(), engine::DeadlineExpired);

    // 6 client requests dropped — not 6 x 4 shard sub-requests.
    const serve::ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.requests, 0u);
    EXPECT_EQ(stats.dropped_deadline, 6u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(ClusterEngineDeath, RejectsWrongInputSizeAndZeroShards)
{
    ClusterFixture fx;
    serve::ClusterEngine cluster(
        fx.model, fx.options(1, serve::Placement::Replicated));
    EXPECT_EXIT(cluster.submit(std::vector<std::int64_t>(5, 1)),
                ::testing::ExitedWithCode(1), "input length");

    serve::ClusterOptions zero;
    zero.shards = 0;
    EXPECT_EXIT(serve::ClusterEngine(fx.model, zero),
                ::testing::ExitedWithCode(1), "at least one shard");
}

TEST(ClusterEngine, KernelVariantsServeBitExactOnEveryPlacement)
{
    ClusterFixture fx;
    for (const core::kernel::KernelVariant kernel :
         {core::kernel::KernelVariant::Auto,
          core::kernel::KernelVariant::Reference,
          core::kernel::KernelVariant::Vector,
          core::kernel::KernelVariant::ActSparse}) {
        for (const serve::Placement placement :
             {serve::Placement::Replicated,
              serve::Placement::ColumnPartitioned}) {
            serve::ClusterOptions opts = fx.options(2, placement);
            opts.kernel = kernel;
            serve::ClusterEngine cluster(fx.model, opts);
            for (int i = 0; i < 6; ++i) {
                const auto input = fx.randomInput(7000 + i);
                EXPECT_EQ(cluster.infer(input), fx.oracle(input))
                    << core::kernel::kernelVariantName(kernel) << ", "
                    << serve::placementName(placement) << ", input "
                    << i;
            }
        }
    }
}

/**
 * The PR 3 caveat, asserted: column-partitioned placement reorders
 * the saturating adds (each shard saturates its own partial before
 * the gather sums them), so a layer whose partials saturate can
 * diverge from the oracle — replicated placement cannot. Weights
 * +127 in columns 0-1 and -127 in columns 2-3 with a ones input
 * drive each row's accumulator to +sat then down: the oracle walks
 * 32512, sat -> 32767, 255, -32257, while two column shards produce
 * sat(+65024) = 32767 and sat(-65024) = -32768, gathering to -1.
 * Saturating workloads must shard replicated.
 */
TEST(ClusterEngine, ColumnPartitionedSaturationCaveatIsReal)
{
    core::EieConfig config;
    config.n_pe = 2;

    nn::SparseMatrix weights(4, 4);
    for (std::size_t j = 0; j < 4; ++j)
        for (std::size_t i = 0; i < 4; ++i)
            weights.insert(i, j, j < 2 ? 127.0f : -127.0f);
    compress::CompressionOptions copts;
    copts.interleave.n_pe = 2;
    const auto layer = compress::CompressedLayer::compress(
        "saturating", weights, copts);
    // None (not ReLU) keeps the negative results observable.
    const auto model = serve::LoadedModel::fromStorage(
        "saturating", 1, layer.storage(), nn::Nonlinearity::None,
        config);

    const core::FunctionalModel functional(config);
    const auto input = functional.quantizeInput(nn::Vector(4, 1.0f));
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::None, config);
    const auto oracle = functional.run(plan, input).output_raw;
    ASSERT_EQ(oracle, std::vector<std::int64_t>(4, -32257));

    serve::ClusterOptions opts;
    opts.shards = 2;
    opts.placement = serve::Placement::Replicated;
    serve::ClusterEngine replicated(model, opts);
    EXPECT_EQ(replicated.infer(input), oracle);

    opts.placement = serve::Placement::ColumnPartitioned;
    serve::ClusterEngine partitioned(model, opts);
    ASSERT_EQ(partitioned.columnBounds(),
              (std::vector<std::size_t>{0, 2, 4}));
    const auto partitioned_out = partitioned.infer(input);
    EXPECT_EQ(partitioned_out, std::vector<std::int64_t>(4, -1));
    EXPECT_NE(partitioned_out, oracle)
        << "partitioned placement unexpectedly matched the oracle on "
           "a saturating layer — if the gather semantics changed, "
           "update the documented caveat";
}

TEST(ClusterEngine, PlacementNamesRoundTrip)
{
    EXPECT_EQ(serve::placementFromName("replicated"),
              serve::Placement::Replicated);
    EXPECT_EQ(serve::placementFromName("partitioned"),
              serve::Placement::ColumnPartitioned);
    EXPECT_STREQ(serve::placementName(serve::Placement::Replicated),
                 "replicated");
    EXPECT_STREQ(
        serve::placementName(serve::Placement::ColumnPartitioned),
        "partitioned");
}

} // namespace
