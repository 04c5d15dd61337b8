/**
 * @file
 * NetworkRunner tests: layer chaining, per-layer stats and agreement
 * with a manually-driven accelerator chain.
 */

#include <gtest/gtest.h>

#include "core/accelerator.hh"
#include "core/network_runner.hh"
#include "helpers.hh"

namespace {

using namespace eie;

TEST(NetworkRunner, ChainsLayersAndMatchesManualExecution)
{
    const unsigned n_pe = 4;
    core::EieConfig config;
    config.n_pe = n_pe;

    const auto l1 = test::randomCompressedLayer(48, 32, 0.25, n_pe, 501);
    const auto l2 = test::randomCompressedLayer(16, 48, 0.25, n_pe, 502);

    core::NetworkRunner runner(config);
    runner.addLayer(l1, nn::Nonlinearity::ReLU);
    runner.addLayer(l2, nn::Nonlinearity::None);
    EXPECT_EQ(runner.layerCount(), 2u);
    EXPECT_EQ(runner.inputSize(), 32u);
    EXPECT_EQ(runner.outputSize(), 16u);

    const auto input = test::randomActivations(32, 0.5, 503);
    const core::FunctionalModel functional(config);
    const auto raw = functional.quantizeInput(input);
    const auto result = runner.run(raw);

    // Manual chain with a bare Accelerator.
    const core::Accelerator accel(config);
    auto act = raw;
    act = accel.run(core::planLayer(l1, nn::Nonlinearity::ReLU,
                                    config), act).output_raw;
    act = accel.run(core::planLayer(l2, nn::Nonlinearity::None,
                                    config), act).output_raw;

    EXPECT_EQ(result.output_raw, act);
    ASSERT_EQ(result.per_layer.size(), 2u);
    EXPECT_EQ(result.totalCycles(),
              result.per_layer[0].cycles + result.per_layer[1].cycles);
    EXPECT_NEAR(result.totalTimeUs(),
                result.per_layer[0].timeUs() +
                    result.per_layer[1].timeUs(), 1e-12);
}

TEST(NetworkRunner, FloatWrapper)
{
    const unsigned n_pe = 4;
    core::EieConfig config;
    config.n_pe = n_pe;
    const auto l1 = test::randomCompressedLayer(24, 16, 0.3, n_pe, 511);

    core::NetworkRunner runner(config);
    runner.addLayer(l1, nn::Nonlinearity::ReLU);

    const auto input = test::randomActivations(16, 0.8, 512);
    core::NetworkResult details;
    const auto out = runner.runFloat(input, &details);

    const nn::Vector golden =
        nn::relu(l1.quantizedWeights().spmv(input));
    ASSERT_EQ(out.size(), golden.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out[i], golden[i], 0.1);
    EXPECT_EQ(details.per_layer.size(), 1u);
}

TEST(NetworkRunner, MultiLayerBatchMatchesScalarOracleRaggedSizes)
{
    // Three chained layers, row-parallel execution, and ragged batch
    // sizes: a single frame, an odd count, and one larger than the
    // serving queue's default micro-batch (16). Every frame must be
    // bit-exact with the scalar interpreter walked layer by layer.
    const unsigned n_pe = 4;
    core::EieConfig config;
    config.n_pe = n_pe;

    core::NetworkRunner runner(config);
    runner.addLayer(test::randomCompressedLayer(64, 40, 0.2, n_pe, 531),
                    nn::Nonlinearity::ReLU);
    runner.addLayer(test::randomCompressedLayer(56, 64, 0.25, n_pe, 532),
                    nn::Nonlinearity::ReLU);
    runner.addLayer(test::randomCompressedLayer(24, 56, 0.3, n_pe, 533),
                    nn::Nonlinearity::None);

    const core::FunctionalModel model(config);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{33}}) {
        core::kernel::Batch frames;
        for (std::size_t b = 0; b < batch; ++b)
            frames.push_back(model.quantizeInput(test::randomActivations(
                40, 0.5, 534 + 17 * batch + b)));

        core::kernel::Batch reference;
        for (const auto &frame : frames) {
            std::vector<std::int64_t> act = frame;
            for (std::size_t l = 0; l < runner.layerCount(); ++l)
                act = model.run(runner.plan(l), act).output_raw;
            reference.push_back(std::move(act));
        }

        for (unsigned threads : {1u, 3u}) {
            const auto outputs = runner.runBatch(frames, threads);
            ASSERT_EQ(outputs.size(), batch);
            for (std::size_t b = 0; b < batch; ++b)
                EXPECT_EQ(outputs[b], reference[b])
                    << "batch " << batch << ", " << threads
                    << " threads, frame " << b;
        }
    }
}

TEST(NetworkRunnerDeath, RejectsMismatchedChain)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto l1 = test::randomCompressedLayer(48, 32, 0.25, 4, 521);
    const auto l2 = test::randomCompressedLayer(16, 40, 0.25, 4, 522);

    core::NetworkRunner runner(config);
    runner.addLayer(l1, nn::Nonlinearity::ReLU);
    EXPECT_EXIT(runner.addLayer(l2, nn::Nonlinearity::None),
                ::testing::ExitedWithCode(1), "chain");
}

TEST(NetworkRunnerDeath, EmptyNetwork)
{
    core::EieConfig config;
    config.n_pe = 2;
    core::NetworkRunner runner(config);
    EXPECT_EXIT(runner.run({}), ::testing::ExitedWithCode(1),
                "no layers");
}

} // namespace
