/**
 * @file
 * In-memory models behind a `local:` endpoint (ClientOptions::models):
 * a multi-layer plan stack served as one model, and a streaming LSTM
 * session over an in-memory packed-gate layer. Both must be bit-exact
 * with the scalar oracle driving the same plans directly.
 */

#include <gtest/gtest.h>

#include "client/client.hh"
#include "core/functional.hh"
#include "core/plan.hh"
#include "engine/backends.hh"
#include "engine/lstm_session.hh"
#include "helpers.hh"

namespace {

using namespace eie;

core::EieConfig
makeConfig()
{
    core::EieConfig config;
    config.n_pe = 4;
    return config;
}

std::unique_ptr<client::Client>
connectOrFail(const std::string &endpoint,
              const client::ClientOptions &options)
{
    client::Status status;
    auto connected = client::Client::connect(endpoint, options, status);
    EXPECT_NE(connected, nullptr)
        << endpoint << ": " << status.toString();
    return connected;
}

TEST(LocalModels, TwoLayerStackIsBitExactWithTheScalarBackend)
{
    const core::EieConfig config = makeConfig();
    // 32 -> 48 (ReLU) -> 24 (None): the second layer's sizes differ
    // from the first's, so the endpoint must take its input size from
    // the bottom of the stack and its output size from the top.
    const core::LayerPlan hidden = core::planLayer(
        test::randomCompressedLayer(48, 32, 0.3, 4, 4101),
        nn::Nonlinearity::ReLU, config);
    const core::LayerPlan top = core::planLayer(
        test::randomCompressedLayer(24, 48, 0.3, 4, 4102),
        nn::Nonlinearity::None, config);
    const engine::ScalarBackend oracle(config, {&hidden, &top});

    client::ClientOptions options;
    options.config = config;
    options.models.push_back(client::LocalModel{"mlp", {&hidden, &top}});
    const auto client = connectOrFail("local:compiled", options);
    ASSERT_NE(client, nullptr);

    client::ModelInfo info;
    ASSERT_TRUE(client->info("mlp", 0, info).ok());
    EXPECT_EQ(info.version, 1u);
    EXPECT_EQ(info.input_size, 32u);
    EXPECT_EQ(info.output_size, 24u);
    EXPECT_EQ(client->info("mlp", 2, info).code,
              client::StatusCode::NotFound);

    const core::FunctionalModel functional(config);
    client::InferenceRequest batch;
    batch.model = "mlp";
    for (std::uint64_t i = 0; i < 6; ++i)
        batch.fixed.push_back(functional.quantizeInput(
            test::randomActivations(32, 0.6, 4200 + i)));
    const client::InferenceResult result = client->infer(batch);
    ASSERT_TRUE(result.ok()) << result.status.toString();
    const engine::RunReport expected = oracle.runBatch(batch.fixed);
    ASSERT_EQ(result.outputs.size(), expected.outputs.size());
    for (std::size_t i = 0; i < expected.outputs.size(); ++i)
        EXPECT_EQ(result.outputs[i], expected.outputs[i])
            << "frame " << i;
    client->close();
}

TEST(LocalModels, InMemoryLstmSessionMatchesTheScalarSession)
{
    constexpr std::size_t kX = 8;
    constexpr std::size_t kH = 8;
    const core::EieConfig config = makeConfig();
    // Packed gates (4H) x (X + H + 1) = 32 x 17, planned without a
    // drain non-linearity: the caller owns an in-memory model's drain.
    const core::LayerPlan gates = core::planLayer(
        test::randomCompressedLayer(4 * kH, kX + kH + 1, 0.3, 4, 77),
        nn::Nonlinearity::None, config);
    const engine::ScalarBackend scalar(config, {&gates});

    engine::LstmShape shape;
    std::string error;
    ASSERT_TRUE(engine::LstmShape::derive(kX + kH + 1, 4 * kH, shape,
                                          error))
        << error;
    engine::LstmSession oracle(config, shape);

    client::ClientOptions options;
    options.config = config;
    options.models.push_back(client::LocalModel{"lstm", {&gates}});
    const auto client = connectOrFail("local:compiled", options);
    ASSERT_NE(client, nullptr);
    client::Status status;
    const auto session = client->openSession("lstm", 0, status);
    ASSERT_NE(session, nullptr) << status.toString();
    EXPECT_EQ(session->inputSize(), kX);
    EXPECT_EQ(session->hiddenSize(), kH);

    for (std::uint64_t t = 0; t < 10; ++t) {
        const nn::Vector x = test::randomActivations(kX, 0.7, 6100 + t);
        const nn::Vector expected =
            oracle.step(x, [&](std::vector<std::int64_t> packed) {
                return scalar.run(packed).outputs.front();
            });
        const client::Session::StepResult step = session->step(x);
        ASSERT_TRUE(step.ok()) << step.status.toString();
        EXPECT_EQ(step.h, expected) << "step " << t;
    }
    EXPECT_EQ(session->steps(), 10u);
    session->close();
    client->close();
}

} // namespace
