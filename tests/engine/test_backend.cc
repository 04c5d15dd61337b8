/**
 * @file
 * ExecutionBackend tests: the three execution paths selected by name
 * must produce bit-identical raw outputs on randomized layers, the
 * timed backend must report the same cycles as driving the
 * Accelerator by hand, and the factory must reject unknown names and
 * broken stacks.
 */

#include <gtest/gtest.h>

#include "core/accelerator.hh"
#include "core/functional.hh"
#include "core/network_runner.hh"
#include "engine/backend.hh"
#include "engine/backends.hh"
#include "helpers.hh"

namespace {

using namespace eie;

core::kernel::Batch
makeFrames(const core::FunctionalModel &model, std::size_t n,
           std::size_t batch, double density, std::uint64_t seed)
{
    core::kernel::Batch frames;
    for (std::size_t b = 0; b < batch; ++b)
        frames.push_back(model.quantizeInput(
            test::randomActivations(n, density, seed + 31 * b)));
    return frames;
}

TEST(ExecutionBackend, AllBackendsBitIdenticalOnRandomizedLayers)
{
    struct Point
    {
        unsigned n_pe;
        unsigned regfile; // small values force several row batches
        unsigned ptr_cap; // small values force several column passes
        std::size_t mid, in, out;
        double w_density, a_density;
    };
    const Point points[] = {
        {4, 64, 16384, 96, 64, 48, 0.25, 0.5},
        {8, 8, 33, 120, 96, 40, 0.15, 0.4}, // batches x passes grid
    };

    std::uint64_t seed = 4000;
    for (const Point &p : points) {
        core::EieConfig config;
        config.n_pe = p.n_pe;
        config.regfile_entries = p.regfile;
        config.ptr_capacity = p.ptr_cap;

        const auto l1 = test::randomCompressedLayer(
            p.mid, p.in, p.w_density, p.n_pe, seed++);
        const auto l2 = test::randomCompressedLayer(
            p.out, p.mid, p.w_density, p.n_pe, seed++);
        const auto plan1 =
            core::planLayer(l1, nn::Nonlinearity::ReLU, config);
        const auto plan2 =
            core::planLayer(l2, nn::Nonlinearity::None, config);
        const std::vector<const core::LayerPlan *> plans{&plan1,
                                                         &plan2};

        const core::FunctionalModel model(config);
        const auto frames =
            makeFrames(model, p.in, 5, p.a_density, seed += 100);

        core::kernel::Batch reference;
        for (const std::string &name : engine::backendNames()) {
            for (unsigned threads : {1u, 3u}) {
                const auto backend = engine::makeBackend(
                    name, config, plans, threads);
                EXPECT_EQ(backend->name(), name);
                EXPECT_EQ(backend->inputSize(), p.in);
                EXPECT_EQ(backend->outputSize(), p.out);
                EXPECT_EQ(backend->layerCount(), 2u);

                const auto report = backend->runBatch(frames);
                ASSERT_EQ(report.outputs.size(), frames.size());
                if (reference.empty())
                    reference = report.outputs;
                for (std::size_t b = 0; b < frames.size(); ++b)
                    EXPECT_EQ(report.outputs[b], reference[b])
                        << name << ", " << threads << " threads, frame "
                        << b;

                if (backend->timed()) {
                    ASSERT_EQ(report.stats.size(), frames.size());
                    EXPECT_EQ(report.stats[0].size(), 2u);
                    EXPECT_GT(report.totalCycles(), 0u);
                } else {
                    EXPECT_TRUE(report.stats.empty());
                    EXPECT_EQ(report.totalCycles(), 0u);
                }
            }
        }
    }
}

TEST(ExecutionBackend, SimBackendCyclesMatchManualAccelerator)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(64, 48, 0.2, 4, 610);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);

    const core::FunctionalModel model(config);
    const auto input = model.quantizeInput(
        test::randomActivations(48, 0.5, 611));

    const auto backend =
        engine::makeBackend("sim", config, {&plan});
    const auto report = backend->run(input);

    const core::Accelerator accel(config);
    const auto manual = accel.run(plan, input);

    EXPECT_EQ(report.outputs[0], manual.output_raw);
    ASSERT_EQ(report.stats.size(), 1u);
    ASSERT_EQ(report.stats[0].size(), 1u);
    EXPECT_EQ(report.stats[0][0].cycles, manual.stats.cycles);
    EXPECT_EQ(report.stats[0][0].total_entries,
              manual.stats.total_entries);
    EXPECT_EQ(report.totalCycles(), manual.stats.cycles);
    EXPECT_NEAR(report.totalTimeUs(), manual.stats.timeUs(), 1e-12);
}

TEST(ExecutionBackend, NetworkRunnerHandsOutCachedBackends)
{
    core::EieConfig config;
    config.n_pe = 4;
    core::NetworkRunner net(config);
    net.addLayer(test::randomCompressedLayer(32, 24, 0.3, 4, 620),
                 nn::Nonlinearity::ReLU);

    engine::ExecutionBackend &compiled = net.backend("compiled");
    engine::ExecutionBackend &again = net.backend("compiled");
    EXPECT_EQ(&compiled, &again); // cached per (name, threads, kernel)
    EXPECT_NE(&compiled, &net.backend("compiled", 2));
    EXPECT_NE(&compiled, &net.backend("scalar"));
    EXPECT_NE(&compiled,
              &net.backend("compiled", 1,
                           core::kernel::KernelVariant::Vector));
    // Non-compiled backends normalize the kernel key: one instance.
    EXPECT_EQ(&net.backend("scalar"),
              &net.backend("scalar", 1,
                           core::kernel::KernelVariant::ActSparse));

    // addLayer invalidates: a new stack means new backends.
    net.addLayer(test::randomCompressedLayer(16, 32, 0.3, 4, 621),
                 nn::Nonlinearity::ReLU);
    EXPECT_EQ(net.backend("compiled").layerCount(), 2u);
}

TEST(ExecutionBackend, FunctionalRunBatchCachesCompiledBackend)
{
    // The satellite regression: FunctionalModel::runBatch used to
    // recompile the plan per call. Repeat calls must agree with the
    // scalar interpreter (cache hit), and swapping in a different
    // plan (same model) must not serve the stale kernel.
    core::EieConfig config;
    config.n_pe = 2;
    const core::FunctionalModel model(config);

    const auto layer_a = test::randomCompressedLayer(40, 24, 0.3, 2, 630);
    const auto layer_b = test::randomCompressedLayer(40, 24, 0.3, 2, 631);
    const auto plan_a =
        core::planLayer(layer_a, nn::Nonlinearity::ReLU, config);
    const auto plan_b =
        core::planLayer(layer_b, nn::Nonlinearity::ReLU, config);

    const auto frames = makeFrames(model, 24, 3, 0.6, 632);
    for (const auto *plan : {&plan_a, &plan_b, &plan_a, &plan_a}) {
        const auto outputs = model.runBatch(*plan, frames);
        for (std::size_t b = 0; b < frames.size(); ++b)
            EXPECT_EQ(outputs[b],
                      model.run(*plan, frames[b]).output_raw);
    }
}

TEST(ExecutionBackend, CompiledKernelVariantsMatchScalarOnAStack)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto l1 = test::randomCompressedLayer(96, 64, 0.25, 4, 650);
    const auto l2 = test::randomCompressedLayer(48, 96, 0.2, 4, 651);
    const auto plan1 =
        core::planLayer(l1, nn::Nonlinearity::ReLU, config);
    const auto plan2 =
        core::planLayer(l2, nn::Nonlinearity::ReLU, config);
    const std::vector<const core::LayerPlan *> plans{&plan1, &plan2};

    const core::FunctionalModel model(config);
    const auto frames = makeFrames(model, 64, 9, 0.5, 652);
    const auto scalar = engine::makeBackend("scalar", config, plans);
    const auto reference = scalar->runBatch(frames).outputs;

    for (const core::kernel::KernelVariant kernel :
         {core::kernel::KernelVariant::Auto,
          core::kernel::KernelVariant::Reference,
          core::kernel::KernelVariant::Vector,
          core::kernel::KernelVariant::ActSparse}) {
        for (const unsigned threads : {1u, 4u}) {
            const auto backend = engine::makeBackend(
                "compiled", config, plans, threads, kernel);
            const auto *compiled =
                dynamic_cast<engine::CompiledBackend *>(backend.get());
            ASSERT_NE(compiled, nullptr);
            EXPECT_EQ(compiled->kernel(), kernel);
            EXPECT_EQ(backend->runBatch(frames).outputs, reference)
                << core::kernel::kernelVariantName(kernel) << ", "
                << threads << " threads";
        }
    }
}

TEST(ExecutionBackendDeath, UnknownNameAndBrokenStacks)
{
    core::EieConfig config;
    config.n_pe = 2;
    const auto layer = test::randomCompressedLayer(16, 8, 0.5, 2, 640);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);

    EXPECT_EXIT(engine::makeBackend("vliw", config, {&plan}),
                ::testing::ExitedWithCode(1), "unknown execution");
    EXPECT_EXIT(engine::makeBackend("scalar", config, {}),
                ::testing::ExitedWithCode(1), "at least one layer");
    EXPECT_EXIT(engine::makeBackend("scalar", config, {&plan, &plan}),
                ::testing::ExitedWithCode(1), "chain");

    // An explicit "vector" request on formats that overflow 32-bit
    // lanes must fail loudly at construction, not silently diverge.
    core::EieConfig narrow = config;
    narrow.weight_format = FixedFormat{16, 6};
    narrow.act_format = FixedFormat{16, 13};
    const auto narrow_plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, narrow);
    EXPECT_EXIT(
        engine::makeBackend("compiled", narrow, {&narrow_plan}, 1,
                            core::kernel::KernelVariant::Vector),
        ::testing::ExitedWithCode(1), "not bit-exact");
}

} // namespace
