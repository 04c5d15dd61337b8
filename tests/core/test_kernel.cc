/**
 * @file
 * Compiled-kernel tests: the batched execution path (pre-decoded
 * format, row-parallel worker pool) must be bit-exact with the scalar
 * FunctionalModel interpreter for every configuration, batch size and
 * thread count, and padding entries must vanish from the compiled
 * image without changing any output.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "core/functional.hh"
#include "core/kernel/compiled_layer.hh"
#include "core/kernel/executor.hh"
#include "core/kernel/variant.hh"
#include "core/kernel/worker_pool.hh"
#include "core/network_runner.hh"
#include "core/plan.hh"
#include "helpers.hh"

namespace {

using namespace eie;

using core::kernel::KernelVariant;

/** Every registry variant, explicit and auto. */
const std::vector<KernelVariant> kAllVariants{
    KernelVariant::Auto, KernelVariant::Vector, KernelVariant::ActSparse};

/** Quantized random frames at the given activation density. */
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

/** Per-frame scalar reference outputs. */
core::kernel::Batch
scalarReference(const core::FunctionalModel &model,
                const core::LayerPlan &plan,
                const core::kernel::Batch &frames)
{
    core::kernel::Batch reference;
    for (const auto &frame : frames)
        reference.push_back(model.run(plan, frame).output_raw);
    return reference;
}

TEST(CompiledKernel, RandomizedEquivalenceAcrossConfigs)
{
    struct Point
    {
        unsigned n_pe;
        unsigned regfile; // small values force several row batches
        unsigned ptr_cap; // small values force several column passes
        std::size_t rows, cols;
        double w_density, a_density;
    };
    const Point points[] = {
        {1, 64, 16384, 96, 64, 0.3, 0.5},
        {4, 8, 16384, 200, 80, 0.15, 0.4},   // 3 row batches
        {8, 64, 33, 128, 96, 0.1, 0.5},      // 3 column passes
        {16, 4, 25, 300, 70, 0.2, 0.3},      // batches x passes grid
    };

    std::uint64_t seed = 1000;
    for (const Point &p : points) {
        core::EieConfig config;
        config.n_pe = p.n_pe;
        config.regfile_entries = p.regfile;
        config.ptr_capacity = p.ptr_cap;

        const auto layer = test::randomCompressedLayer(
            p.rows, p.cols, p.w_density, p.n_pe, seed++);
        const auto plan =
            core::planLayer(layer, nn::Nonlinearity::ReLU, config);
        const core::FunctionalModel model(config);

        // The vector sweep pads each accumulator row to whole 8-lane
        // blocks: 4 and 5 leave pad lanes in one block, 8 fills one,
        // 9 and 12 leave pad lanes in the second of two, 16 fills two,
        // 24 three, and 31 leaves one pad lane in the fourth.
        for (std::size_t batch :
             {1u, 4u, 5u, 8u, 9u, 12u, 16u, 24u, 31u}) {
            const auto frames = makeFrames(model, p.cols, batch,
                                           p.a_density, seed += 100);
            const auto reference = scalarReference(model, plan, frames);

            for (unsigned threads : {1u, 4u}) {
                for (const KernelVariant kernel : kAllVariants) {
                    const auto outputs =
                        model.runBatch(plan, frames, threads, kernel);
                    ASSERT_EQ(outputs.size(), reference.size());
                    for (std::size_t b = 0; b < batch; ++b)
                        EXPECT_EQ(outputs[b], reference[b])
                            << p.n_pe << " PEs, batch " << batch
                            << ", " << threads << " threads, kernel "
                            << core::kernel::kernelVariantName(kernel)
                            << ", frame " << b;
                }
            }
        }
    }
}

TEST(CompiledKernel, NonePreservesNegativesLikeScalar)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 77);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::None, config);
    const core::FunctionalModel model(config);

    const auto frames = makeFrames(model, 48, 8, 1.0, 78);
    const auto reference = scalarReference(model, plan, frames);

    bool saw_negative = false;
    for (const KernelVariant kernel : kAllVariants) {
        const auto outputs = model.runBatch(plan, frames, 1, kernel);
        for (std::size_t b = 0; b < frames.size(); ++b) {
            EXPECT_EQ(outputs[b], reference[b])
                << core::kernel::kernelVariantName(kernel);
            for (auto v : outputs[b])
                saw_negative |= v < 0;
        }
    }
    EXPECT_TRUE(saw_negative);
}

TEST(CompiledKernel, PaddingEntriesAreStrippedAndContributeZero)
{
    // Very sparse tall layer on few PEs: zero runs far beyond 15 force
    // padding entries into the interleaved image.
    core::EieConfig config;
    config.n_pe = 2;
    const auto layer =
        test::randomCompressedLayer(600, 32, 0.01, 2, 91);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    ASSERT_GT(plan.paddingEntries(), 0u);

    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    EXPECT_EQ(compiled.stripped_padding, plan.paddingEntries());
    EXPECT_EQ(compiled.real_entries,
              plan.totalEntries() - plan.paddingEntries());

    // The scalar interpreter executes the padding MACs (they are real
    // work, §III-B); the compiled path never sees them. Outputs must
    // still agree bit for bit, i.e. padding contributed exactly zero.
    const core::FunctionalModel model(config);
    const auto frames = makeFrames(model, 32, 4, 1.0, 92);
    const auto reference = scalarReference(model, plan, frames);
    for (const KernelVariant kernel : kAllVariants) {
        const auto outputs = model.runBatch(plan, frames, 1, kernel);
        for (std::size_t b = 0; b < frames.size(); ++b)
            EXPECT_EQ(outputs[b], reference[b])
                << core::kernel::kernelVariantName(kernel);
    }
}

TEST(CompiledKernel, NetworkRunnerBatchMatchesPerFrameRun)
{
    core::EieConfig config;
    config.n_pe = 8;
    core::NetworkRunner net(config);
    const auto l1 = test::randomCompressedLayer(96, 64, 0.2, 8, 101);
    const auto l2 = test::randomCompressedLayer(48, 96, 0.25, 8, 102);
    net.addLayer(l1, nn::Nonlinearity::ReLU);
    net.addLayer(l2, nn::Nonlinearity::ReLU);

    const core::FunctionalModel model(config);
    const auto frames = makeFrames(model, 64, 6, 0.6, 103);

    for (unsigned threads : {1u, 3u}) {
        const auto outputs = net.runBatch(frames, threads);
        ASSERT_EQ(outputs.size(), frames.size());
        for (std::size_t b = 0; b < frames.size(); ++b) {
            const auto single = net.run(frames[b]);
            EXPECT_EQ(outputs[b], single.output_raw)
                << "frame " << b << ", " << threads << " threads";
        }
    }
}

TEST(WorkerPool, CoversEveryIndexExactlyOnce)
{
    core::kernel::WorkerPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);

    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    for (auto &h : hits)
        h = 0;
    for (int round = 0; round < 3; ++round) {
        pool.parallelFor(kCount,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < kCount; ++i)
            ASSERT_EQ(hits[i].load(), round + 1) << "index " << i;
    }

    // Degenerate shapes.
    pool.parallelFor(0, [&](std::size_t) { FAIL(); });
    std::atomic<int> once{0};
    pool.parallelFor(1, [&](std::size_t) { once.fetch_add(1); });
    EXPECT_EQ(once.load(), 1);

    core::kernel::WorkerPool solo(1);
    EXPECT_EQ(solo.threads(), 1u);
    std::atomic<int> count{0};
    solo.parallelFor(17, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 17);
}

} // namespace
