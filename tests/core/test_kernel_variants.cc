/**
 * @file
 * Kernel-variant tests: the variant registry (auto / reference /
 * vector / actsparse) must resolve as documented, the one resident
 * form — (row, codebook index) entries per slice and merged per tile,
 * plus the layer's table — must hold together structurally on a
 * multi-tile plan, every variant must be bit-exact with the scalar
 * oracle exactly at the saturation boundary of the accumulator format
 * and across an activation-density sweep, and ragged / all-zero
 * activation batches (the panel skip paths and the SIMD tail lanes)
 * must flow through every variant — including the threads>1
 * WorkerPool route — without divergence.
 *
 * The column-partitioned serving caveat that motivates the
 * saturation suite (splitting a saturating layer across shards
 * reorders the saturating adds and may change outputs; PR 3 ships
 * partitioned placement with exactly that caveat) is asserted in
 * tests/serve/test_cluster.cc.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/functional.hh"
#include "core/kernel/compiled_layer.hh"
#include "core/kernel/executor.hh"
#include "core/kernel/variant.hh"
#include "core/kernel/worker_pool.hh"
#include "core/plan.hh"
#include "helpers.hh"

namespace {

using namespace eie;

using core::kernel::KernelVariant;

const std::vector<KernelVariant> kAllVariants{
    KernelVariant::Auto, KernelVariant::Reference,
    KernelVariant::Vector, KernelVariant::ActSparse};

const std::vector<KernelVariant> kExplicitVariants{
    KernelVariant::Reference, KernelVariant::Vector,
    KernelVariant::ActSparse};

/**
 * A dense layer whose partial sums slam into both accumulator rails:
 * every row holds @p cols/2 weights of +magnitude followed by cols/2
 * of -magnitude, so a frame of ones drives each accumulator up into
 * +saturation and then down through -saturation while the
 * unsaturated sum would be exactly zero.
 */
compress::CompressedLayer
saturatingLayer(std::size_t rows, std::size_t cols, unsigned n_pe,
                float magnitude)
{
    nn::SparseMatrix weights(rows, cols);
    for (std::size_t j = 0; j < cols; ++j)
        for (std::size_t i = 0; i < rows; ++i)
            weights.insert(i, j, j < cols / 2 ? magnitude : -magnitude);
    compress::CompressionOptions opts;
    opts.interleave.n_pe = n_pe;
    return compress::CompressedLayer::compress("saturating", weights,
                                               opts);
}

TEST(KernelVariants, RegistryNamesRoundTrip)
{
    ASSERT_EQ(core::kernel::kernelVariantNames().size(), 4u);
    for (const std::string &name : core::kernel::kernelVariantNames())
        EXPECT_STREQ(core::kernel::kernelVariantName(
                         core::kernel::kernelVariantFromName(name)),
                     name.c_str());
}

TEST(KernelVariants, VectorEligibilityPredicate)
{
    // The paper's default Q16.8 x Q16.8 datapath fits 32-bit lanes.
    EXPECT_TRUE(core::kernel::vectorEligible(fixed16, fixed16));

    // A negative shift-and-add alignment (left shift) is out.
    EXPECT_FALSE(core::kernel::vectorEligible(FixedFormat{16, 6},
                                              FixedFormat{16, 13}));

    // A 32-bit weight operand overflows the product lane.
    EXPECT_FALSE(core::kernel::vectorEligible(FixedFormat{32, 8},
                                              FixedFormat{16, 8}));
}

TEST(KernelVariants, ResolutionFollowsTheDocumentedRules)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 11);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    ASSERT_TRUE(compiled.has_fused_stream);
    ASSERT_TRUE(core::kernel::vectorEligible(compiled));

    using core::kernel::resolveKernelVariant;
    // Auto: wide batch fills SIMD lanes; a single frame takes the
    // queue walk; other small batches of unknown density the
    // reference loop.
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled, 64),
              KernelVariant::Vector);
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled, 1),
              KernelVariant::ActSparse);
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled, 2),
              KernelVariant::Reference);
    // Explicit requests stick where legal.
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Vector, compiled, 1),
              KernelVariant::Vector);
    EXPECT_EQ(
        resolveKernelVariant(KernelVariant::Reference, compiled, 64),
        KernelVariant::Reference);

    // The merged stream only picks which stream a serial sweep walks,
    // never the loop: a layer compiled without it resolves the same.
    core::kernel::CompileOptions no_fused;
    no_fused.fused_stream = false;
    const auto lean =
        core::kernel::CompiledLayer::compile(plan, config, no_fused);
    ASSERT_FALSE(lean.has_fused_stream);
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, lean, 1),
              KernelVariant::ActSparse);
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, lean, 2),
              KernelVariant::Reference);

    // An explicit actsparse request never demotes: it needs neither
    // SIMD eligibility nor a merged stream.
    EXPECT_EQ(
        resolveKernelVariant(KernelVariant::ActSparse, compiled, 64),
        KernelVariant::ActSparse);
    EXPECT_EQ(resolveKernelVariant(KernelVariant::ActSparse, lean, 1),
              KernelVariant::ActSparse);
}

TEST(KernelVariants, AutoResolutionIsDensityAware)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 11);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    ASSERT_TRUE(compiled.has_fused_stream);
    ASSERT_TRUE(core::kernel::vectorEligible(compiled));

    using core::kernel::kActSparseAutoMaxDensity;
    using core::kernel::kVectorAutoBatch;
    using core::kernel::resolveKernelVariant;

    // Small batch + sparse activations: the nonzero-queue walk wins.
    EXPECT_EQ(
        resolveKernelVariant(KernelVariant::Auto, compiled, 2, 0.35),
        KernelVariant::ActSparse);
    // The crossover is inclusive at the documented threshold...
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled, 2,
                                   kActSparseAutoMaxDensity),
              KernelVariant::ActSparse);
    // ...and dense activations above it keep the reference loop.
    EXPECT_EQ(
        resolveKernelVariant(KernelVariant::Auto, compiled, 2, 0.75),
        KernelVariant::Reference);
    // A single frame takes the queue walk at any density.
    for (const double density : {0.35, 0.75, 1.0})
        EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled,
                                       1, density),
                  KernelVariant::ActSparse)
            << density;
    // Batch wins over density: SIMD lanes fill at kVectorAutoBatch
    // regardless of how sparse the activations are.
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled,
                                   kVectorAutoBatch, 0.05),
              KernelVariant::Vector);
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled,
                                   kVectorAutoBatch - 1, 0.05),
              KernelVariant::ActSparse);
    // Unknown density (no probe) preserves the density-blind rules.
    EXPECT_EQ(
        resolveKernelVariant(KernelVariant::Auto, compiled, 1, -1.0),
        KernelVariant::ActSparse);
    EXPECT_EQ(
        resolveKernelVariant(KernelVariant::Auto, compiled, 2, -1.0),
        KernelVariant::Reference);
}

/** A plan forced into a 3 row-batch x 3 column-pass grid (ragged
 *  last tile in both dimensions) on 8 PEs. */
core::LayerPlan
gridPlan(const compress::CompressedLayer &layer, core::EieConfig &config)
{
    config.n_pe = 8;
    config.regfile_entries = 16; // 128 rows per batch
    config.ptr_capacity = 129;   // 128 cols per pass
    return core::planLayer(layer, nn::Nonlinearity::ReLU, config);
}

TEST(KernelVariants, StreamEntriesStayInsideTheirTileAndTable)
{
    core::EieConfig config;
    const auto layer = test::randomCompressedLayer(300, 300, 0.15, 8, 4);
    const auto plan = gridPlan(layer, config);
    ASSERT_EQ(plan.batches(), 3u);
    ASSERT_EQ(plan.passes(), 3u);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    ASSERT_EQ(compiled.lut,
              plan.tiles[0][0].storage.codebook().rawValues());

    std::uint64_t entries = 0;
    for (const auto &batch_tiles : compiled.tiles) {
        for (const auto &tile : batch_tiles) {
            const std::size_t span = tile.row_end - tile.row_begin;
            for (const std::uint32_t e : tile.fused.entries) {
                EXPECT_LT(core::kernel::entryRow(e), span);
                EXPECT_LT(core::kernel::entryIndex(e),
                          compiled.lut.size());
            }
            for (std::size_t k = 0; k < tile.slices.size(); ++k) {
                const auto &stream = tile.slices[k].stream;
                for (const std::uint32_t e : stream.entries) {
                    EXPECT_LT(core::kernel::entryRow(e), span);
                    // PE k owns rows i mod N == k (§III-B).
                    EXPECT_EQ(core::kernel::entryRow(e) % config.n_pe, k);
                    EXPECT_LT(core::kernel::entryIndex(e),
                              compiled.lut.size());
                    // Padding (index 0) never reaches a host stream.
                    EXPECT_NE(core::kernel::entryIndex(e), 0u);
                }
                entries += stream.entryCount();
            }
        }
    }
    EXPECT_EQ(entries, compiled.real_entries);
    EXPECT_EQ(entries, layer.quantizedWeights().nnz());
}

TEST(KernelVariants, FusedStreamIsTheRowSortedUnionOfItsSlices)
{
    core::EieConfig config;
    const auto layer = test::randomCompressedLayer(300, 300, 0.15, 8, 21);
    const auto plan = gridPlan(layer, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);

    for (const auto &batch_tiles : compiled.tiles) {
        for (const auto &tile : batch_tiles) {
            const auto &fused = tile.fused;
            ASSERT_EQ(fused.col_ptr.size(),
                      tile.col_end - tile.col_begin + 1);
            for (std::size_t j = 0; j + 1 < fused.col_ptr.size(); ++j) {
                std::vector<std::uint32_t> expected;
                for (const auto &slice : tile.slices)
                    expected.insert(
                        expected.end(),
                        slice.stream.entries.begin() +
                            slice.stream.col_ptr[j],
                        slice.stream.entries.begin() +
                            slice.stream.col_ptr[j + 1]);
                std::sort(expected.begin(), expected.end());
                const std::vector<std::uint32_t> column(
                    fused.entries.begin() + fused.col_ptr[j],
                    fused.entries.begin() + fused.col_ptr[j + 1]);
                ASSERT_EQ(column, expected) << "column " << j;
                // Rows ascend and are unique (distinct accumulators:
                // the fusion cannot reorder any accumulator's MAC
                // sequence).
                for (std::size_t e = 0; e + 1 < column.size(); ++e)
                    ASSERT_LT(core::kernel::entryRow(column[e]),
                              core::kernel::entryRow(column[e + 1]));
            }
        }
    }
}

TEST(KernelVariants, ResidentBytesCountEntriesPointersAndTable)
{
    core::EieConfig config;
    const auto layer = test::randomCompressedLayer(300, 300, 0.15, 8, 31);
    const auto plan = gridPlan(layer, config);

    for (const bool fused : {true, false}) {
        core::kernel::CompileOptions options;
        options.fused_stream = fused;
        const auto compiled =
            core::kernel::CompiledLayer::compile(plan, config, options);
        std::uint64_t words = 0;
        for (const auto &batch_tiles : compiled.tiles) {
            for (const auto &tile : batch_tiles) {
                for (const auto &slice : tile.slices)
                    words += slice.stream.entries.size() +
                        slice.stream.col_ptr.size();
                words += tile.fused.entries.size() +
                    tile.fused.col_ptr.size();
            }
        }
        EXPECT_EQ(compiled.residentStreamBytes(),
                  4 * words + 8 * compiled.lut.size())
            << (fused ? "fused" : "lean");
    }
}

TEST(KernelVariants, SaturationBoundaryBitExactAcrossVariants)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = saturatingLayer(8, 16, 4, 100.0f);
    // None (not ReLU) so the -saturated outputs stay observable.
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::None, config);
    const core::FunctionalModel model(config);

    core::kernel::Batch frames;
    frames.push_back(model.quantizeInput(nn::Vector(16, 1.0f)));
    frames.push_back(model.quantizeInput(nn::Vector(16, 0.5f)));
    frames.push_back(model.quantizeInput(
        test::randomActivations(16, 1.0, 31)));

    core::kernel::Batch reference;
    for (const auto &frame : frames)
        reference.push_back(model.run(plan, frame).output_raw);

    // The ones-frame proves the partials saturated: its unsaturated
    // sum is exactly zero per row, but the saturating MAC walk pins
    // every accumulator to the negative rail.
    for (const std::int64_t out : reference[0]) {
        ASSERT_NE(out, 0);
        ASSERT_EQ(out, config.act_format.minRaw());
    }

    for (unsigned threads : {1u, 4u}) {
        for (const KernelVariant kernel : kAllVariants) {
            const auto outputs =
                model.runBatch(plan, frames, threads, kernel);
            for (std::size_t b = 0; b < frames.size(); ++b)
                EXPECT_EQ(outputs[b], reference[b])
                    << core::kernel::kernelVariantName(kernel) << ", "
                    << threads << " threads, frame " << b;
        }
    }
}

TEST(KernelVariants, IneligibleFormatsFallBackBitExact)
{
    // A negative shift-and-add alignment keeps "vector" out; Auto
    // must route around it and stay bit-exact.
    core::EieConfig config;
    config.n_pe = 4;
    config.weight_format = FixedFormat{16, 6};
    config.act_format = FixedFormat{16, 13};
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 41);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    ASSERT_FALSE(core::kernel::vectorEligible(compiled));
    EXPECT_EQ(core::kernel::resolveKernelVariant(KernelVariant::Auto,
                                                 compiled, 64),
              KernelVariant::Reference);

    const core::FunctionalModel model(config);
    core::kernel::Batch frames;
    for (std::size_t b = 0; b < 9; ++b)
        frames.push_back(model.quantizeInput(
            test::randomActivations(48, 0.5, 42 + b)));

    core::kernel::Batch reference;
    for (const auto &frame : frames)
        reference.push_back(model.run(plan, frame).output_raw);

    for (const KernelVariant kernel :
         {KernelVariant::Auto, KernelVariant::Reference}) {
        const auto outputs =
            core::kernel::runBatch(compiled, frames, nullptr, kernel);
        for (std::size_t b = 0; b < frames.size(); ++b)
            EXPECT_EQ(outputs[b], reference[b])
                << core::kernel::kernelVariantName(kernel);
    }
}

TEST(KernelVariants, OutOfFormatActivationsFallBackToReference)
{
    // The wire protocol carries raw int64 activations verbatim, so a
    // remote client can submit values outside act_format. The vector
    // variant's 32-bit lanes cannot represent them; runBatch must
    // demote to the reference loop (same defined int64 semantics as
    // the scalar oracle), not crash or wrap.
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 71);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    const core::FunctionalModel model(config);

    core::kernel::Batch frames;
    for (std::size_t b = 0; b < 9; ++b)
        frames.push_back(model.quantizeInput(
            test::randomActivations(48, 0.5, 72 + b)));
    frames[4][7] = std::int64_t{1} << 40;  // far outside Q16.8
    frames[8][0] = -(std::int64_t{1} << 33);

    core::kernel::Batch reference;
    for (const auto &frame : frames)
        reference.push_back(model.run(plan, frame).output_raw);

    for (const KernelVariant kernel : kAllVariants) {
        const auto outputs =
            core::kernel::runBatch(compiled, frames, nullptr, kernel);
        for (std::size_t b = 0; b < frames.size(); ++b)
            EXPECT_EQ(outputs[b], reference[b])
                << core::kernel::kernelVariantName(kernel)
                << ", frame " << b;
    }
}

TEST(KernelVariants, RaggedAndAllZeroBatchesAcrossVariants)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(96, 64, 0.2, 4, 51);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    // Without the merged stream a serial run walks the per-PE slices.
    core::kernel::CompileOptions no_fused;
    no_fused.fused_stream = false;
    const auto lean =
        core::kernel::CompiledLayer::compile(plan, config, no_fused);
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);

    const std::vector<std::int64_t> zero_frame(64, 0);

    // Ragged batch sizes exercise the SIMD tail lanes (1, 3, 5, 9 are
    // all off the 4/8-lane grid); interleaved all-zero frames and the
    // all-zero batch exercise the activation-panel skip path.
    std::vector<core::kernel::Batch> batches;
    for (const std::size_t batch : {1u, 3u, 5u, 9u}) {
        core::kernel::Batch frames;
        for (std::size_t b = 0; b < batch; ++b)
            frames.push_back(model.quantizeInput(
                test::randomActivations(64, 0.4, 60 + 13 * b)));
        batches.push_back(std::move(frames));
    }
    {
        core::kernel::Batch mixed;
        for (std::size_t b = 0; b < 6; ++b)
            mixed.push_back(b % 2 == 0 ? zero_frame
                                       : model.quantizeInput(
                                             test::randomActivations(
                                                 64, 0.4, 80 + b)));
        batches.push_back(std::move(mixed));
    }
    batches.push_back(core::kernel::Batch(5, zero_frame));
    batches.push_back(core::kernel::Batch{}); // empty batch

    for (const auto &frames : batches) {
        core::kernel::Batch reference;
        for (const auto &frame : frames)
            reference.push_back(model.run(plan, frame).output_raw);

        for (const auto *layer_form : {&compiled, &lean}) {
            for (core::kernel::WorkerPool *p :
                 {static_cast<core::kernel::WorkerPool *>(nullptr),
                  &pool}) {
                for (const KernelVariant kernel : kAllVariants) {
                    const auto outputs = core::kernel::runBatch(
                        *layer_form, frames, p, kernel);
                    ASSERT_EQ(outputs.size(), frames.size());
                    for (std::size_t b = 0; b < frames.size(); ++b)
                        EXPECT_EQ(outputs[b], reference[b])
                            << core::kernel::kernelVariantName(kernel)
                            << (layer_form == &lean ? ", lean" : "")
                            << ", batch " << frames.size() << ", "
                            << (p ? "pooled" : "serial")
                            << ", frame " << b;
                }
            }
        }
    }

    // Explicit variants on the all-zero batch: outputs are exactly
    // the zero vector after ReLU.
    const core::kernel::Batch zeros(3, zero_frame);
    for (const KernelVariant kernel : kExplicitVariants) {
        const auto outputs =
            core::kernel::runBatch(compiled, zeros, nullptr, kernel);
        for (const auto &out : outputs)
            EXPECT_EQ(out, std::vector<std::int64_t>(96, 0))
                << core::kernel::kernelVariantName(kernel);
    }
}

TEST(KernelVariants, ActSparseBitExactAcrossDensitySweep)
{
    // The actsparse queue walk must reproduce the reference
    // saturating-MAC sequence exactly at every activation density:
    // empty queues (0%), a single nonzero, the paper's 35%, fully
    // dense (100%, where the queue degenerates to the dense walk),
    // all-zero frames mixed into live batches, ragged batch sizes,
    // and the pooled per-slice route.
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(96, 64, 0.2, 4, 91);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);

    std::vector<core::kernel::Batch> batches;
    for (const double density : {0.0, 0.35, 1.0}) {
        for (const std::size_t batch : {1u, 3u, 5u, 9u}) {
            core::kernel::Batch frames;
            for (std::size_t b = 0; b < batch; ++b)
                frames.push_back(
                    model.quantizeInput(test::randomActivations(
                        64, density, 900 + 13 * b)));
            batches.push_back(std::move(frames));
        }
    }
    {
        // Exactly one nonzero activation: the smallest live queue.
        std::vector<std::int64_t> one_hot(64, 0);
        one_hot[17] = model.quantizeInput(nn::Vector(1, 0.75f))[0];
        batches.push_back(core::kernel::Batch{std::move(one_hot)});
    }
    {
        // All-zero frames interleaved with dense ones: per-frame
        // queues of wildly different lengths in one batch.
        core::kernel::Batch mixed;
        for (std::size_t b = 0; b < 6; ++b)
            mixed.push_back(
                b % 2 == 0
                    ? std::vector<std::int64_t>(64, 0)
                    : model.quantizeInput(
                          test::randomActivations(64, 1.0, 950 + b)));
        batches.push_back(std::move(mixed));
    }

    for (const auto &frames : batches) {
        core::kernel::Batch reference;
        for (const auto &frame : frames)
            reference.push_back(model.run(plan, frame).output_raw);

        for (core::kernel::WorkerPool *p :
             {static_cast<core::kernel::WorkerPool *>(nullptr),
              &pool}) {
            const auto outputs = core::kernel::runBatch(
                compiled, frames, p, KernelVariant::ActSparse);
            ASSERT_EQ(outputs.size(), frames.size());
            for (std::size_t b = 0; b < frames.size(); ++b)
                EXPECT_EQ(outputs[b], reference[b])
                    << "batch " << frames.size() << ", "
                    << (p ? "pooled" : "serial") << ", frame " << b;
        }
    }
}

TEST(KernelVariants, EveryVariantBitExactAcrossDensitySweep)
{
    // Every variant must reproduce the reference saturating-MAC
    // sequence exactly from the table lookups: every activation
    // density (empty queues at 0%, the paper's 9% weight / 35%
    // activation regime, fully dense), ragged batch sizes off the SIMD
    // lane grid (9 reaches the vector loop under auto), serial (merged
    // stream) and pooled (per-PE slices) routes.
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(96, 64, 0.2, 4, 91);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);

    std::vector<core::kernel::Batch> batches;
    for (const double density : {0.0, 0.09, 0.35, 1.0}) {
        for (const std::size_t batch : {1u, 3u, 5u, 9u}) {
            core::kernel::Batch frames;
            for (std::size_t b = 0; b < batch; ++b)
                frames.push_back(
                    model.quantizeInput(test::randomActivations(
                        64, density, 700 + 13 * b)));
            batches.push_back(std::move(frames));
        }
    }
    batches.push_back(core::kernel::Batch{}); // empty batch

    for (const auto &frames : batches) {
        core::kernel::Batch reference;
        for (const auto &frame : frames)
            reference.push_back(model.run(plan, frame).output_raw);

        for (const KernelVariant kernel : kAllVariants) {
            for (core::kernel::WorkerPool *p :
                 {static_cast<core::kernel::WorkerPool *>(nullptr),
                  &pool}) {
                core::kernel::DispatchInfo info;
                const auto outputs = core::kernel::runBatch(
                    compiled, frames, p, kernel, &info);
                ASSERT_EQ(outputs.size(), frames.size());
                // An empty batch never dispatches, so info keeps its
                // defaults.
                if (!frames.empty()) {
                    EXPECT_EQ(info.variant,
                              core::kernel::resolveKernelVariant(
                                  kernel, compiled, frames.size(),
                                  info.act_density));
                }
                for (std::size_t b = 0; b < frames.size(); ++b)
                    EXPECT_EQ(outputs[b], reference[b])
                        << core::kernel::kernelVariantName(kernel)
                        << ", batch " << frames.size() << ", "
                        << (p ? "pooled" : "serial") << ", frame "
                        << b;
            }
        }
    }
}

TEST(KernelVariants, DispatchInfoReportsDensityAndVariant)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 61);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    const core::FunctionalModel model(config);

    // A quarter-dense single frame: the probe must measure low
    // density and Auto must dispatch the actsparse walk.
    core::kernel::Batch sparse_frames;
    sparse_frames.push_back(model.quantizeInput(
        test::randomActivations(48, 0.25, 1001)));
    core::kernel::DispatchInfo info;
    core::kernel::runBatch(compiled, sparse_frames, nullptr,
                           KernelVariant::Auto, &info);
    EXPECT_EQ(info.variant, KernelVariant::ActSparse);
    ASSERT_GE(info.act_density, 0.0);
    EXPECT_LE(info.act_density,
              core::kernel::kActSparseAutoMaxDensity);

    // A fully dense single frame probes high and still takes the
    // queue walk; two dense frames keep the reference loop.
    core::kernel::Batch dense_frames;
    dense_frames.push_back(
        model.quantizeInput(test::randomActivations(48, 1.0, 1002)));
    core::kernel::runBatch(compiled, dense_frames, nullptr,
                           KernelVariant::Auto, &info);
    EXPECT_EQ(info.variant, KernelVariant::ActSparse);
    EXPECT_GT(info.act_density,
              core::kernel::kActSparseAutoMaxDensity);
    dense_frames.push_back(
        model.quantizeInput(test::randomActivations(48, 1.0, 1003)));
    core::kernel::runBatch(compiled, dense_frames, nullptr,
                           KernelVariant::Auto, &info);
    EXPECT_EQ(info.variant, KernelVariant::Reference);
    EXPECT_GT(info.act_density,
              core::kernel::kActSparseAutoMaxDensity);

    // An empty batch reports an unknown density.
    core::kernel::runBatch(compiled, {}, nullptr, KernelVariant::Auto,
                           &info);
    EXPECT_LT(info.act_density, 0.0);
}

} // namespace
