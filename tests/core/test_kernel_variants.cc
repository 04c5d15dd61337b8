/**
 * @file
 * Kernel-variant tests: the variant registry (auto / vector /
 * actsparse) must resolve as documented, the one resident
 * form — (row, codebook index) entries merged per tile and cut into
 * contiguous row blocks, plus the layer's table — must hold together
 * structurally on a multi-tile plan, every variant must be bit-exact
 * with the scalar
 * oracle exactly at the saturation boundary of the accumulator format
 * and across an activation-density sweep, and ragged / all-zero
 * activation batches (the panel skip paths and the vector sweep's
 * pad lanes) must flow through every variant — including the threads>1
 * WorkerPool route — without divergence. The vector variant's
 * frame-lane sweep must match the oracle at every lane-stride shape,
 * and its single-frame row lanes at every column tail, table size and
 * row-block cut.
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
    KernelVariant::Auto, KernelVariant::Vector, KernelVariant::ActSparse};

const std::vector<KernelVariant> kExplicitVariants{
    KernelVariant::Vector, KernelVariant::ActSparse};

/** Whether this CPU has a vector sweep (AVX2). */
bool
haveVectorSweep()
{
    return std::string(core::kernel::simdIsaName()) != "none";
}

/** The variant runBatch executes for in-format frames: the resolved
 *  one, except that a CPU without a vector sweep runs "vector" calls
 *  on the actsparse loop. */
KernelVariant
executedVariant(KernelVariant requested,
                const core::kernel::CompiledLayer &layer,
                std::size_t batch)
{
    const KernelVariant resolved =
        core::kernel::resolveKernelVariant(requested, layer, batch);
    return resolved == KernelVariant::Vector && !haveVectorSweep()
        ? KernelVariant::ActSparse
        : resolved;
}

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
    ASSERT_EQ(core::kernel::kernelVariantNames().size(), 3u);
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
    ASSERT_TRUE(core::kernel::vectorEligible(compiled));

    using core::kernel::resolveKernelVariant;
    // Auto: every batch of an eligible layer runs on the lanes — a
    // single frame on the row lanes, two or more on the frame lanes.
    for (const std::size_t batch : {1u, 2u, 64u})
        EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled,
                                       batch),
                  KernelVariant::Vector)
            << batch;
    // Explicit requests stick where legal.
    EXPECT_EQ(resolveKernelVariant(KernelVariant::Vector, compiled, 1),
              KernelVariant::Vector);

    // An explicit actsparse request never demotes: it needs no SIMD
    // eligibility.
    for (const std::size_t batch : {1u, 64u})
        EXPECT_EQ(
            resolveKernelVariant(KernelVariant::ActSparse, compiled, batch),
            KernelVariant::ActSparse);

    // A table of more than kRowLaneTableEntries entries does not fit
    // the row lanes' two registers: a single frame takes the column
    // walk, auto or explicit, and two or more frames keep the frame
    // lanes, which look each weight up in memory.
    auto wide = compiled;
    wide.lut.resize(core::kernel::kRowLaneTableEntries + 1, 0);
    for (const KernelVariant kernel :
         {KernelVariant::Auto, KernelVariant::Vector}) {
        EXPECT_EQ(resolveKernelVariant(kernel, wide, 1),
                  KernelVariant::ActSparse);
        EXPECT_EQ(resolveKernelVariant(kernel, wide, 2),
                  KernelVariant::Vector);
    }
}

TEST(KernelVariants, AutoResolutionDoesNotDependOnDensity)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 11);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled =
        core::kernel::CompiledLayer::compile(plan, config);
    ASSERT_TRUE(core::kernel::vectorEligible(compiled));

    // A layer the lanes cannot run (a left-shift alignment, as in
    // IneligibleFormatsFallBackBitExact).
    core::EieConfig wide_config;
    wide_config.n_pe = 4;
    wide_config.weight_format = FixedFormat{16, 6};
    wide_config.act_format = FixedFormat{16, 13};
    const auto wide = core::kernel::CompiledLayer::compile(
        core::planLayer(layer, nn::Nonlinearity::ReLU, wide_config),
        wide_config);
    ASSERT_FALSE(core::kernel::vectorEligible(wide));

    using core::kernel::resolveKernelVariant;
    const std::size_t batches[] = {1, 2, 7, 8, 64};
    for (const std::size_t batch : batches) {
        // The eligible layer runs on the lanes at every batch, and the
        // ineligible layer on the column walk.
        EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, compiled,
                                       batch),
                  KernelVariant::Vector)
            << batch;
        EXPECT_EQ(resolveKernelVariant(KernelVariant::Auto, wide, batch),
                  KernelVariant::ActSparse)
            << batch;
    }

    // runBatch applies that rule at every measured activation density:
    // all-zero, sparse, the paper's 35%, dense.
    const struct
    {
        const char *name;
        const core::kernel::CompiledLayer &layer;
        core::FunctionalModel model;
    } forms[] = {{"Q16.8", compiled, core::FunctionalModel(config)},
                 {"Q16.6 x Q16.13", wide,
                  core::FunctionalModel(wide_config)}};
    for (const auto &form : forms) {
        for (const std::size_t batch : batches) {
            for (const double density : {0.0, 0.05, 0.35, 0.75, 1.0}) {
                core::kernel::Batch frames;
                for (std::size_t b = 0; b < batch; ++b)
                    frames.push_back(form.model.quantizeInput(
                        test::randomActivations(48, density, 130 + b)));
                core::kernel::DispatchInfo info;
                core::kernel::runBatch(form.layer, frames, nullptr,
                                       KernelVariant::Auto, &info);
                EXPECT_EQ(info.variant,
                          executedVariant(KernelVariant::Auto, form.layer,
                                          batch))
                    << form.name << ", batch " << batch << ", density "
                    << density;
            }
        }
    }
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

/** Compile @p plan with its host stream cut into @p row_blocks. */
core::kernel::CompiledLayer
compileBlocks(const core::LayerPlan &plan, const core::EieConfig &config,
              unsigned row_blocks)
{
    core::kernel::CompileOptions options;
    options.row_blocks = row_blocks;
    return core::kernel::CompiledLayer::compile(plan, config, options);
}

/** Column lengths columnTailLayer() holds in every row block: every
 *  residue mod 8 of the row lanes, twice. */
constexpr std::size_t kTailLengths = 18;

/**
 * A 256 x 72 layer, one row batch on 4 PEs, whose every row block
 * under a 1- to 4-block cut holds columns of every length 0-17:
 * column kTailLengths * g + n holds n entries on consecutive rows from
 * start g, and each start's 17 rows lie inside one block of every cut
 * (bounds 0/128, 0/80/160 and 0/64/128/192). Weights are random in
 * +-[0.25, 1], trained into a table of @p table_size entries.
 */
compress::CompressedLayer
columnTailLayer(std::size_t table_size)
{
    const std::size_t starts[] = {0, 80, 128, 239};
    nn::SparseMatrix weights(256, 4 * kTailLengths);
    Rng rng(4000 + table_size);
    for (std::size_t g = 0; g < 4; ++g)
        for (std::size_t n = 0; n < kTailLengths; ++n)
            for (std::size_t r = 0; r < n; ++r) {
                const double w = rng.uniformReal(0.25, 1.0);
                weights.insert(starts[g] + r, kTailLengths * g + n,
                               static_cast<float>(
                                   rng.uniformInt(0, 1) ? w : -w));
            }
    compress::CompressionOptions opts;
    opts.interleave.n_pe = 4;
    opts.codebook.table_size = table_size;
    return compress::CompressedLayer::compress("tails", weights, opts);
}

TEST(KernelVariants, StreamEntriesStayInsideTheirTileAndTable)
{
    core::EieConfig config;
    const auto layer = test::randomCompressedLayer(300, 300, 0.15, 8, 4);
    const auto plan = gridPlan(layer, config);
    ASSERT_EQ(plan.batches(), 3u);
    ASSERT_EQ(plan.passes(), 3u);
    const auto compiled = compileBlocks(plan, config, 3);
    ASSERT_EQ(compiled.lut,
              plan.tiles[0][0].storage.codebook().rawValues());

    for (const auto &batch_tiles : compiled.tiles) {
        for (const auto &tile : batch_tiles) {
            const std::size_t span = tile.row_end - tile.row_begin;
            for (const auto &block : tile.blocks) {
                for (const std::uint32_t e : block.entries) {
                    EXPECT_LT(core::kernel::entryRow(e), span);
                    EXPECT_LT(core::kernel::entryIndex(e),
                              compiled.lut.size());
                    // Padding (index 0) never reaches a host stream.
                    EXPECT_NE(core::kernel::entryIndex(e), 0u);
                }
            }
        }
    }
}

TEST(KernelVariants, RowBlocksPartitionTheMergedStream)
{
    // The 3 x 3 grid plan, and a sparse tall layer whose 64-row PE
    // slices need padding entries to bridge their zero runs.
    core::EieConfig grid_config;
    const auto grid_layer =
        test::randomCompressedLayer(300, 300, 0.15, 8, 21);
    const auto grid = gridPlan(grid_layer, grid_config);
    core::EieConfig padded_config;
    padded_config.n_pe = 2;
    const auto padded_layer =
        test::randomCompressedLayer(400, 24, 0.02, 2, 64);
    const auto padded = core::planLayer(
        padded_layer, nn::Nonlinearity::ReLU, padded_config);
    ASSERT_GT(core::kernel::CompiledLayer::compile(padded, padded_config)
                  .stripped_padding,
              0u);

    const struct
    {
        const core::LayerPlan &plan;
        const core::EieConfig &config;
        std::size_t nnz;
    } cases[] = {
        {grid, grid_config, grid_layer.quantizedWeights().nnz()},
        {padded, padded_config, padded_layer.quantizedWeights().nnz()},
    };
    for (const auto &c : cases) {
        const unsigned n_pe = c.config.n_pe;
        for (const unsigned blocks : {1u, 3u, 5u}) {
            const auto compiled = compileBlocks(c.plan, c.config, blocks);
            ASSERT_EQ(compiled.row_blocks, blocks);
            std::uint64_t entries = 0;
            for (std::size_t b = 0; b < compiled.tiles.size(); ++b) {
                for (std::size_t p = 0; p < compiled.tiles[b].size();
                     ++p) {
                    const auto &tile = compiled.tiles[b][p];
                    const auto &storage = c.plan.tiles[b][p].storage;
                    const std::size_t span = tile.row_end - tile.row_begin;
                    const std::size_t cols = tile.col_end - tile.col_begin;
                    const auto bounds =
                        core::kernel::rowBlockBounds(span, blocks);
                    ASSERT_EQ(bounds.size(), blocks + 1u);
                    EXPECT_EQ(bounds.front(), 0u);
                    EXPECT_EQ(bounds.back(), span);
                    for (unsigned t = 0; t < blocks; ++t) {
                        EXPECT_LE(bounds[t], bounds[t + 1]);
                        EXPECT_EQ(bounds[t] % core::kernel::kRowBlockAlign,
                                  0u);
                    }
                    ASSERT_EQ(tile.blocks.size(), blocks);
                    for (unsigned t = 0; t < blocks; ++t) {
                        const auto &block = tile.blocks[t];
                        ASSERT_EQ(block.col_ptr.size(), cols + 1);
                        ASSERT_EQ(block.col_ptr.back(),
                                  block.entryCount());
                        for (const std::uint32_t e : block.entries) {
                            EXPECT_GE(core::kernel::entryRow(e),
                                      bounds[t]);
                            EXPECT_LT(core::kernel::entryRow(e),
                                      bounds[t + 1]);
                        }
                        entries += block.entryCount();
                    }

                    for (std::size_t j = 0; j < cols; ++j) {
                        // The sorted union of every slice's zero-run
                        // walk, padding dropped, rows local * N + k.
                        std::vector<std::uint32_t> expected;
                        for (unsigned k = 0; k < n_pe; ++k)
                            for (const auto &d :
                                 storage.pe(k).decodeColumn(j))
                                if (!d.is_padding)
                                    expected.push_back(
                                        core::kernel::packEntry(
                                            d.local_row * n_pe + k,
                                            d.weight_index));
                        std::sort(expected.begin(), expected.end());
                        std::vector<std::uint32_t> column;
                        for (const auto &block : tile.blocks)
                            column.insert(
                                column.end(),
                                block.entries.begin() + block.col_ptr[j],
                                block.entries.begin() +
                                    block.col_ptr[j + 1]);
                        ASSERT_EQ(column, expected)
                            << blocks << " blocks, column " << j;
                        // Rows ascend and are unique: distinct
                        // accumulators, so neither the merge nor the
                        // cut reorders any accumulator's MAC sequence.
                        for (std::size_t e = 0; e + 1 < column.size(); ++e)
                            ASSERT_LT(
                                core::kernel::entryRow(column[e]),
                                core::kernel::entryRow(column[e + 1]));
                    }
                }
            }
            EXPECT_EQ(entries, compiled.real_entries);
            EXPECT_EQ(entries, c.nnz);
        }
    }
}

TEST(KernelVariants, ResidentBytesCountEntriesPointersAndTable)
{
    core::EieConfig config;
    const auto layer = test::randomCompressedLayer(300, 300, 0.15, 8, 31);
    const auto plan = gridPlan(layer, config);

    for (const unsigned blocks : {1u, 4u}) {
        const auto compiled = compileBlocks(plan, config, blocks);
        // One word per entry, and per row block cols + 1 pointers.
        std::uint64_t words = compiled.real_entries;
        for (const auto &batch_tiles : compiled.tiles)
            for (const auto &tile : batch_tiles)
                words += std::uint64_t{blocks} *
                    (tile.col_end - tile.col_begin + 1);
        EXPECT_EQ(compiled.residentStreamBytes(),
                  4 * words + 8 * compiled.lut.size())
            << blocks << " blocks";
    }
}

TEST(KernelVariants, SaturationBoundaryBitExactAcrossVariants)
{
    core::EieConfig config;
    config.n_pe = 4;
    // 12 rows: each column is one whole group of row lanes and a
    // 4-entry tail group.
    const auto layer = saturatingLayer(12, 16, 4, 100.0f);
    // None (not ReLU) so the -saturated outputs stay observable.
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::None, config);
    const core::FunctionalModel model(config);

    nn::Vector half_ones(16, 0.0f);
    std::fill(half_ones.begin(), half_ones.begin() + 8, 1.0f);
    core::kernel::Batch frames;
    frames.push_back(model.quantizeInput(nn::Vector(16, 1.0f)));
    frames.push_back(model.quantizeInput(nn::Vector(16, 0.5f)));
    frames.push_back(model.quantizeInput(
        test::randomActivations(16, 1.0, 31)));
    frames.push_back(model.quantizeInput(half_ones));

    core::kernel::Batch reference;
    for (const auto &frame : frames)
        reference.push_back(model.run(plan, frame).output_raw);

    // The ones-frame proves the partials saturated: its unsaturated
    // sum is exactly zero per row, but the saturating MAC walk pins
    // every accumulator to the negative rail. The frame live only on
    // the positive columns ends every accumulator on the positive rail.
    for (const std::int64_t out : reference[0]) {
        ASSERT_NE(out, 0);
        ASSERT_EQ(out, config.act_format.minRaw());
    }
    for (const std::int64_t out : reference[3])
        ASSERT_EQ(out, config.act_format.maxRaw());

    // Each frame alone, on the row lanes; then the frames repeated to
    // 3, 9 and 24: the frame-lane sweep's pad lanes in one 8-lane
    // block, in the second of two and across three whole blocks all
    // run beside lanes pinned to the rails.
    std::vector<std::vector<std::size_t>> batches;
    for (std::size_t f = 0; f < frames.size(); ++f)
        batches.push_back({f});
    for (const std::size_t batch : {3u, 9u, 24u}) {
        batches.emplace_back();
        for (std::size_t b = 0; b < batch; ++b)
            batches.back().push_back(b % frames.size());
    }
    for (const auto &picks : batches) {
        core::kernel::Batch batch;
        for (const std::size_t f : picks)
            batch.push_back(frames[f]);
        for (unsigned threads : {1u, 4u}) {
            for (const KernelVariant kernel : kAllVariants) {
                const auto outputs =
                    model.runBatch(plan, batch, threads, kernel);
                for (std::size_t b = 0; b < picks.size(); ++b)
                    EXPECT_EQ(outputs[b], reference[picks[b]])
                        << core::kernel::kernelVariantName(kernel) << ", "
                        << threads << " threads, batch " << picks.size()
                        << ", frame " << b;
            }
        }
    }
}

TEST(KernelVariants, VectorSweepBitExactAtEveryLaneStride)
{
    // The batches cover every lane-stride shape: pad lanes in one
    // 8-lane block (1, 4, 5), one exact block (8, the AVX2 sweep's
    // one-register loop), two blocks with pad lanes (9, 12) and without
    // (16), three exact blocks (24) and four with one pad lane (31).
    core::EieConfig config;
    config.n_pe = 4;
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);
    const auto random = test::randomCompressedLayer(96, 64, 0.2, 4, 81);
    const auto random_plan =
        core::planLayer(random, nn::Nonlinearity::ReLU, config);
    // None keeps the saturated negative rail observable.
    const auto rails = saturatingLayer(48, 64, 4, 100.0f);
    const auto rails_plan =
        core::planLayer(rails, nn::Nonlinearity::None, config);

    for (const core::LayerPlan *plan : {&random_plan, &rails_plan}) {
        const auto compiled = compileBlocks(*plan, config, 3);
        ASSERT_TRUE(core::kernel::vectorEligible(compiled));
        for (const std::size_t batch :
             {1u, 4u, 5u, 8u, 9u, 12u, 16u, 24u, 31u}) {
            // Dense, half-dense and all-zero frames side by side.
            core::kernel::Batch frames;
            for (std::size_t b = 0; b < batch; ++b)
                frames.push_back(model.quantizeInput(
                    test::randomActivations(64, 1.0 - 0.5 * (b % 3),
                                            810 + 7 * b)));
            core::kernel::Batch reference;
            for (const auto &frame : frames)
                reference.push_back(model.run(*plan, frame).output_raw);

            for (core::kernel::WorkerPool *p :
                 {static_cast<core::kernel::WorkerPool *>(nullptr),
                  &pool}) {
                core::kernel::DispatchInfo info;
                const auto outputs = core::kernel::runBatch(
                    compiled, frames, p, KernelVariant::Vector, &info);
                EXPECT_EQ(info.variant,
                          haveVectorSweep() ? KernelVariant::Vector
                                            : KernelVariant::ActSparse);
                ASSERT_EQ(outputs.size(), frames.size());
                for (std::size_t b = 0; b < batch; ++b)
                    EXPECT_EQ(outputs[b], reference[b])
                        << plan->name << ", batch " << batch << ", "
                        << (p ? "pooled" : "serial") << ", frame " << b;
            }
        }
    }
}

TEST(KernelVariants, RowLanesBitExactAtEveryColumnTail)
{
    // One frame under auto runs the row lanes: 8 entries of a column
    // per group and a masked group for the column's tail, the index
    // expanded through two table halves. Columns of every length 0-17
    // in every row block of 1 to 4 blocks, serial and pooled, over
    // tables of 2 to 16 entries (one half, and both).
    core::EieConfig config;
    config.n_pe = 4;
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);
    const KernelVariant lanes =
        haveVectorSweep() ? KernelVariant::Vector : KernelVariant::ActSparse;
    const std::size_t cols = 4 * kTailLengths;

    for (std::size_t table = 2; table <= 16; ++table) {
        const auto layer = columnTailLayer(table);
        ASSERT_EQ(layer.codebook().size(), table);
        // None keeps negative sums observable.
        const auto plan =
            core::planLayer(layer, nn::Nonlinearity::None, config);
        ASSERT_EQ(plan.batches(), 1u);
        ASSERT_EQ(plan.passes(), 1u);

        // Dense, the paper's 35%, one-hot on a 17-entry column (two
        // groups, one a 1-entry tail) and on a 13-entry one (a 5-entry
        // tail), and all-zero.
        std::vector<std::int64_t> one_hot_17(cols, 0);
        one_hot_17[kTailLengths - 1] = 256;
        std::vector<std::int64_t> one_hot_13(cols, 0);
        one_hot_13[3 * kTailLengths + 13] = 192;
        const core::kernel::Batch frames{
            model.quantizeInput(
                test::randomActivations(cols, 1.0, 500 + table)),
            model.quantizeInput(
                test::randomActivations(cols, 0.35, 600 + table)),
            one_hot_17, one_hot_13, std::vector<std::int64_t>(cols, 0)};

        for (unsigned blocks = 1; blocks <= 4; ++blocks) {
            const auto compiled = compileBlocks(plan, config, blocks);
            // Every block holds every column length.
            for (const auto &block : compiled.tiles[0][0].blocks) {
                std::vector<bool> seen(kTailLengths, false);
                for (std::size_t j = 0; j < cols; ++j) {
                    const std::size_t n =
                        block.col_ptr[j + 1] - block.col_ptr[j];
                    if (n < kTailLengths)
                        seen[n] = true;
                }
                ASSERT_EQ(std::count(seen.begin(), seen.end(), true),
                          static_cast<long>(kTailLengths))
                    << blocks << " blocks";
            }
            for (const auto &frame : frames) {
                const auto reference = model.run(plan, frame).output_raw;
                for (core::kernel::WorkerPool *p :
                     {static_cast<core::kernel::WorkerPool *>(nullptr),
                      &pool}) {
                    core::kernel::DispatchInfo info;
                    const auto outputs = core::kernel::runBatch(
                        compiled, {frame}, p, KernelVariant::Auto, &info);
                    EXPECT_EQ(info.variant, lanes);
                    ASSERT_EQ(outputs.size(), 1u);
                    EXPECT_EQ(outputs[0], reference)
                        << table << "-entry table, " << blocks
                        << " blocks, " << (p ? "pooled" : "serial")
                        << ", frame " << &frame - frames.data();
                }
            }
        }
    }
}

TEST(KernelVariants, WideTableRunsOneFrameOnActSparse)
{
    // Index 16 gets a copy of an in-use entry's weight, and that
    // entry's stream entries move onto it: the same products through a
    // 17-entry table, one more than the row lanes' two registers hold.
    // A single frame must take the column walk and stay bit-exact; two
    // frames keep the frame lanes.
    core::EieConfig config;
    config.n_pe = 4;
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);
    const auto plan = core::planLayer(columnTailLayer(16),
                                      nn::Nonlinearity::None, config);
    auto wide = compileBlocks(plan, config, 2);
    const std::uint32_t moved = 5;
    ASSERT_NE(wide.lut[moved], 0);
    wide.lut.push_back(wide.lut[moved]);
    ASSERT_EQ(wide.lut.size(), core::kernel::kRowLaneTableEntries + 1);
    std::size_t moved_entries = 0;
    for (auto &block : wide.tiles[0][0].blocks)
        for (std::uint32_t &e : block.entries)
            if (core::kernel::entryIndex(e) == moved) {
                e = core::kernel::packEntry(core::kernel::entryRow(e), 16);
                ++moved_entries;
            }
    ASSERT_GT(moved_entries, 0u);

    const std::size_t cols = 4 * kTailLengths;
    const core::kernel::Batch frames{
        model.quantizeInput(test::randomActivations(cols, 1.0, 701)),
        model.quantizeInput(test::randomActivations(cols, 0.35, 702))};
    core::kernel::Batch reference;
    for (const auto &frame : frames)
        reference.push_back(model.run(plan, frame).output_raw);

    for (const std::size_t batch : {1u, 2u}) {
        const core::kernel::Batch inputs(frames.begin(),
                                         frames.begin() + batch);
        for (const KernelVariant kernel :
             {KernelVariant::Auto, KernelVariant::Vector}) {
            for (core::kernel::WorkerPool *p :
                 {static_cast<core::kernel::WorkerPool *>(nullptr),
                  &pool}) {
                core::kernel::DispatchInfo info;
                const auto outputs =
                    core::kernel::runBatch(wide, inputs, p, kernel, &info);
                EXPECT_EQ(info.variant, executedVariant(kernel, wide, batch));
                EXPECT_EQ(info.variant == KernelVariant::ActSparse,
                          batch == 1 || !haveVectorSweep());
                for (std::size_t b = 0; b < batch; ++b)
                    EXPECT_EQ(outputs[b], reference[b])
                        << core::kernel::kernelVariantName(kernel)
                        << ", batch " << batch << ", "
                        << (p ? "pooled" : "serial") << ", frame " << b;
            }
        }
    }
}

TEST(KernelVariants, IneligibleFormatsFallBackBitExact)
{
    // A negative shift-and-add alignment keeps "vector" out; Auto
    // must route around it and stay bit-exact. Q16.6 weights into
    // Q16.13 activations align each product with a left shift.
    core::EieConfig config;
    config.n_pe = 4;
    config.weight_format = FixedFormat{16, 6};
    config.act_format = FixedFormat{16, 13};
    const auto layer = test::randomCompressedLayer(64, 48, 0.3, 4, 41);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    // None (not ReLU) keeps the negative rail observable.
    const auto rails = saturatingLayer(24, 48, 4, 100.0f);
    const auto rails_plan =
        core::planLayer(rails, nn::Nonlinearity::None, config);
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);

    // Random frames on the random layer; on the rails layer, a frame
    // of ones ends every accumulator on the negative rail after
    // pinning it to the positive one, and a frame live only on the
    // positive columns ends on the positive rail.
    nn::Vector half_ones(48, 0.0f);
    std::fill(half_ones.begin(), half_ones.begin() + 24, 1.0f);
    const struct
    {
        const core::LayerPlan &plan;
        core::kernel::Batch frames;
    } cases[] = {
        {plan,
         {model.quantizeInput(test::randomActivations(48, 0.5, 42)),
          model.quantizeInput(test::randomActivations(48, 1.0, 43)),
          model.quantizeInput(test::randomActivations(48, 0.1, 44))}},
        {rails_plan,
         {model.quantizeInput(nn::Vector(48, 1.0f)),
          model.quantizeInput(half_ones),
          model.quantizeInput(test::randomActivations(48, 0.5, 45))}},
    };

    for (const auto &c : cases) {
        const auto compiled = compileBlocks(c.plan, config, 3);
        ASSERT_FALSE(core::kernel::vectorEligible(compiled));
        EXPECT_EQ(core::kernel::resolveKernelVariant(KernelVariant::Auto,
                                                     compiled, 64),
                  KernelVariant::ActSparse);

        core::kernel::Batch reference;
        for (const auto &frame : c.frames)
            reference.push_back(model.run(c.plan, frame).output_raw);
        if (&c.plan == &rails_plan) {
            for (const std::int64_t out : reference[0])
                ASSERT_EQ(out, config.act_format.minRaw());
            for (const std::int64_t out : reference[1])
                ASSERT_EQ(out, config.act_format.maxRaw());
        }

        for (const std::size_t batch : {1u, 2u, 3u, 9u, 24u}) {
            core::kernel::Batch repeated;
            for (std::size_t b = 0; b < batch; ++b)
                repeated.push_back(c.frames[b % c.frames.size()]);
            for (core::kernel::WorkerPool *p :
                 {static_cast<core::kernel::WorkerPool *>(nullptr),
                  &pool}) {
                for (const KernelVariant kernel :
                     {KernelVariant::Auto, KernelVariant::ActSparse}) {
                    const auto outputs = core::kernel::runBatch(
                        compiled, repeated, p, kernel);
                    ASSERT_EQ(outputs.size(), batch);
                    for (std::size_t b = 0; b < batch; ++b)
                        EXPECT_EQ(outputs[b],
                                  reference[b % c.frames.size()])
                            << core::kernel::kernelVariantName(kernel)
                            << ", " << c.plan.name << ", batch " << batch
                            << ", " << (p ? "pooled" : "serial")
                            << ", frame " << b;
                }
            }
        }
    }
}

TEST(KernelVariants, OutOfFormatActivationsFallBackToActSparse)
{
    // The wire protocol carries raw int64 activations verbatim, so a
    // remote client can submit values outside act_format. The vector
    // variant's 32-bit lanes cannot represent them; runBatch must
    // demote to the actsparse loop (same defined int64 semantics as
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
    // One block per pool worker, and 7 blocks over the 96 rows: bounds
    // 0, 0, 16, ..., 96 leave block 0 empty.
    const auto compiled = compileBlocks(plan, config, 3);
    const auto seven = compileBlocks(plan, config, 7);
    ASSERT_TRUE(seven.tiles[0][0].blocks[0].entries.empty());
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);

    const std::vector<std::int64_t> zero_frame(64, 0);

    // Ragged batch sizes leave pad lanes in the vector sweep's 8-lane
    // blocks (1, 3, 5, 9); interleaved all-zero frames and the
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

        for (const auto *layer_form : {&compiled, &seven}) {
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
                            << ", " << layer_form->row_blocks << " blocks"
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
    // The actsparse column walk must reproduce the oracle's
    // saturating-MAC sequence exactly at every activation density:
    // no active column (0%), a single nonzero, the paper's 35%, fully
    // dense (100%, where every column lists every frame), all-zero
    // frames mixed into live batches, ragged batch sizes, and the
    // pooled row-block route.
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(96, 64, 0.2, 4, 91);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const auto compiled = compileBlocks(plan, config, 3);
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
        // Exactly one nonzero activation: one active column.
        std::vector<std::int64_t> one_hot(64, 0);
        one_hot[17] = model.quantizeInput(nn::Vector(1, 0.75f))[0];
        batches.push_back(core::kernel::Batch{std::move(one_hot)});
    }
    {
        // All-zero frames interleaved with dense ones: every column
        // lists only the dense frames.
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
    // Every variant must reproduce the oracle's saturating-MAC
    // sequence exactly from the table lookups: every activation
    // density (no active column at 0%, the paper's 9% weight / 35%
    // activation regime, fully dense), ragged batch sizes off the SIMD
    // lane grid (under auto, 3, 5 and 9 reach the vector loop), serial
    // (blocks in order) and pooled (one block per worker) routes.
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(96, 64, 0.2, 4, 91);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const core::FunctionalModel model(config);
    core::kernel::WorkerPool pool(3);
    const auto compiled = compileBlocks(plan, config, 3);

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
                              executedVariant(kernel, compiled,
                                              frames.size()));
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

    // Auto sends every batch to the SIMD lanes, or to the actsparse
    // walk on a CPU without AVX2, whatever the density.
    const KernelVariant lanes =
        haveVectorSweep() ? KernelVariant::Vector : KernelVariant::ActSparse;

    // A quarter-dense single frame: the probe must measure low
    // density, and the frame runs on the row lanes.
    core::kernel::Batch sparse_frames;
    sparse_frames.push_back(model.quantizeInput(
        test::randomActivations(48, 0.25, 1001)));
    core::kernel::DispatchInfo info;
    core::kernel::runBatch(compiled, sparse_frames, nullptr,
                           KernelVariant::Auto, &info);
    EXPECT_EQ(info.variant, lanes);
    ASSERT_GE(info.act_density, 0.0);
    EXPECT_LE(info.act_density, 0.5);

    // A fully dense single frame probes high and runs on the row
    // lanes; two dense frames run on the frame lanes.
    core::kernel::Batch dense_frames;
    dense_frames.push_back(
        model.quantizeInput(test::randomActivations(48, 1.0, 1002)));
    core::kernel::runBatch(compiled, dense_frames, nullptr,
                           KernelVariant::Auto, &info);
    EXPECT_EQ(info.variant, lanes);
    EXPECT_GT(info.act_density, 0.5);
    dense_frames.push_back(
        model.quantizeInput(test::randomActivations(48, 1.0, 1003)));
    core::kernel::runBatch(compiled, dense_frames, nullptr,
                           KernelVariant::Auto, &info);
    EXPECT_EQ(info.variant, lanes);
    EXPECT_GT(info.act_density, 0.5);

    // An empty batch reports an unknown density.
    core::kernel::runBatch(compiled, {}, nullptr, KernelVariant::Auto,
                           &info);
    EXPECT_LT(info.act_density, 0.0);
}

} // namespace
