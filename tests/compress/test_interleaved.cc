/**
 * @file
 * Interleaved relative-indexed CSC tests: the §III-B zero-run
 * encoding with padding, decode round-trips, and the Figure 12
 * padding-vs-PE-count property.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "compress/interleaved.hh"
#include "nn/generate.hh"

namespace {

using namespace eie;
using namespace eie::compress;

Codebook
unitCodebook()
{
    return Codebook({0.0f, 1.0f});
}

/** Single column with non-zeros at the given rows (value 1.0). */
nn::SparseMatrix
columnWithRows(std::size_t rows, const std::vector<std::size_t> &nz)
{
    nn::SparseMatrix m(rows, 1);
    for (std::size_t r : nz)
        m.insert(r, 0, 1.0f);
    return m;
}

TEST(InterleavedCsc, PaperSection3BExample)
{
    // The §III-B worked example: column
    // [0,0,1,2,0,...,0,3] (23 long, non-zeros at rows 2, 3, 22)
    // encodes as v = [1, 2, 0, 3], z = [2, 0, 15, 2].
    nn::SparseMatrix m(23, 1);
    Codebook cb({0.0f, 1.0f, 2.0f, 3.0f});
    m.insert(2, 0, 1.0f);
    m.insert(3, 0, 2.0f);
    m.insert(22, 0, 3.0f);

    InterleaveOptions opts;
    opts.n_pe = 1;
    InterleavedCsc csc(m, cb, opts);

    const auto &entries = csc.pe(0).entries();
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].zero_count, 2);
    EXPECT_EQ(entries[0].weight_index, cb.encode(1.0f));
    EXPECT_EQ(entries[1].zero_count, 0);
    EXPECT_EQ(entries[2].zero_count, 15);
    EXPECT_EQ(entries[2].weight_index, 0); // padding
    EXPECT_EQ(entries[3].zero_count, 2);
    EXPECT_EQ(csc.paddingEntries(), 1u);
    EXPECT_EQ(csc.realEntries(), 3u);
}

TEST(InterleavedCsc, MultiplePaddingForVeryLongRuns)
{
    // Non-zero at row 40 after 40 zeros: needs two padding entries
    // (advancing 16 each) plus the real entry with z = 8.
    const auto m = columnWithRows(41, {40});
    InterleaveOptions opts;
    opts.n_pe = 1;
    InterleavedCsc csc(m, unitCodebook(), opts);
    const auto &entries = csc.pe(0).entries();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].zero_count, 15);
    EXPECT_EQ(entries[1].zero_count, 15);
    EXPECT_EQ(entries[2].zero_count, 8);
    // Decoded local row must be exactly 40.
    const auto decoded = csc.pe(0).decodeColumn(0);
    EXPECT_EQ(decoded.back().local_row, 40u);
    EXPECT_FALSE(decoded.back().is_padding);
}

TEST(InterleavedCsc, ZeroCountsAreLocalToEachPe)
{
    // Rows 0 and 8 on 4 PEs: both belong to PE 0 at local rows 0, 2.
    const auto m = columnWithRows(12, {0, 8});
    InterleaveOptions opts;
    opts.n_pe = 4;
    InterleavedCsc csc(m, unitCodebook(), opts);
    const auto &pe0 = csc.pe(0).entries();
    ASSERT_EQ(pe0.size(), 2u);
    EXPECT_EQ(pe0[0].zero_count, 0);
    EXPECT_EQ(pe0[1].zero_count, 1); // one local zero (row 4) between
    for (unsigned k = 1; k < 4; ++k)
        EXPECT_TRUE(csc.pe(k).entries().empty());
}

TEST(InterleavedCsc, DecodeRoundTripRandom)
{
    Rng rng(60);
    nn::WeightGenOptions gopts;
    gopts.density = 0.08;
    const auto w = nn::makeSparseWeights(200, 60, gopts, rng);
    const auto cb = trainCodebook(w);

    for (unsigned n_pe : {1u, 2u, 4u, 7u, 16u, 64u}) {
        InterleaveOptions opts;
        opts.n_pe = n_pe;
        InterleavedCsc csc(w, cb, opts);

        // Structure identical; values quantised to codebook entries.
        const auto decoded = csc.decode();
        ASSERT_EQ(decoded.nnz(), w.nnz()) << n_pe << " PEs";
        for (std::size_t j = 0; j < w.cols(); ++j) {
            const auto &orig = w.column(j);
            const auto &got = decoded.column(j);
            ASSERT_EQ(got.size(), orig.size());
            for (std::size_t i = 0; i < orig.size(); ++i) {
                EXPECT_EQ(got[i].row, orig[i].row);
                EXPECT_FLOAT_EQ(got[i].value,
                                cb.decode(cb.encode(orig[i].value)));
            }
        }
        EXPECT_EQ(csc.realEntries(), w.nnz());
    }
}

TEST(InterleavedCsc, SixteenLocalRowsNeverPad)
{
    // With rows <= 16 per PE, any zero run fits in 4 bits: the
    // Figure 12 observation that 256 PEs eliminate padding for
    // 4096-row layers.
    Rng rng(61);
    nn::WeightGenOptions gopts;
    gopts.density = 0.02; // very sparse: padding-prone
    const auto w = nn::makeSparseWeights(256, 40, gopts, rng);
    const auto cb = trainCodebook(w);

    InterleaveOptions opts;
    opts.n_pe = 16; // 16 local rows per PE
    InterleavedCsc csc(w, cb, opts);
    EXPECT_EQ(csc.paddingEntries(), 0u);
    EXPECT_DOUBLE_EQ(csc.realWorkRatio(), 1.0);
}

TEST(InterleavedCsc, PaddingDecreasesWithMorePes)
{
    Rng rng(62);
    nn::WeightGenOptions gopts;
    gopts.density = 0.04; // VGG-like sparsity
    const auto w = nn::makeSparseWeights(512, 128, gopts, rng);
    const auto cb = trainCodebook(w);

    double prev_ratio = 0.0;
    for (unsigned n_pe : {1u, 4u, 16u, 64u}) {
        InterleaveOptions opts;
        opts.n_pe = n_pe;
        InterleavedCsc csc(w, cb, opts);
        const double ratio = csc.realWorkRatio();
        EXPECT_GE(ratio, prev_ratio - 0.02) << n_pe << " PEs";
        prev_ratio = ratio;
    }
    // At 32 local rows (512/16) padding is rare; at 512 it is common.
    InterleaveOptions one;
    one.n_pe = 1;
    InterleaveOptions many;
    many.n_pe = 64;
    EXPECT_GT(InterleavedCsc(w, cb, many).realWorkRatio(),
              InterleavedCsc(w, cb, one).realWorkRatio());
}

TEST(InterleavedCsc, SpmatWordPacking)
{
    const auto m = columnWithRows(20, {0, 2, 5, 7, 9, 11, 13, 15, 17});
    InterleaveOptions opts;
    opts.n_pe = 1;
    InterleavedCsc csc(m, unitCodebook(), opts);
    const auto &pe = csc.pe(0);
    const auto words = pe.spmatWords();
    ASSERT_EQ(words.size(), (pe.entries().size() + 7) / 8);
    // Re-extract every nibble pair and compare.
    for (std::size_t e = 0; e < pe.entries().size(); ++e) {
        const auto byte = static_cast<std::uint8_t>(
            (words[e / 8] >> (8 * (e % 8))) & 0xff);
        EXPECT_EQ(byte >> 4, pe.entries()[e].weight_index);
        EXPECT_EQ(byte & 0xf, pe.entries()[e].zero_count);
    }
}

TEST(InterleavedCsc, StorageAccounting)
{
    Rng rng(63);
    nn::WeightGenOptions gopts;
    gopts.density = 0.1;
    const auto w = nn::makeSparseWeights(64, 32, gopts, rng);
    const auto cb = trainCodebook(w);
    InterleaveOptions opts;
    opts.n_pe = 4;
    InterleavedCsc csc(w, cb, opts);

    EXPECT_EQ(csc.spmatBits(), csc.totalEntries() * 8);
    EXPECT_EQ(csc.pointerBits(), 4u * (32 + 1) * 16);
    EXPECT_EQ(csc.codebookBits(), 16u * 16);
}

} // namespace
