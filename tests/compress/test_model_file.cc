/**
 * @file
 * EIEM model file round-trip and corruption tests.
 */

#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>

#include "compress/model_file.hh"
#include "helpers.hh"

namespace {

using namespace eie;
using namespace eie::compress;

void
expectModelsEqual(const InterleavedCsc &a, const InterleavedCsc &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(a.numPe(), b.numPe());
    ASSERT_EQ(a.codebook().values(), b.codebook().values());
    for (unsigned k = 0; k < a.numPe(); ++k) {
        ASSERT_EQ(a.pe(k).entries(), b.pe(k).entries()) << "PE " << k;
        ASSERT_EQ(a.pe(k).colPtr(), b.pe(k).colPtr()) << "PE " << k;
        ASSERT_EQ(a.pe(k).localRows(), b.pe(k).localRows());
        ASSERT_EQ(a.pe(k).paddingEntries(), b.pe(k).paddingEntries());
    }
}

TEST(ModelFile, SerializeDeserializeRoundTrip)
{
    const auto layer = test::randomCompressedLayer(96, 64, 0.1, 8, 401);
    const auto &model = layer.storage();

    const auto bytes = serializeModel(model);
    EXPECT_GT(bytes.size(), 16u);

    const auto restored = deserializeModel(bytes);
    expectModelsEqual(model, restored);

    // The restored model decodes to the same quantised matrix.
    const auto decoded = restored.decode();
    EXPECT_EQ(decoded.nnz(), layer.quantizedWeights().nnz());
}

TEST(ModelFile, HuffmanBeatsRawNibbles)
{
    // The file stores Huffman-coded streams: for a skewed codebook
    // distribution the file undercuts raw 8-bit entries + pointers.
    const auto layer =
        test::randomCompressedLayer(256, 128, 0.08, 16, 402);
    const auto &model = layer.storage();
    const auto bytes = serializeModel(model);

    const std::size_t raw_entry_bytes = model.totalEntries();
    const std::size_t pointer_bytes =
        model.numPe() * (model.cols() + 1) * 4;
    EXPECT_LT(bytes.size(), raw_entry_bytes + pointer_bytes + 4096);
}

TEST(ModelFile, SaveLoadFile)
{
    const auto layer = test::randomCompressedLayer(48, 32, 0.2, 4, 403);
    const std::string path = ::testing::TempDir() + "model.eiem";
    saveModelFile(path, layer.storage());
    const auto restored = loadModelFile(path);
    expectModelsEqual(layer.storage(), restored);
    std::remove(path.c_str());
}

// Corruption is a recoverable, typed error (ModelFileError), not a
// fatal: a serving daemon must survive a bad file on disk.

TEST(ModelFileError, DetectsCorruption)
{
    const auto layer = test::randomCompressedLayer(32, 32, 0.2, 4, 404);
    auto bytes = serializeModel(layer.storage());

    auto flipped = bytes;
    flipped[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(deserializeModel(flipped), ModelFileError);
    try {
        deserializeModel(flipped);
        FAIL() << "corrupt model deserialized";
    } catch (const ModelFileError &error) {
        EXPECT_NE(std::string(error.what()).find("checksum"),
                  std::string::npos);
    }

    auto truncated = bytes;
    truncated.resize(bytes.size() / 2);
    EXPECT_THROW(deserializeModel(truncated), ModelFileError);

    // Mid-byte truncation: every prefix must fail cleanly, never
    // crash or return a half-read model.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{17},
          bytes.size() / 3, bytes.size() - 1}) {
        auto prefix = bytes;
        prefix.resize(keep);
        EXPECT_THROW(deserializeModel(prefix), ModelFileError)
            << "prefix of " << keep << " bytes";
    }

    auto bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_THROW(deserializeModel(bad_magic), ModelFileError);
}

TEST(ModelFileError, MissingFile)
{
    EXPECT_THROW(loadModelFile("/nonexistent/path/model.eiem"),
                 ModelFileError);
}

TEST(ModelFileError, TruncatedFileOnDisk)
{
    const auto layer = test::randomCompressedLayer(48, 32, 0.2, 4, 405);
    const std::string path =
        ::testing::TempDir() + "truncated.eiem";
    saveModelFile(path, layer.storage());

    // Rewrite the file with half its bytes: loadModelFile must
    // surface the damage as ModelFileError, not crash or exit.
    const auto bytes = serializeModel(layer.storage());
    FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, file);
    std::fclose(file);

    EXPECT_THROW(loadModelFile(path), ModelFileError);
    std::remove(path.c_str());
}

/**
 * A 4-row x 2-column, one-PE model with a 4-entry codebook whose only
 * slice holds @p entries over @p col_ptr, assembled from parts so the
 * file writer stores whatever it is given under a valid checksum.
 */
InterleavedCsc
handBuiltModel(std::vector<CscEntry> entries,
               std::vector<std::uint32_t> col_ptr)
{
    InterleaveOptions opts;
    opts.n_pe = 1;
    std::vector<PeSlice> slices;
    slices.push_back(
        PeSlice::fromParts(std::move(entries), std::move(col_ptr), 4));
    return InterleavedCsc::fromParts(
        4, 2, opts, Codebook({0.0f, 0.5f, -0.5f, 1.0f}),
        std::move(slices));
}

/** Recompute the trailing FNV-1a checksum of a patched buffer, so the
 *  loader gets past the checksum and must catch the damage itself. */
void
reseal(std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    std::memcpy(bytes.data() + bytes.size() - 8, &hash, 8);
}

// A valid checksum does not make the contents consistent. Each of
// these used to abort the loading process further down (in
// Codebook::decode, SparseMatrix::insert or PeSlice::fromParts); the
// loader must reject them as corrupt instead.

TEST(ModelFileError, HandBuiltModelIsOtherwiseValid)
{
    const auto model = handBuiltModel({{1, 0}, {3, 2}}, {0, 1, 2});
    const auto restored = deserializeModel(serializeModel(model));
    expectModelsEqual(model, restored);
    EXPECT_EQ(restored.decode().nnz(), 2u);
}

TEST(ModelFileError, CodebookIndexBeyondTheTable)
{
    // Index 9 of a 4-entry codebook.
    const auto bytes =
        serializeModel(handBuiltModel({{9, 0}}, {0, 1, 1}));
    EXPECT_THROW(deserializeModel(bytes), ModelFileError);
}

TEST(ModelFileError, ZeroRunPastTheLastRow)
{
    // A run of 9 zeros lands on row 9 of a 4-row matrix.
    const auto bytes =
        serializeModel(handBuiltModel({{1, 9}}, {0, 1, 1}));
    EXPECT_THROW(deserializeModel(bytes), ModelFileError);
}

TEST(ModelFileError, ColumnPointersNotEndingAtTheEntryCount)
{
    auto bytes =
        serializeModel(handBuiltModel({{1, 0}, {3, 2}}, {0, 1, 2}));
    // Header (32 B) + codebook (4 + 4 x 4 B) + PE 0's local_rows (4 B)
    // and entry_count (8 B) + col_ptr[0..1]: col_ptr[2] follows.
    const std::size_t last_ptr = 32 + 20 + 12 + 2 * 4;
    std::uint32_t ptr = 0;
    std::memcpy(&ptr, bytes.data() + last_ptr, 4);
    ASSERT_EQ(ptr, 2u);
    ptr = 1; // still non-decreasing, but one entry short
    std::memcpy(bytes.data() + last_ptr, &ptr, 4);
    reseal(bytes);
    EXPECT_THROW(deserializeModel(bytes), ModelFileError);

    // Pointers {0, 3, 2} end right but decrease: rejected as well.
    std::uint32_t middle = 3;
    std::memcpy(bytes.data() + last_ptr - 4, &middle, 4);
    ptr = 2;
    std::memcpy(bytes.data() + last_ptr, &ptr, 4);
    reseal(bytes);
    EXPECT_THROW(deserializeModel(bytes), ModelFileError);
}

TEST(ModelFile, EmptyLayerRoundTrips)
{
    // A layer with an all-zero column region still serialises.
    nn::SparseMatrix w(16, 8);
    w.insert(3, 2, 1.0f);
    CompressionOptions opts;
    opts.interleave.n_pe = 4;
    const auto layer = CompressedLayer::compress("tiny", w, opts);
    const auto bytes = serializeModel(layer.storage());
    const auto restored = deserializeModel(bytes);
    expectModelsEqual(layer.storage(), restored);
}

} // namespace
