/**
 * @file
 * Compressed-stream codec tests: every compiled slice round-trips
 * through CompressedSliceStream::encode/decode bit for bit, targeted
 * malformed streams throw CompressedStreamError with the documented
 * reason, and seeded fuzz (mutations of valid streams plus
 * pure-garbage streams) must decode-or-throw the typed error — never
 * crash, hang, read out of bounds, or trip a sanitizer. This is the
 * decoder's survival property against corrupt model bytes, mirroring
 * the wire codec's garbage-frame fuzz in tests/serve/test_wire.cc;
 * tools/check.sh runs it under ASan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/kernel/compiled_layer.hh"
#include "core/kernel/compressed_stream.hh"
#include "core/plan.hh"
#include "helpers.hh"

namespace {

using namespace eie;

using core::kernel::CompressedSliceStream;
using core::kernel::CompressedStreamError;
using core::kernel::SliceStream;

/** Every tile slice of a compiled layer, in tile order. */
std::vector<const core::kernel::CompiledSlice *>
compiledSlices(const core::kernel::CompiledLayer &layer)
{
    std::vector<const core::kernel::CompiledSlice *> slices;
    for (const auto &batch_tiles : layer.tiles)
        for (const auto &tile : batch_tiles)
            for (const auto &slice : tile.slices)
                slices.push_back(&slice);
    return slices;
}

/** A representative layer compiled in @p residency. */
core::kernel::CompiledLayer
compileIn(core::kernel::Residency residency, unsigned seed)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer = test::randomCompressedLayer(96, 64, 0.25, 4, seed);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    core::kernel::CompileOptions options;
    options.residency = residency;
    return core::kernel::CompiledLayer::compile(plan, config, options);
}

TEST(CompressedStream, RoundTripsEveryCompiledSlice)
{
    // The decoded form of the same plan is the round-trip's oracle.
    for (const unsigned seed : {7u, 8u}) {
        const auto decoded =
            compileIn(core::kernel::Residency::Decoded, seed);
        const auto compressed =
            compileIn(core::kernel::Residency::Compressed, seed);
        ASSERT_TRUE(decoded.has_host_stream);
        ASSERT_FALSE(compressed.has_host_stream);
        const auto oracle_slices = compiledSlices(decoded);
        const auto slices = compiledSlices(compressed);
        ASSERT_EQ(slices.size(), oracle_slices.size());

        SliceStream scratch;
        for (std::size_t i = 0; i < slices.size(); ++i) {
            const core::kernel::SliceStream &oracle =
                oracle_slices[i]->stream;
            const CompressedSliceStream &stream = slices[i]->compressed;
            stream.decode(scratch);
            EXPECT_EQ(scratch.rows, oracle.rows);
            EXPECT_EQ(scratch.weights, oracle.weights);
            EXPECT_EQ(scratch.col_ptr, oracle.col_ptr);
            // The decoded form pays ~12 bytes/entry; the compressed
            // one must undercut it on any non-tiny slice.
            const std::size_t decoded_bytes =
                oracle.rows.size() * sizeof(std::uint32_t) +
                oracle.weights.size() * sizeof(std::int32_t) +
                oracle.col_ptr.size() * sizeof(std::uint32_t) +
                oracle.packed.size() * sizeof(std::uint32_t);
            if (stream.entry_count > 64) {
                EXPECT_LT(stream.byteSize(), decoded_bytes);
            }
        }
    }
}

TEST(CompressedStream, TargetedMalformationsThrowTyped)
{
    const auto compiled =
        compileIn(core::kernel::Residency::Compressed, 7);
    const auto slices = compiledSlices(compiled);
    ASSERT_FALSE(slices.empty());
    const CompressedSliceStream &clean = slices.front()->compressed;
    ASSERT_GT(clean.entry_count, 0u);
    SliceStream scratch;

    {
        CompressedSliceStream bad = clean;
        bad.n_pe = 0;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.col_ptr.clear();
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.col_ptr.front() = 1; // must start at 0
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.col_ptr.back() = clean.entry_count + 1;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.nibbles.pop_back();
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Truncated bitstream: the cursor runs dry mid-symbol.
        CompressedSliceStream bad = clean;
        bad.delta_bit_count = bad.delta_bit_count / 2;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.delta_bit_count = bad.delta_bits.size() * 8 + 1;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Over-subscribed code-length table: more 1-bit codewords
        // than the code space holds.
        CompressedSliceStream bad = clean;
        bad.code_lengths.fill(1);
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Entries but no codewords at all.
        CompressedSliceStream bad = clean;
        bad.code_lengths.fill(0);
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Rows walk past the slice's range.
        CompressedSliceStream bad = clean;
        bad.local_rows = 1;
        try {
            bad.decode(scratch);
        } catch (const CompressedStreamError &) {
            // Expected for any slice with a row past 0; a 1-row
            // decode success would also be in-bounds.
        }
    }
    {
        // Row range would overflow 32-bit global row indices.
        CompressedSliceStream bad = clean;
        bad.n_pe = 0xffffffffu;
        bad.pe = 0xfffffffeu;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
}

/** splitmix64: the deterministic byte source of the fuzz tests. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Decode must finish or throw the typed error; anything else
 *  (crash, sanitizer trip, other exception type) fails the test. */
void
decodeOrTypedThrow(const CompressedSliceStream &stream,
                   SliceStream &scratch)
{
    try {
        stream.decode(scratch);
        // Landing on another valid stream is fine; crashing is not.
    } catch (const CompressedStreamError &) {
        // The typed rejection path: also fine.
    }
}

TEST(CompressedStreamFuzz, SeededMutationsOfValidStreamsFailTyped)
{
    // Deterministic mutation fuzz over every field a corrupt model
    // file could damage: bit flips and byte stomps in the nibble and
    // delta arrays, stomped column pointers and code lengths,
    // perturbed scalar header fields, truncations and extensions.
    // Seeded, so a failure reproduces exactly.
    std::uint64_t rng = 0xc0dec0dec0dec0deull;
    const auto compiled =
        compileIn(core::kernel::Residency::Compressed, 7);
    SliceStream scratch;

    for (const auto *slice : compiledSlices(compiled)) {
        const CompressedSliceStream &clean = slice->compressed;
        ASSERT_NO_THROW(clean.decode(scratch));

        for (int round = 0; round < 200; ++round) {
            CompressedSliceStream mutated = clean;
            const unsigned edits =
                1 + static_cast<unsigned>(splitmix(rng) % 3);
            for (unsigned e = 0; e < edits; ++e) {
                switch (splitmix(rng) % 8) {
                  case 0: // flip one bit of the delta stream
                    if (!mutated.delta_bits.empty())
                        mutated.delta_bits[splitmix(rng) %
                                           mutated.delta_bits
                                               .size()] ^=
                            static_cast<std::uint8_t>(
                                1u << (splitmix(rng) % 8));
                    break;
                  case 1: // stomp one nibble byte
                    if (!mutated.nibbles.empty())
                        mutated.nibbles[splitmix(rng) %
                                        mutated.nibbles.size()] =
                            static_cast<std::uint8_t>(splitmix(rng));
                    break;
                  case 2: // stomp one column pointer
                    mutated.col_ptr[splitmix(rng) %
                                    mutated.col_ptr.size()] =
                        static_cast<std::uint32_t>(
                            splitmix(rng) % (2 * clean.entry_count +
                                             2));
                    break;
                  case 3: // stomp one code length
                    mutated.code_lengths[splitmix(rng) % 256] =
                        static_cast<std::uint8_t>(splitmix(rng) % 40);
                    break;
                  case 4: // perturb a scalar header field
                    switch (splitmix(rng) % 4) {
                      case 0:
                        mutated.local_rows = static_cast<
                            std::uint32_t>(splitmix(rng) % 200);
                        break;
                      case 1:
                        mutated.delta_bit_count =
                            splitmix(rng) %
                            (8 * mutated.delta_bits.size() + 9);
                        break;
                      case 2:
                        mutated.pe = static_cast<std::uint32_t>(
                            splitmix(rng));
                        break;
                      default:
                        mutated.n_pe = static_cast<std::uint32_t>(
                            splitmix(rng) % 9);
                        break;
                    }
                    break;
                  case 5: // truncate the delta stream
                    if (!mutated.delta_bits.empty()) {
                        mutated.delta_bits.resize(
                            splitmix(rng) %
                            mutated.delta_bits.size());
                        mutated.delta_bit_count = std::min<
                            std::uint64_t>(
                            mutated.delta_bit_count,
                            mutated.delta_bits.size() * 8);
                    }
                    break;
                  case 6: // append trailing garbage bits
                    for (std::uint64_t n = 1 + splitmix(rng) % 8;
                         n > 0; --n)
                        mutated.delta_bits.push_back(
                            static_cast<std::uint8_t>(splitmix(rng)));
                    mutated.delta_bit_count =
                        mutated.delta_bits.size() * 8;
                    break;
                  default: // truncate the column pointers
                    if (mutated.col_ptr.size() > 1)
                        mutated.col_ptr.resize(
                            1 + splitmix(rng) %
                                    mutated.col_ptr.size());
                    break;
                }
            }
            decodeOrTypedThrow(mutated, scratch);
        }
    }
}

TEST(CompressedStreamFuzz, PureGarbageStreamsFailTyped)
{
    // Streams that were never an encode(): every field filled from
    // the deterministic byte source, sizes bounded so a "success"
    // cannot allocate absurdly (decode validates entry_count against
    // the nibble array and column extents before any array walk).
    std::uint64_t rng = 0x5eed5eed5eed5eedull;
    SliceStream scratch;
    for (int round = 0; round < 400; ++round) {
        CompressedSliceStream garbage;
        garbage.n_pe = static_cast<std::uint32_t>(splitmix(rng) % 6);
        garbage.pe = static_cast<std::uint32_t>(splitmix(rng) % 8);
        garbage.local_rows =
            static_cast<std::uint32_t>(splitmix(rng) % 300);
        garbage.entry_count =
            static_cast<std::uint32_t>(splitmix(rng) % 512);
        const std::uint64_t cols = splitmix(rng) % 20;
        for (std::uint64_t j = 0; j < cols; ++j)
            garbage.col_ptr.push_back(static_cast<std::uint32_t>(
                splitmix(rng) % 600));
        if (splitmix(rng) % 2 == 0 && !garbage.col_ptr.empty()) {
            // Half the rounds: structurally plausible pointers, so
            // the fuzz reaches the Huffman walk itself.
            garbage.col_ptr.front() = 0;
            garbage.col_ptr.back() = garbage.entry_count;
        }
        const std::uint64_t nibble_bytes = splitmix(rng) % 300;
        for (std::uint64_t i = 0; i < nibble_bytes; ++i)
            garbage.nibbles.push_back(
                static_cast<std::uint8_t>(splitmix(rng)));
        if (splitmix(rng) % 2 == 0)
            garbage.nibbles.resize(
                (static_cast<std::size_t>(garbage.entry_count) + 1) /
                2);
        const std::uint64_t delta_bytes = splitmix(rng) % 200;
        for (std::uint64_t i = 0; i < delta_bytes; ++i)
            garbage.delta_bits.push_back(
                static_cast<std::uint8_t>(splitmix(rng)));
        garbage.delta_bit_count =
            splitmix(rng) % (8 * delta_bytes + 9);
        for (unsigned s = 0; s < 256; ++s)
            if (splitmix(rng) % 4 == 0)
                garbage.code_lengths[s] =
                    static_cast<std::uint8_t>(splitmix(rng) % 40);
        for (unsigned v = 0; v < 16; ++v)
            garbage.weight_lut[v] =
                static_cast<std::int32_t>(splitmix(rng));
        decodeOrTypedThrow(garbage, scratch);
    }
}

} // namespace
