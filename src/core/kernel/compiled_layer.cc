#include "core/kernel/compiled_layer.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace eie::core::kernel {

namespace {

/**
 * Merge the per-PE streams of @p tile into one slice-fused stream:
 * per column, the entries of every slice concatenated and sorted by
 * row. Entries of a column hit distinct accumulator rows (PE k owns
 * rows i mod N == k, one CSC entry per (row, col)), so any per-column
 * order yields the exact saturating-MAC sequence of the per-slice
 * walk; sorting keeps the accumulator writes ascending for locality.
 */
SliceStream
fuseSlices(const CompiledTile &tile)
{
    SliceStream fused;
    panic_if(tile.slices.empty(), "tile with no slices");
    const std::size_t cols = tile.slices.front().stream.col_ptr.size()
        ? tile.slices.front().stream.col_ptr.size() - 1
        : 0;

    std::size_t total = 0;
    for (const CompiledSlice &slice : tile.slices)
        total += slice.stream.entryCount();
    fused.rows.reserve(total);
    fused.weights.reserve(total);
    fused.col_ptr.reserve(cols + 1);
    fused.col_ptr.push_back(0);

    std::vector<std::pair<std::uint32_t, std::int32_t>> column;
    for (std::size_t j = 0; j < cols; ++j) {
        column.clear();
        for (const CompiledSlice &slice : tile.slices) {
            const SliceStream &s = slice.stream;
            for (std::uint32_t e = s.col_ptr[j]; e < s.col_ptr[j + 1];
                 ++e)
                column.emplace_back(s.rows[e], s.weights[e]);
        }
        std::sort(column.begin(), column.end());
        for (const auto &[row, weight] : column) {
            fused.rows.push_back(row);
            fused.weights.push_back(weight);
        }
        fused.col_ptr.push_back(
            static_cast<std::uint32_t>(fused.rows.size()));
    }
    fused.buildPacked();
    return fused;
}

/** Resident bytes of one decoded SoA stream. */
std::uint64_t
streamBytes(const SliceStream &stream)
{
    return (stream.rows.size() + stream.packed.size() +
            stream.col_ptr.size()) *
        sizeof(std::uint32_t) +
        stream.weights.size() * sizeof(std::int32_t);
}

/**
 * Estimated decoded stream footprint of @p plan, for Auto residency:
 * real entries times the SoA cost per entry (rows + weights + packed
 * mirror), doubled when the fused stream would be built. Column
 * pointers are ignored — entry storage dominates at any size where
 * the threshold matters.
 */
std::uint64_t
estimatedDecodedBytes(const LayerPlan &plan, bool fused)
{
    std::uint64_t entries = 0;
    for (const auto &batch_tiles : plan.tiles)
        for (const Tile &tile : batch_tiles)
            entries += tile.storage.realEntries();
    return entries * 12 * (fused ? 2 : 1);
}

} // namespace

const char *
residencyName(Residency residency)
{
    switch (residency) {
      case Residency::Decoded:
        return "decoded";
      case Residency::Compressed:
        return "compressed";
      case Residency::Auto:
        return "auto";
    }
    panic("invalid residency %d", static_cast<int>(residency));
    return ""; // unreachable: panic() aborts
}

Residency
residencyFromName(const std::string &name)
{
    if (name == "decoded")
        return Residency::Decoded;
    if (name == "compressed")
        return Residency::Compressed;
    if (name == "auto")
        return Residency::Auto;
    fatal("unknown residency '%s' (known: decoded, compressed, auto)",
          name.c_str());
    return Residency::Decoded; // unreachable: fatal() exits
}

void
SliceStream::buildPacked()
{
    packed.clear();
    packed.reserve(rows.size());
    for (std::size_t e = 0; e < rows.size(); ++e) {
        const std::uint32_t row = rows[e];
        const std::int32_t weight = weights[e];
        if (row > 0xffff || weight < -0x8000 || weight > 0x7fff) {
            packed.clear();
            packed.shrink_to_fit();
            return; // out of 16-bit range: no packed mirror
        }
        packed.push_back(row << 16 |
                         (static_cast<std::uint32_t>(weight) & 0xffffu));
    }
}

std::vector<SimEntry>
decodeSimStream(const compress::PeSlice &slice,
                const std::vector<std::int64_t> &raw_lut)
{
    const auto &entries = slice.entries();
    const auto &col_ptr = slice.colPtr();
    std::vector<SimEntry> stream;
    stream.reserve(entries.size());
    for (std::size_t j = 0; j + 1 < col_ptr.size(); ++j) {
        // The PE's address-accumulation register restarts per column.
        std::int64_t row = -1;
        for (std::uint32_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e) {
            const compress::CscEntry &entry = entries[e];
            row += entry.zero_count + 1;
            panic_if(entry.weight_index >= raw_lut.size(),
                     "codebook index %u out of %zu",
                     entry.weight_index, raw_lut.size());
            stream.push_back(SimEntry{
                static_cast<std::uint32_t>(row),
                static_cast<std::int32_t>(raw_lut[entry.weight_index]),
                entry.weight_index == 0});
        }
    }
    return stream;
}

CompiledLayer
CompiledLayer::compile(const LayerPlan &plan, const EieConfig &config,
                       const CompileOptions &options)
{
    panic_if(plan.n_pe != config.n_pe,
             "plan compiled for %u PEs, machine has %u", plan.n_pe,
             config.n_pe);

    // Auto residency resolves per layer: decoded below the LLC-scale
    // threshold, compressed above it.
    Residency residency = options.residency;
    if (residency == Residency::Auto)
        residency = estimatedDecodedBytes(plan, options.fused_stream) >=
                kAutoResidencyCompressBytes
            ? Residency::Compressed
            : Residency::Decoded;

    // Under compressed residency the compressed stream is the only
    // resident host form: the decoded/fused arrays are never built.
    const bool build_host =
        options.host_stream && residency != Residency::Compressed;
    const bool build_compressed = residency == Residency::Compressed;

    panic_if(!build_host && !options.sim_stream && !build_compressed,
             "compile with no stream selected");

    CompiledLayer layer;
    layer.name = plan.name;
    layer.input_size = plan.input_size;
    layer.output_size = plan.output_size;
    layer.nonlin = plan.nonlin;
    layer.n_pe = plan.n_pe;
    layer.act_format = config.act_format;
    layer.weight_format = config.weight_format;
    layer.has_host_stream = build_host;
    layer.has_fused_stream = build_host && options.fused_stream;
    layer.has_sim_stream = options.sim_stream;
    layer.residency = residency;

    for (const auto &batch_tiles : plan.tiles) {
        std::vector<CompiledTile> row_tiles;
        for (const Tile &tile : batch_tiles) {
            CompiledTile compiled;
            compiled.row_begin = tile.row_begin;
            compiled.row_end = tile.row_end;
            compiled.col_begin = tile.col_begin;
            compiled.col_end = tile.col_end;

            const auto &storage = tile.storage;
            const auto &raw_lut = storage.codebook().rawValues();
            compiled.slices.resize(plan.n_pe);
            for (unsigned k = 0; k < plan.n_pe; ++k) {
                const compress::PeSlice &pe = storage.pe(k);
                CompiledSlice &slice = compiled.slices[k];
                slice.local_rows = pe.localRows();
                if (build_host || build_compressed) {
                    const auto image = pe.exportDecoded();
                    if (build_host) {
                        SliceStream &stream = slice.stream;
                        stream.col_ptr = image.col_ptr;
                        stream.rows.reserve(image.local_rows.size());
                        stream.weights.reserve(
                            image.local_rows.size());
                        for (std::size_t e = 0;
                             e < image.local_rows.size(); ++e) {
                            // Batch-local global row: the
                            // interleaving law of §III-B, rebased to
                            // the tile's row range.
                            stream.rows.push_back(
                                image.local_rows[e] * plan.n_pe + k);
                            stream.weights.push_back(
                                static_cast<std::int32_t>(
                                    raw_lut[image.weight_indices[e]]));
                        }
                        stream.buildPacked();
                        layer.decoded_stream_bytes +=
                            streamBytes(stream);
                    }
                    if (build_compressed) {
                        slice.compressed =
                            CompressedSliceStream::encode(
                                image, raw_lut, plan.n_pe, k,
                                pe.localRows());
                        layer.compressed_stream_bytes +=
                            slice.compressed.byteSize();
                    }
                }
                if (options.sim_stream) {
                    slice.sim_entries = decodeSimStream(pe, raw_lut);
                    slice.sim_col_ptr = pe.colPtr();
                }
                compiled.total_entries += pe.totalEntries();
                layer.real_entries +=
                    pe.totalEntries() - pe.paddingEntries();
                layer.stripped_padding += pe.paddingEntries();
            }
            if (layer.has_fused_stream) {
                compiled.fused = fuseSlices(compiled);
                layer.decoded_stream_bytes +=
                    streamBytes(compiled.fused);
            }
            row_tiles.push_back(std::move(compiled));
        }
        layer.tiles.push_back(std::move(row_tiles));
    }
    return layer;
}

} // namespace eie::core::kernel
