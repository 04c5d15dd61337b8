#include "core/kernel/compiled_layer.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace eie::core::kernel {

namespace {

/**
 * Merge the per-PE streams of @p tile into one slice-fused stream:
 * per column, the entries of every slice concatenated and sorted.
 * The row is an entry's high field, so the sort orders a column by
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
    const std::size_t cols = tile.col_end - tile.col_begin;

    std::size_t total = 0;
    for (const CompiledSlice &slice : tile.slices)
        total += slice.stream.entryCount();
    fused.entries.reserve(total);
    fused.col_ptr.reserve(cols + 1);
    fused.col_ptr.push_back(0);
    for (std::size_t j = 0; j < cols; ++j) {
        const std::size_t column = fused.entries.size();
        for (const CompiledSlice &slice : tile.slices) {
            const SliceStream &s = slice.stream;
            fused.entries.insert(fused.entries.end(),
                                 s.entries.begin() + s.col_ptr[j],
                                 s.entries.begin() + s.col_ptr[j + 1]);
        }
        std::sort(fused.entries.begin() + column, fused.entries.end());
        fused.col_ptr.push_back(
            static_cast<std::uint32_t>(fused.entries.size()));
    }
    return fused;
}

/** Resident bytes of one stream: 4 per entry and per column pointer. */
std::uint64_t
streamBytes(const SliceStream &stream)
{
    return (stream.entries.size() + stream.col_ptr.size()) *
        sizeof(std::uint32_t);
}

/**
 * Lower PE @p k's share of a tile to its host stream: one
 * packEntry(row, index) per padding-stripped entry, the row rebased to
 * the tile's row batch by the interleaving law of §III-B. Every entry
 * is checked once here so the loops can index without bounds checks.
 */
SliceStream
lowerSlice(const compress::PeSlice &pe, unsigned k, unsigned n_pe,
           std::size_t row_span, std::size_t lut_size)
{
    const auto image = pe.exportDecoded();
    SliceStream stream;
    stream.col_ptr = image.col_ptr;
    stream.entries.reserve(image.local_rows.size());
    for (std::size_t e = 0; e < image.local_rows.size(); ++e) {
        const std::uint64_t row =
            std::uint64_t{image.local_rows[e]} * n_pe + k;
        const std::uint32_t index = image.weight_indices[e];
        panic_if(index >= lut_size, "codebook index %u out of %zu",
                 index, lut_size);
        panic_if(row >= row_span || row >= kEntryRowLimit,
                 "entry row %llu outside the tile's %zu rows",
                 static_cast<unsigned long long>(row), row_span);
        stream.entries.push_back(
            packEntry(static_cast<std::uint32_t>(row), index));
    }
    return stream;
}

} // namespace

const char *
residencyName(Residency)
{
    return "indexed";
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

    panic_if(!options.host_stream && !options.sim_stream,
             "compile with no stream selected");

    CompiledLayer layer;
    layer.name = plan.name;
    layer.input_size = plan.input_size;
    layer.output_size = plan.output_size;
    layer.nonlin = plan.nonlin;
    layer.n_pe = plan.n_pe;
    layer.act_format = config.act_format;
    layer.weight_format = config.weight_format;
    layer.has_host_stream = options.host_stream;
    layer.has_fused_stream = options.host_stream && options.fused_stream;
    layer.has_sim_stream = options.sim_stream;

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
            // One table serves every tile: planLayer encodes all of a
            // layer's tiles with the layer's one codebook.
            if (layer.lut.empty())
                layer.lut = raw_lut;
            panic_if(raw_lut != layer.lut,
                     "tiles of layer '%s' use different codebooks",
                     plan.name.c_str());
            compiled.slices.resize(plan.n_pe);
            for (unsigned k = 0; k < plan.n_pe; ++k) {
                const compress::PeSlice &pe = storage.pe(k);
                CompiledSlice &slice = compiled.slices[k];
                slice.local_rows = pe.localRows();
                if (options.host_stream) {
                    slice.stream =
                        lowerSlice(pe, k, plan.n_pe,
                                   tile.row_end - tile.row_begin,
                                   raw_lut.size());
                    layer.resident_bytes += streamBytes(slice.stream);
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
                layer.resident_bytes += streamBytes(compiled.fused);
            }
            row_tiles.push_back(std::move(compiled));
        }
        layer.tiles.push_back(std::move(row_tiles));
    }
    if (layer.has_host_stream)
        layer.resident_bytes += layer.lut.size() * sizeof(std::int64_t);
    return layer;
}

} // namespace eie::core::kernel
