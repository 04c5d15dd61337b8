#include "core/kernel/compiled_layer.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace eie::core::kernel {

namespace {

/** Resident bytes of one stream: 4 per entry and per column pointer. */
std::uint64_t
streamBytes(const SliceStream &stream)
{
    return (stream.entries.size() + stream.col_ptr.size()) *
        sizeof(std::uint32_t);
}

/**
 * The zero-run walk of §III-B over column @p j of PE slice @p slice:
 * fn(local_row, entry) for every stored entry, padding included. The
 * PE's address-accumulation register restarts per column.
 */
template <typename Fn>
void
walkColumn(const compress::PeSlice &slice, std::size_t j, const Fn &fn)
{
    const auto &entries = slice.entries();
    const auto &col_ptr = slice.colPtr();
    std::int64_t row = -1;
    for (std::uint32_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e) {
        row += entries[e].zero_count + 1;
        fn(static_cast<std::uint32_t>(row), entries[e]);
    }
}

/**
 * Build the host stream of @p tile: per column, every slice's
 * padding-stripped entries resolved to tile rows (local * N + k,
 * §III-B), packed, sorted and appended to the row block that owns
 * them. A counting pass first reserves every block exactly, so the
 * build allocates nothing it later frees. Every entry is checked so
 * the loops can index without bounds checks.
 */
std::vector<SliceStream>
buildRowBlocks(const Tile &tile, unsigned n_pe, unsigned row_blocks,
               std::size_t lut_size, std::uint64_t real_entries)
{
    const std::size_t span = tile.row_end - tile.row_begin;
    const std::size_t cols = tile.col_end - tile.col_begin;
    const std::vector<std::size_t> bounds =
        rowBlockBounds(span, row_blocks);
    const auto forEachEntry = [&](std::size_t j, const auto &fn) {
        for (unsigned k = 0; k < n_pe; ++k) {
            walkColumn(tile.storage.pe(k), j,
                       [&](std::uint32_t local,
                           const compress::CscEntry &entry) {
                if (entry.weight_index == 0)
                    return; // padding carries no value
                const std::uint64_t row =
                    std::uint64_t{local} * n_pe + k;
                panic_if(entry.weight_index >= lut_size,
                         "codebook index %u out of %zu",
                         entry.weight_index, lut_size);
                panic_if(row >= span || row >= kEntryRowLimit,
                         "entry row %llu outside the tile's %zu rows",
                         static_cast<unsigned long long>(row), span);
                fn(packEntry(static_cast<std::uint32_t>(row),
                             entry.weight_index));
            });
        }
    };

    std::vector<std::uint64_t> counts(row_blocks, 0);
    if (row_blocks == 1)
        counts[0] = real_entries;
    else
        for (std::size_t j = 0; j < cols; ++j)
            forEachEntry(j, [&](std::uint32_t e) {
                // The last bound <= the row is the owning block's.
                ++counts[std::upper_bound(bounds.begin(), bounds.end(),
                                          entryRow(e)) -
                         bounds.begin() - 1];
            });

    std::vector<SliceStream> blocks(row_blocks);
    for (unsigned t = 0; t < row_blocks; ++t) {
        blocks[t].entries.reserve(counts[t]);
        blocks[t].col_ptr.reserve(cols + 1);
        blocks[t].col_ptr.push_back(0);
    }
    std::vector<std::uint32_t> column;
    for (std::size_t j = 0; j < cols; ++j) {
        column.clear();
        forEachEntry(j, [&](std::uint32_t e) { column.push_back(e); });
        std::sort(column.begin(), column.end());
        std::size_t t = 0;
        for (const std::uint32_t e : column) {
            while (entryRow(e) >= bounds[t + 1])
                ++t;
            blocks[t].entries.push_back(e);
        }
        for (SliceStream &block : blocks)
            block.col_ptr.push_back(
                static_cast<std::uint32_t>(block.entries.size()));
    }
    return blocks;
}

} // namespace

const char *
residencyName(Residency)
{
    return "indexed";
}

std::vector<std::size_t>
rowBlockBounds(std::size_t span, unsigned blocks)
{
    panic_if(blocks == 0, "a host stream needs at least one row block");
    std::vector<std::size_t> bounds(blocks + 1, span);
    for (unsigned t = 0; t < blocks; ++t)
        bounds[t] = span * t / blocks / kRowBlockAlign * kRowBlockAlign;
    return bounds;
}

std::vector<SimEntry>
decodeSimStream(const compress::PeSlice &slice,
                const std::vector<std::int64_t> &raw_lut)
{
    std::vector<SimEntry> stream;
    stream.reserve(slice.totalEntries());
    for (std::size_t j = 0; j + 1 < slice.colPtr().size(); ++j) {
        walkColumn(slice, j, [&](std::uint32_t local,
                                 const compress::CscEntry &entry) {
            panic_if(entry.weight_index >= raw_lut.size(),
                     "codebook index %u out of %zu",
                     entry.weight_index, raw_lut.size());
            stream.push_back(SimEntry{
                local,
                static_cast<std::int32_t>(raw_lut[entry.weight_index]),
                entry.weight_index == 0});
        });
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
    layer.has_sim_stream = options.sim_stream;
    layer.row_blocks = options.host_stream ? options.row_blocks : 0;

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
            std::uint64_t real_entries = 0;
            for (unsigned k = 0; k < plan.n_pe; ++k) {
                const compress::PeSlice &pe = storage.pe(k);
                CompiledSlice &slice = compiled.slices[k];
                slice.local_rows = pe.localRows();
                if (options.sim_stream) {
                    slice.sim_entries = decodeSimStream(pe, raw_lut);
                    slice.sim_col_ptr = pe.colPtr();
                }
                compiled.total_entries += pe.totalEntries();
                real_entries += pe.totalEntries() - pe.paddingEntries();
                layer.stripped_padding += pe.paddingEntries();
            }
            layer.real_entries += real_entries;
            if (options.host_stream) {
                compiled.blocks =
                    buildRowBlocks(tile, plan.n_pe, options.row_blocks,
                                   raw_lut.size(), real_entries);
                for (const SliceStream &block : compiled.blocks)
                    layer.resident_bytes += streamBytes(block);
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
