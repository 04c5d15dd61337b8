/**
 * @file
 * The resident kernel format of the fast execution path: one 4-byte
 * (row, codebook index) entry per nonzero, walked in place.
 *
 * The interleaved CSC image the hardware walks (4-bit codebook index +
 * 4-bit zero run, §III-B) carries two indirections: the zero run that
 * locates the row and the table lookup that expands the weight. The
 * PE resolves both per entry per input vector. A software engine
 * hoists the zero-run decode out of the MAC loop (the authors' 2023
 * retrospective makes exactly this point) and keeps the lookup, as
 * the PE does (§IV: the 4-bit index is "expanded to a 16-bit
 * fixed-point number via a table look up"). compile() lowers a
 * LayerPlan once into one host stream per tile:
 *
 *  - zero-run deltas are resolved to tile rows, local * N + k for PE
 *    k's local row (§III-B),
 *  - padding entries (codebook index 0) are stripped — they exist only
 *    to keep the 4-bit run field in range and always contribute zero,
 *  - each remaining entry is one uint32_t, row << 8 | codebook index,
 *    and the layer keeps its codebook's Codebook::rawValues() as the
 *    lookup table the loops expand the index through,
 *  - every PE slice's entries of a column are merged and sorted by row
 *    (the row is the high field, so sorting entries sorts rows).
 *
 * Every inner loop (see core/kernel/variant.hh) reads
 * (e >> 8, lut[e & 0xff]) from that stream, so the products, and
 * hence the outputs, are bit-exact with the interpreter by
 * construction.
 *
 * The stream is cut into CompileOptions::row_blocks contiguous row
 * blocks, one per worker thread the stack is compiled for (see
 * rowBlockBounds()). A serial run walks the blocks in order — one
 * block is the whole merged stream — and a worker pool hands one block
 * to each worker, which then writes only its own contiguous
 * accumulator rows. EIE's i mod N row split exists because each PE
 * owns a register file (§III-C); a host thread owns no such thing, and
 * interleaved rows would put every worker on every accumulator cache
 * line.
 *
 * The tile grid of the plan (row batches x column passes) is preserved
 * so the execution semantics — per-batch accumulator initialisation,
 * accumulation across passes, non-linearity on drain — stay bit-exact
 * with FunctionalModel::run.
 */

#ifndef EIE_CORE_KERNEL_COMPILED_LAYER_HH
#define EIE_CORE_KERNEL_COMPILED_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compress/interleaved.hh"
#include "core/config.hh"
#include "core/plan.hh"

namespace eie::core::kernel {

/**
 * The resident weight form. There is one; the enumerator survives only
 * because the perfbench/ harness stamps residencyName() into its
 * reports (perfbench-only: remove with the next benchmark change).
 */
enum class Residency
{
    Indexed, ///< (row, codebook index) entries + the layer's table
};

/** Registry name of @p residency ("indexed"). perfbench-only. */
const char *residencyName(Residency residency);

/** Options for CompiledLayer::compile. */
struct CompileOptions
{
    /** Build the padding-stripped streams runBatch() consumes. On by
     *  default; the simulator-only path turns it off to halve compile
     *  work and resident entry storage. */
    bool host_stream = true;

    /** Contiguous row blocks each tile's host stream is cut into: the
     *  worker threads the stack is compiled for
     *  (engine::compiledStackOptions). 1 keeps the whole merged stream
     *  in one block. */
    unsigned row_blocks = 1;

    /** Also build the padding-preserving per-PE SimEntry streams the
     *  cycle-accurate path consumes. Off by default: the host kernel
     *  path does not pay for timing-model state. */
    bool sim_stream = false;
};

/** Bits of a stream entry below its row: the codebook index field. */
constexpr unsigned kEntryIndexBits = 8;

/** Rows a stream entry can address (its 24-bit row field). */
constexpr std::uint32_t kEntryRowLimit = 1u << (32 - kEntryIndexBits);

/** Pack one stream entry: @p row in the high 24 bits, codebook
 *  @p index in the low 8. */
constexpr std::uint32_t
packEntry(std::uint32_t row, std::uint32_t index)
{
    return row << kEntryIndexBits | index;
}

/** Output row of a stream entry, relative to the tile's row batch. */
constexpr std::uint32_t
entryRow(std::uint32_t entry)
{
    return entry >> kEntryIndexBits;
}

/** Codebook index of a stream entry (an index into CompiledLayer::lut). */
constexpr std::uint32_t
entryIndex(std::uint32_t entry)
{
    return entry & ((1u << kEntryIndexBits) - 1);
}

/**
 * One row block of a tile's host stream: per nonzero one
 * packEntry(row, index), rows ascending within each column, with
 * per-column extents in col_ptr.
 */
struct SliceStream
{
    /** row << 8 | codebook index per entry; the row is relative to
     *  the tile's row batch (row_begin). */
    std::vector<std::uint32_t> entries;
    /** Per-column extents: pass cols + 1 offsets into entries. */
    std::vector<std::uint32_t> col_ptr;

    std::size_t entryCount() const { return entries.size(); }
};

/** Rows a block boundary is a multiple of: 16 rows of a frame-major
 *  accumulator buffer are whole 64-byte lines at any batch, so
 *  neighbouring blocks share at most the line a boundary falls in. */
constexpr std::size_t kRowBlockAlign = 16;

/**
 * The @p blocks + 1 tile-relative row bounds a tile of @p span rows is
 * cut at: bound t = span * t / blocks rounded down to a multiple of
 * kRowBlockAlign, and the last bound is @p span. Bounds ascend; a tile
 * of fewer than kRowBlockAlign * blocks rows has empty blocks.
 */
std::vector<std::size_t> rowBlockBounds(std::size_t span,
                                        unsigned blocks);

/**
 * One pre-decoded entry of the cycle simulator's stream. Unlike the
 * host streams, padding entries are preserved (they occupy real SRAM
 * bandwidth and pipeline slots, which the timing model must charge)
 * and rows are PE-local accumulator indices, matching the per-PE
 * register files the simulator models.
 */
struct SimEntry
{
    std::uint32_t local_row = 0;  ///< PE-local accumulator index
    std::int32_t weight_raw = 0;  ///< codebook-decoded fixed point
    bool is_padding = false;      ///< codebook index 0 entry
};

/** One PE's share of a tile, as the cycle simulator walks it. */
struct CompiledSlice
{
    /** @name Simulator stream (only with CompileOptions::sim_stream).
     *  Entry-for-entry image of the interleaved CSC walk — padding
     *  preserved, zero runs resolved, weights decoded — so the
     *  cycle-accurate PE consumes it with identical timing but
     *  without per-entry decode work. */
    ///@{
    std::vector<SimEntry> sim_entries;
    std::vector<std::uint32_t> sim_col_ptr; ///< cols+1, incl. padding
    ///@}

    /** Local output rows this PE owns in the tile's row batch. */
    std::uint32_t local_rows = 0;
};

/** One row-batch x column-pass tile in kernel format. */
struct CompiledTile
{
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
    std::size_t col_begin = 0;
    std::size_t col_end = 0;
    std::vector<CompiledSlice> slices; ///< one per PE

    /** The host stream (only with CompileOptions::host_stream): every
     *  PE slice merged, rows sorted per column, cut at
     *  rowBlockBounds(row span, row_blocks). Entries of a column always
     *  hit distinct accumulator rows — CSC stores one entry per
     *  (row, col) — so neither the merge nor the cut can change any
     *  accumulator's saturating-MAC sequence. */
    std::vector<SliceStream> blocks;

    /** Stored entries (incl. padding) over all slices — sizes the
     *  simulator's per-pass cycle budget. */
    std::uint64_t total_entries = 0;
};

/** A layer lowered to the kernel format, ready for runBatch(). */
struct CompiledLayer
{
    std::string name;
    std::size_t input_size = 0;
    std::size_t output_size = 0;
    nn::Nonlinearity nonlin = nn::Nonlinearity::ReLU;
    unsigned n_pe = 0;

    /** Datapath formats captured at compile time (from EieConfig). */
    FixedFormat act_format;
    FixedFormat weight_format;

    /** tiles[batch][pass], mirroring LayerPlan::tiles. */
    std::vector<std::vector<CompiledTile>> tiles;

    /** Real (non-padding) entries kept by the compile. */
    std::uint64_t real_entries = 0;
    /** Padding entries stripped by the compile. */
    std::uint64_t stripped_padding = 0;

    /** Tiles carry the host stream (CompileOptions::host_stream). */
    bool has_host_stream = false;
    /** Slices carry the simulator stream (CompileOptions::sim_stream). */
    bool has_sim_stream = false;
    /** Row blocks per tile (CompileOptions::row_blocks); 0 without the
     *  host stream. */
    unsigned row_blocks = 0;

    /** The weight lookup table every stream entry indexes:
     *  Codebook::rawValues() of the codebook all tiles share
     *  (weight_format raw). */
    std::vector<std::int64_t> lut;

    /** Resident bytes of the host form: 4 per stream entry and per
     *  column pointer over every row block, plus the table. */
    std::uint64_t resident_bytes = 0;

    /** Always Residency::Indexed. perfbench-only. */
    Residency residency = Residency::Indexed;

    /** resident_bytes under its old name. perfbench-only. */
    std::uint64_t residentStreamBytes() const { return resident_bytes; }

    /**
     * Lower @p plan for execution on a machine with @p config's
     * datapath formats. The plan must have been compiled for the same
     * PE count.
     */
    static CompiledLayer compile(const LayerPlan &plan,
                                 const EieConfig &config,
                                 const CompileOptions &options = {});
};

/**
 * Decode one PE slice into its simulator stream: zero runs resolved to
 * PE-local rows, weights decoded through @p raw_lut, padding entries
 * preserved in place. Shared by compile() and the legacy
 * Pe::loadTile(PeSlice) path so the two streams cannot diverge.
 */
std::vector<SimEntry>
decodeSimStream(const compress::PeSlice &slice,
                const std::vector<std::int64_t> &raw_lut);

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_COMPILED_LAYER_HH
