/**
 * @file
 * The pre-decoded kernel format of the fast execution path
 * (KernelStream v2).
 *
 * The interleaved CSC image the hardware walks (4-bit codebook index +
 * 4-bit zero run, §III-B) is deliberately indirect: it optimizes SRAM
 * bits, and the PE pays one decode per entry per input vector. A
 * software engine must hoist that indirection out of the MAC loop (the
 * authors' 2023 retrospective makes exactly this point), so compile()
 * lowers a LayerPlan once into flat structure-of-arrays streams per PE
 * slice — codebook-pre-expanded int32 weight values, batch-local
 * output rows and per-column extents in separate contiguous arrays:
 *
 *  - zero-run deltas are resolved to absolute rows,
 *  - padding entries (codebook index 0) are stripped — they exist only
 *    to keep the 4-bit run field in range and always contribute zero,
 *  - the 16-entry codebook is materialized through Codebook::rawValues()
 *    so every weight is already a raw fixed-point operand.
 *
 * The SoA split is what lets the "vector" kernel variant run a SIMD
 * saturating MAC over 32-bit lanes (weights stream through one array,
 * rows through another, nothing interleaved), and each tile optionally
 * carries a slice-fused single stream — all PE slices merged per
 * column, rows sorted — so a 1-thread run of any variant walks one
 * column extent instead of one per PE. See core/kernel/variant.hh for
 * the variant registry that picks the inner loop.
 *
 * The tile grid of the plan (row batches x column passes) is preserved
 * so the execution semantics — per-batch accumulator initialisation,
 * accumulation across passes, non-linearity on drain — stay bit-exact
 * with FunctionalModel::run. PE slices stay separate because PE k owns
 * output rows i mod N == k: executing slices on different threads is
 * race-free by construction.
 */

#ifndef EIE_CORE_KERNEL_COMPILED_LAYER_HH
#define EIE_CORE_KERNEL_COMPILED_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compress/interleaved.hh"
#include "core/config.hh"
#include "core/kernel/compressed_stream.hh"
#include "core/plan.hh"

namespace eie::core::kernel {

/**
 * Which form of a layer's weight streams stays resident after
 * compile:
 *
 *  - Decoded: the pre-decoded SoA arrays (today's fast path, ~12
 *    bytes per entry).
 *  - Compressed: the CompressedSliceStream per tile slice is the
 *    *only* resident form (~1-2 bytes per entry); every runBatch
 *    decodes each slice into scratch right before the variant's loop
 *    sweeps it. There is no PE-merged stream.
 *  - Auto: per layer, Compressed when the estimated decoded
 *    footprint exceeds kAutoResidencyCompressBytes (the decoded
 *    stack would spill the last-level cache anyway, so decode ALU
 *    trades against DRAM bandwidth), Decoded below it.
 */
enum class Residency
{
    Decoded,
    Compressed,
    Auto,
};

/** Auto residency keeps a layer decoded below this estimated decoded
 *  stream footprint and compresses it at or above (an LLC-scale
 *  threshold: in-cache layers never win by decoding on the fly). */
constexpr std::uint64_t kAutoResidencyCompressBytes = 8ull << 20;

/** Registry name of @p residency ("decoded", "compressed", "auto"). */
const char *residencyName(Residency residency);

/** Parse a residency name; fatal (listing the valid names) on an
 *  unknown one. */
Residency residencyFromName(const std::string &name);

/** Options for CompiledLayer::compile. */
struct CompileOptions
{
    /** Build the padding-stripped SoA streams runBatch() consumes. On
     *  by default; the simulator-only path turns it off to halve
     *  compile work and resident entry storage. */
    bool host_stream = true;

    /** Also build the per-tile slice-fused stream every decoded
     *  variant walks on 1-thread runs. Costs a second resident copy
     *  of the host entries; ignored without host_stream. */
    bool fused_stream = true;

    /** Also build the padding-preserving per-PE SimEntry streams the
     *  cycle-accurate path consumes. Off by default: the host kernel
     *  path does not pay for timing-model state. */
    bool sim_stream = false;

    /** Which stream form stays resident (see Residency). */
    Residency residency = Residency::Decoded;
};

/**
 * One flat SoA kernel stream (KernelStream v2): per entry a
 * destination row and a codebook-pre-expanded weight, in separate
 * contiguous arrays, with per-column extents in col_ptr. Used both
 * per PE slice (CompiledSlice::stream) and slice-fused per tile
 * (CompiledTile::fused).
 */
struct SliceStream
{
    /** Output row of each entry, relative to the tile's row batch
     *  (row_begin). */
    std::vector<std::uint32_t> rows;
    /** Codebook-decoded fixed-point weight of each entry
     *  (weight_format raw). */
    std::vector<std::int32_t> weights;
    /** Per-column extents: pass cols + 1 offsets into rows/weights. */
    std::vector<std::uint32_t> col_ptr;

    /**
     * Bandwidth-halved mirror of rows/weights for the batch-1
     * actsparse walk: entry e packed as (rows[e] << 16) | weights[e]
     * in 16 bits each. Built only when every row index and weight raw
     * of the stream fits (the paper's 16-bit formats always do);
     * empty otherwise. Same per-column extents (col_ptr).
     */
    std::vector<std::uint32_t> packed;

    std::size_t entryCount() const { return rows.size(); }
    bool hasPacked() const { return packed.size() == rows.size(); }

    /** Fill packed from rows/weights if they fit 16 bits each. */
    void buildPacked();
};

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

/** One PE's pre-decoded share of a tile. */
struct CompiledSlice
{
    /** The padding-stripped SoA host stream of this slice (empty
     *  under compressed residency — the compressed stream is the
     *  only resident form). */
    SliceStream stream;

    /** The compressed-resident form (Residency::Compressed only):
     *  4-bit codebook nibbles + Huffman row deltas, decoded per
     *  runBatch into scratch. */
    CompressedSliceStream compressed;

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

    /** All PE slices merged into one stream, entries row-sorted per
     *  column (only with CompileOptions::fused_stream). Entries of a
     *  column always hit distinct accumulator rows — PE k owns rows
     *  i mod N == k and CSC stores one entry per (row, col) — so the
     *  merge order cannot change any saturating-MAC sequence. */
    SliceStream fused;

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

    /** Slices carry the host SoA streams (CompileOptions::host_stream). */
    bool has_host_stream = false;
    /** Tiles carry the slice-fused stream (CompileOptions::fused_stream). */
    bool has_fused_stream = false;
    /** Slices carry the simulator stream (CompileOptions::sim_stream). */
    bool has_sim_stream = false;

    /** The resolved residency of this layer (never Auto); slices
     *  carry the compressed stream exactly when it is Compressed. */
    Residency residency = Residency::Decoded;

    /** Resident bytes of the decoded SoA forms (per-slice streams,
     *  packed mirrors, fused streams, column pointers); 0 under
     *  compressed residency. */
    std::uint64_t decoded_stream_bytes = 0;
    /** Resident bytes of the compressed streams; 0 under decoded
     *  residency. */
    std::uint64_t compressed_stream_bytes = 0;

    /** Stream bytes actually resident for this layer (the sum of
     *  whichever forms were kept). */
    std::uint64_t
    residentStreamBytes() const
    {
        return decoded_stream_bytes + compressed_stream_bytes;
    }

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
