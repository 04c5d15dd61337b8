/**
 * @file
 * The interleaved, relative-indexed, indirect-weighted CSC format of
 * §III-B/III-C and Figure 3 — the exact storage the EIE PEs walk.
 *
 * Row interleaving: with N PEs, PE k owns all rows i with
 * i mod N == k. Each PE stores its slice of every column as a stream
 * of (weight_index, zero_count) entries, 4+4 bits each:
 *
 *  - weight_index: 4-bit index into the shared codebook (index 0 is
 *    the pinned zero used for padding),
 *  - zero_count: number of zeros (in the PE's local row order)
 *    between the previous entry and this one.
 *
 * If more than 15 zeros precede a non-zero, padding entries
 * (index 0, zero_count 15) are inserted (§III-B). Padding entries are
 * real work: they occupy SRAM bandwidth and pipeline slots, which is
 * what Figure 12 measures.
 *
 * A per-PE pointer array p (16-bit in hardware) delimits the entry
 * ranges of each column; column j of a PE spans entries
 * [p[j], p[j+1]).
 */

#ifndef EIE_COMPRESS_INTERLEAVED_HH
#define EIE_COMPRESS_INTERLEAVED_HH

#include <cstdint>
#include <vector>

#include "compress/codebook.hh"
#include "nn/sparse.hh"

namespace eie::compress {

/** One stored (v, z) entry: 4-bit codebook index + 4-bit zero run. */
struct CscEntry
{
    std::uint8_t weight_index = 0; ///< 0 = padding zero
    std::uint8_t zero_count = 0;   ///< zeros preceding this entry

    bool
    operator==(const CscEntry &other) const
    {
        return weight_index == other.weight_index &&
            zero_count == other.zero_count;
    }
};

/** A decoded entry: local row within the PE plus codebook index. */
struct DecodedEntry
{
    std::uint32_t local_row = 0;
    std::uint8_t weight_index = 0;
    bool is_padding = false;
};

/** One PE's share of the interleaved matrix. */
class PeSlice
{
  public:
    PeSlice() = default;

    /**
     * Reassemble a slice from stored parts (model deserialisation).
     * Padding statistics are recomputed from the entries.
     */
    static PeSlice fromParts(std::vector<CscEntry> entries,
                             std::vector<std::uint32_t> col_ptr,
                             std::uint32_t local_rows);

    /** All (v, z) entries, columns concatenated. */
    const std::vector<CscEntry> &entries() const { return entries_; }

    /** Column pointer array, length cols+1. */
    const std::vector<std::uint32_t> &colPtr() const { return col_ptr_; }

    /** Number of local rows this PE owns. */
    std::uint32_t localRows() const { return local_rows_; }

    /** Entries (including padding) in column @p j. */
    std::size_t
    columnEntries(std::size_t j) const
    {
        return col_ptr_[j + 1] - col_ptr_[j];
    }

    /** Total entries including padding. */
    std::size_t totalEntries() const { return entries_.size(); }

    /** Padding entries only. */
    std::uint64_t paddingEntries() const { return padding_entries_; }

    /** Decode column @p j back to (local row, weight index) entries. */
    std::vector<DecodedEntry> decodeColumn(std::size_t j) const;

    /**
     * Pack the entry stream into 64-bit SRAM words, 8 entries per
     * word, entry e at byte lane e%8, byte = (v << 4) | z. This is
     * the Spmat SRAM image (§IV "Sparse Matrix Read Unit").
     */
    std::vector<std::uint64_t> spmatWords() const;

  private:
    friend class InterleavedCsc;

    std::vector<CscEntry> entries_;
    std::vector<std::uint32_t> col_ptr_;
    std::uint32_t local_rows_ = 0;
    std::uint64_t padding_entries_ = 0;
};

/** Encoding options. */
struct InterleaveOptions
{
    /** Number of processing elements (rows interleave mod n_pe). */
    unsigned n_pe = 64;
    /** Width of the zero-count field in bits (4 in the paper). */
    unsigned index_bits = 4;
};

/** The full interleaved-CSC encoding of one weight matrix. */
class InterleavedCsc
{
  public:
    /**
     * Encode @p weights with shared values from @p codebook.
     * Non-zero weights are replaced by their nearest codebook entry.
     */
    InterleavedCsc(const nn::SparseMatrix &weights,
                   const Codebook &codebook,
                   const InterleaveOptions &opts);

    /** Reassemble from stored parts (model deserialisation). */
    static InterleavedCsc fromParts(std::size_t rows, std::size_t cols,
                                    const InterleaveOptions &opts,
                                    Codebook codebook,
                                    std::vector<PeSlice> slices);

    unsigned numPe() const { return opts_.n_pe; }
    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    const InterleaveOptions &options() const { return opts_; }

    /** PE @p k's slice. */
    const PeSlice &
    pe(unsigned k) const
    {
        panic_if(k >= slices_.size(), "PE %u out of %zu", k,
                 slices_.size());
        return slices_[k];
    }

    /** Total entries over all PEs, including padding. */
    std::uint64_t totalEntries() const;

    /** Real (non-padding) entries over all PEs (= nnz of the input). */
    std::uint64_t realEntries() const;

    /** Padding entries over all PEs. */
    std::uint64_t paddingEntries() const;

    /** realEntries / totalEntries — Figure 12's "real work" ratio. */
    double realWorkRatio() const;

    /** Spmat storage bits: 8 bits per entry. */
    std::uint64_t spmatBits() const;

    /** Pointer storage bits: 16 bits per pointer, (cols+1) per PE. */
    std::uint64_t pointerBits() const;

    /** Codebook storage bits: 16-bit value per table entry. */
    std::uint64_t codebookBits() const;

    /**
     * Reconstruct the sparse matrix with codebook-decoded values —
     * the round-trip verification path (padding entries vanish).
     */
    nn::SparseMatrix decode() const;

    /** The codebook used for encoding. */
    const Codebook &codebook() const { return codebook_; }

  private:
    InterleavedCsc(std::size_t rows, std::size_t cols,
                   const InterleaveOptions &opts, Codebook codebook);

    InterleaveOptions opts_;
    std::size_t rows_;
    std::size_t cols_;
    Codebook codebook_;
    std::vector<PeSlice> slices_;
};

} // namespace eie::compress

#endif // EIE_COMPRESS_INTERLEAVED_HH
