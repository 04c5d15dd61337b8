#include "compress/interleaved.hh"

#include <algorithm>

#include "common/bits.hh"

namespace eie::compress {

std::vector<DecodedEntry>
PeSlice::decodeColumn(std::size_t j) const
{
    panic_if(j + 1 >= col_ptr_.size(), "column %zu out of %zu", j,
             col_ptr_.size() - 1);
    std::vector<DecodedEntry> decoded;
    std::int64_t pos = -1;
    for (std::uint32_t e = col_ptr_[j]; e < col_ptr_[j + 1]; ++e) {
        const CscEntry &entry = entries_[e];
        pos += entry.zero_count + 1;
        DecodedEntry d;
        d.local_row = static_cast<std::uint32_t>(pos);
        d.weight_index = entry.weight_index;
        d.is_padding = entry.weight_index == 0;
        decoded.push_back(d);
    }
    return decoded;
}

PeSlice
PeSlice::fromParts(std::vector<CscEntry> entries,
                   std::vector<std::uint32_t> col_ptr,
                   std::uint32_t local_rows)
{
    panic_if(col_ptr.empty() || col_ptr.front() != 0 ||
             col_ptr.back() != entries.size(),
             "column pointers inconsistent with the entry stream");
    for (std::size_t j = 1; j < col_ptr.size(); ++j)
        panic_if(col_ptr[j] < col_ptr[j - 1],
                 "column pointers must be non-decreasing");

    PeSlice slice;
    slice.entries_ = std::move(entries);
    slice.col_ptr_ = std::move(col_ptr);
    slice.local_rows_ = local_rows;
    slice.padding_entries_ = 0;
    for (const CscEntry &e : slice.entries_)
        if (e.weight_index == 0)
            ++slice.padding_entries_;
    return slice;
}

std::vector<std::uint64_t>
PeSlice::spmatWords() const
{
    std::vector<std::uint64_t> words(divCeil(entries_.size(), 8), 0);
    for (std::size_t e = 0; e < entries_.size(); ++e) {
        const std::uint64_t byte =
            (static_cast<std::uint64_t>(entries_[e].weight_index) << 4) |
            entries_[e].zero_count;
        words[e / 8] |= byte << (8 * (e % 8));
    }
    return words;
}

InterleavedCsc::InterleavedCsc(std::size_t rows, std::size_t cols,
                               const InterleaveOptions &opts,
                               Codebook codebook)
    : opts_(opts), rows_(rows), cols_(cols),
      codebook_(std::move(codebook)), slices_(opts.n_pe)
{
    fatal_if(opts_.n_pe == 0, "need at least one PE");
    fatal_if(opts_.index_bits == 0 || opts_.index_bits > 8,
             "unsupported zero-count width %u", opts_.index_bits);
    fatal_if(codebook_.size() > 16,
             "codebook has %zu entries; the 4-bit weight-index field "
             "holds at most 16", codebook_.size());
}

InterleavedCsc
InterleavedCsc::fromParts(std::size_t rows, std::size_t cols,
                          const InterleaveOptions &opts,
                          Codebook codebook,
                          std::vector<PeSlice> slices)
{
    InterleavedCsc csc(rows, cols, opts, std::move(codebook));
    fatal_if(slices.size() != opts.n_pe,
             "expected %u PE slices, got %zu", opts.n_pe,
             slices.size());
    for (unsigned k = 0; k < opts.n_pe; ++k)
        fatal_if(slices[k].colPtr().size() != cols + 1,
                 "PE %u has %zu column pointers, expected %zu", k,
                 slices[k].colPtr().size(), cols + 1);
    csc.slices_ = std::move(slices);
    return csc;
}

InterleavedCsc::InterleavedCsc(const nn::SparseMatrix &weights,
                               const Codebook &codebook,
                               const InterleaveOptions &opts)
    : InterleavedCsc(weights.rows(), weights.cols(), opts, codebook)
{

    const auto max_run =
        static_cast<std::uint32_t>(mask(opts_.index_bits));
    const unsigned n_pe = opts_.n_pe;

    for (unsigned k = 0; k < n_pe; ++k) {
        PeSlice &slice = slices_[k];
        // PE k owns rows k, k+N, ... : ceil((rows - k) / N) of them.
        slice.local_rows_ = rows_ > k
            ? static_cast<std::uint32_t>((rows_ - k + n_pe - 1) / n_pe)
            : 0;
        slice.col_ptr_.reserve(cols_ + 1);
        slice.col_ptr_.push_back(0);
    }

    for (std::size_t j = 0; j < cols_; ++j) {
        // One pass over the column, dispatching entries to their PE.
        // prev_pos[k] = local position of PE k's last emitted entry.
        std::vector<std::int64_t> prev_pos(n_pe, -1);
        for (const auto &e : weights.column(j)) {
            const unsigned k = e.row % n_pe;
            const auto local = static_cast<std::int64_t>(e.row / n_pe);
            PeSlice &slice = slices_[k];

            // Insert padding entries while the zero run exceeds the
            // encodable maximum.
            while (local - prev_pos[k] - 1 >
                   static_cast<std::int64_t>(max_run)) {
                slice.entries_.push_back(
                    {0, static_cast<std::uint8_t>(max_run)});
                ++slice.padding_entries_;
                prev_pos[k] += max_run + 1;
            }
            const auto run = static_cast<std::uint8_t>(
                local - prev_pos[k] - 1);
            slice.entries_.push_back({codebook_.encode(e.value), run});
            prev_pos[k] = local;
        }
        for (unsigned k = 0; k < n_pe; ++k)
            slices_[k].col_ptr_.push_back(
                static_cast<std::uint32_t>(slices_[k].entries_.size()));
    }

}

std::uint64_t
InterleavedCsc::totalEntries() const
{
    std::uint64_t total = 0;
    for (const PeSlice &slice : slices_)
        total += slice.totalEntries();
    return total;
}

std::uint64_t
InterleavedCsc::paddingEntries() const
{
    std::uint64_t total = 0;
    for (const PeSlice &slice : slices_)
        total += slice.paddingEntries();
    return total;
}

std::uint64_t
InterleavedCsc::realEntries() const
{
    return totalEntries() - paddingEntries();
}

double
InterleavedCsc::realWorkRatio() const
{
    const std::uint64_t total = totalEntries();
    return total == 0 ? 1.0
        : static_cast<double>(realEntries()) / static_cast<double>(total);
}

std::uint64_t
InterleavedCsc::spmatBits() const
{
    return totalEntries() * 8;
}

std::uint64_t
InterleavedCsc::pointerBits() const
{
    return static_cast<std::uint64_t>(opts_.n_pe) * (cols_ + 1) * 16;
}

std::uint64_t
InterleavedCsc::codebookBits() const
{
    return codebook_.size() * 16;
}

nn::SparseMatrix
InterleavedCsc::decode() const
{
    nn::SparseMatrix result(rows_, cols_);
    for (std::size_t j = 0; j < cols_; ++j) {
        // Merge the per-PE decoded entries in global row order.
        std::vector<std::pair<std::uint32_t, float>> merged;
        for (unsigned k = 0; k < opts_.n_pe; ++k) {
            for (const DecodedEntry &d : slices_[k].decodeColumn(j)) {
                if (d.is_padding)
                    continue;
                const std::uint32_t row = d.local_row * opts_.n_pe + k;
                merged.emplace_back(row,
                                    codebook_.decode(d.weight_index));
            }
        }
        std::sort(merged.begin(), merged.end());
        for (const auto &[row, value] : merged)
            result.insert(row, j, value);
    }
    return result;
}

} // namespace eie::compress
