#include "core/kernel/executor.hh"

#include <algorithm>

#include "common/fixed_point.hh"
#include "common/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EIE_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace eie::core::kernel {

namespace {

/**
 * Per-pass activation panel of the actsparse loop and of the vector
 * variant's row lanes, the batched form of the LNZD's (j, a_j)
 * broadcast, gathered once per tile instead of once per row block per
 * frame: the columns with a nonzero frame, in ascending order, each
 * with its (frame, value) pairs, frames ascending. Listed column k's
 * pairs occupy [begin[k], begin[k+1]), so a sweep never visits a zero
 * column and reads the pairs in order.
 */
struct ActivationPanel
{
    std::size_t columns = 0;          ///< listed columns
    std::vector<std::uint32_t> col;   ///< tile-relative listed column
    std::vector<std::uint32_t> begin; ///< columns + 1 pair offsets
    std::vector<std::uint32_t> frame; ///< frame index of each pair
    std::vector<std::int64_t> value;  ///< activation value of each pair

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t cols = col_end - col_begin;
        const std::size_t batch = inputs.size();
        col.resize(cols);
        begin.resize(cols + 1);
        frame.resize(cols * batch);
        value.resize(cols * batch);
        columns = 0;
        std::uint32_t n = 0;
        // Branch-free: each pair and column is written in place and kept
        // only if nonzero, so a zero (which the LNZD never broadcasts)
        // is overwritten by the next, and no activation pattern costs a
        // mispredicted branch.
        for (std::size_t j = 0; j < cols; ++j) {
            const std::uint32_t first = n;
            for (std::size_t b = 0; b < batch; ++b) {
                const std::int64_t a = inputs[b][col_begin + j];
                frame[n] = static_cast<std::uint32_t>(b);
                value[n] = a;
                n += a != 0;
            }
            col[columns] = static_cast<std::uint32_t>(j);
            begin[columns] = first;
            columns += n != first;
        }
        begin[columns] = n;
    }
};

/** Lanes of one vector-sweep block. The frame-lane sweep pads its
 *  dense panel and its accumulator rows to whole blocks, so every SIMD
 *  op of its sweep is unmasked; the row lanes take a column's entries
 *  one block at a time. */
constexpr std::size_t kLaneBlock = 8;

/** The vector variant's lane stride: @p batch rounded up to a whole
 *  number of lane blocks. */
constexpr std::size_t
laneStride(std::size_t batch)
{
    return (batch + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
}

/**
 * Per-pass activation panel of the frame-lane sweep: every frame of
 * every column, transposed to column-major int32 at the lane stride so
 * the sweep streams whole lane blocks. Zero activations stay in place
 * — their product is zero and sat(acc + 0) == acc, so the dense sweep
 * is bit-exact with the sparse skip — and the pad lanes past the batch
 * hold zero, so a pad accumulator stays zero and is never drained.
 * Columns with no active frame at all are flagged and skipped whole.
 */
struct DensePanel
{
    std::size_t stride = 0;           ///< lanes per column, laneStride()
    std::vector<std::int32_t> value;  ///< cols x stride, column-major
    std::vector<std::uint8_t> active; ///< any non-zero frame in column

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t cols = col_end - col_begin;
        const std::size_t batch = inputs.size();
        value.assign(cols * stride, 0);
        active.assign(cols, 0);
        for (std::size_t j = 0; j < cols; ++j) {
            const std::size_t base = j * stride;
            std::uint8_t any = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                // In act_format range by the withinActFormat() gate
                // in runBatch(), so the cast is value-preserving.
                const std::int64_t a = inputs[b][col_begin + j];
                value[base + b] = static_cast<std::int32_t>(a);
                any |= a != 0;
            }
            active[j] = any;
        }
    }
};

// ---------------------------------------------------- vector loops

/** The saturating MAC every vector lane runs:
 *  acc = clamp(acc + ((lut[index] * act) >> shift), lo, hi). All
 *  intermediates fit int32 lanes by vectorEligible(); C++20
 *  guarantees the arithmetic right shift on negatives. */
struct LaneMac
{
    /** The layer's table, narrowed to int32 and zero-padded to at least
     *  kRowLaneTableEntries, so the row lanes load it as two whole
     *  registers. */
    const std::int32_t *lut;
    int shift;
    std::int32_t lo;
    std::int32_t hi;
};

/**
 * The vector variant's frame-lane sweep of one row block over the
 * dense panel, for two or more frames: every entry of every active
 * column runs the LaneMac on all panel.stride lanes of its accumulator
 * row (rows are panel.stride int32 apart). Lanes are independent
 * frames, and each accumulator still sees its column-ascending MAC
 * sequence.
 */
using VectorSweepFn = void (*)(const SliceStream &block,
                               const DensePanel &panel,
                               const LaneMac &mac, std::int32_t *acc);

/**
 * The vector variant's loop for one frame, lanes as PEs: the LNZD
 * broadcasts (j, a_j) of each listed column to every lane, and each
 * lane takes one entry of column j, as each PE takes its own rows'
 * entries (§III-B). A group of lanes splits row from codebook index,
 * expands the index through the table held in two registers, runs the
 * LaneMac on the gathered int32 accumulators (stride 1) and writes
 * each lane back with a scalar store; a column's last group loads only
 * the entries it has left. CSC stores at most one entry per (row,
 * column), so the lanes of a group hit distinct rows and each
 * accumulator still sees its columns ascending, the oracle's order.
 */
using RowLaneFn = void (*)(const SliceStream &block,
                           const ActivationPanel &panel,
                           const LaneMac &mac, std::int32_t *acc);

#if defined(EIE_KERNEL_X86)

/** One unmasked 8-lane LaneMac on @p acc with activations @p va. */
__attribute__((target("avx2"))) inline void
mac8(std::int32_t *acc, __m256i va, __m256i vw, __m128i vshift,
     __m256i vlo, __m256i vhi)
{
    __m256i *row = reinterpret_cast<__m256i *>(acc);
    const __m256i v = _mm256_add_epi32(
        _mm256_loadu_si256(row),
        _mm256_sra_epi32(_mm256_mullo_epi32(vw, va), vshift));
    _mm256_storeu_si256(row, _mm256_min_epi32(_mm256_max_epi32(v, vlo),
                                              vhi));
}

/** The AVX2 frame-lane sweep: 8-lane blocks. At stride 8 (batches
 *  2-8) each active column's activations load once into one register:
 *  16-25% faster than the block loop on NT-We at batch 5 (4-vCPU
 *  Xeon). */
__attribute__((target("avx2"))) void
sweepAvx2(const SliceStream &block, const DensePanel &panel,
          const LaneMac &mac, std::int32_t *acc)
{
    const std::size_t stride = panel.stride;
    const std::uint32_t *entries = block.entries.data();
    const std::size_t cols = block.col_ptr.size() - 1;
    const __m128i vshift = _mm_cvtsi32_si128(mac.shift);
    const __m256i vlo = _mm256_set1_epi32(mac.lo);
    const __m256i vhi = _mm256_set1_epi32(mac.hi);
    for (std::size_t j = 0; j < cols; ++j) {
        if (!panel.active[j])
            continue;
        const std::int32_t *act = &panel.value[j * stride];
        const std::uint32_t e_begin = block.col_ptr[j];
        const std::uint32_t e_end = block.col_ptr[j + 1];
        if (stride == kLaneBlock) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(act));
            for (std::uint32_t e = e_begin; e < e_end; ++e) {
                const std::uint32_t entry = entries[e];
                mac8(acc + static_cast<std::size_t>(entryRow(entry)) *
                               kLaneBlock,
                     va, _mm256_set1_epi32(mac.lut[entryIndex(entry)]),
                     vshift, vlo, vhi);
            }
            continue;
        }
        for (std::uint32_t e = e_begin; e < e_end; ++e) {
            const std::uint32_t entry = entries[e];
            const __m256i vw =
                _mm256_set1_epi32(mac.lut[entryIndex(entry)]);
            std::int32_t *acc_row =
                acc + static_cast<std::size_t>(entryRow(entry)) * stride;
            for (std::size_t l = 0; l < stride; l += kLaneBlock)
                mac8(acc_row + l,
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i *>(act + l)),
                     vw, vshift, vlo, vhi);
        }
    }
}

/**
 * One group of row lanes: the LaneMac of the entries in @p entry's
 * @p live lanes (the first @p n, 1-8; the others hold 0) against the
 * broadcast activation @p va. The index's bits 0-2 pick an entry of
 * each table half, and its bit 3 (shifted up to the sign bit the blend
 * reads) picks the half.
 */
__attribute__((target("avx2"))) inline void
rowGroup(std::int32_t *acc, __m256i entry, __m256i live, unsigned n,
         __m256i va, __m256i lut_lo, __m256i lut_hi, __m128i vshift,
         __m256i vlo, __m256i vhi)
{
    const __m256i rows = _mm256_srli_epi32(entry, kEntryIndexBits);
    const __m256i w = _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(lut_lo, entry)),
        _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(lut_hi, entry)),
        _mm256_castsi256_ps(_mm256_slli_epi32(entry, 31 - 3))));
    const __m256i sum = _mm256_add_epi32(
        _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), acc, rows,
                                    live, sizeof(std::int32_t)),
        _mm256_sra_epi32(_mm256_mullo_epi32(w, va), vshift));
    alignas(32) std::int32_t value[kLaneBlock];
    alignas(32) std::uint32_t row[kLaneBlock];
    _mm256_store_si256(reinterpret_cast<__m256i *>(value),
                       _mm256_min_epi32(_mm256_max_epi32(sum, vlo), vhi));
    _mm256_store_si256(reinterpret_cast<__m256i *>(row), rows);
    for (unsigned l = 0; l < n; ++l)
        acc[row[l]] = value[l];
}

/** Listed columns the row lanes look ahead to prefetch the first
 *  cache line of: 1.13-1.15x on the L3-resident Alex-6 and VGG-6 at
 *  batch 1, and neutral on the L2-resident NeuralTalk layers (4-vCPU
 *  Xeon). The LNZD list says where the walk jumps next. */
constexpr std::size_t kPrefetchAhead = 2;

/** The AVX2 row lanes: 8 entries of a column per group. */
__attribute__((target("avx2"))) void
rowLanesAvx2(const SliceStream &block, const ActivationPanel &panel,
             const LaneMac &mac, std::int32_t *acc)
{
    const std::uint32_t *entries = block.entries.data();
    const std::uint32_t *col_ptr = block.col_ptr.data();
    const __m256i lut_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(mac.lut));
    const __m256i lut_hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(mac.lut + kLaneBlock));
    const __m128i vshift = _mm_cvtsi32_si128(mac.shift);
    const __m256i vlo = _mm256_set1_epi32(mac.lo);
    const __m256i vhi = _mm256_set1_epi32(mac.hi);
    const __m256i all = _mm256_set1_epi32(-1);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (std::size_t k = 0; k < panel.columns; ++k) {
        const std::uint32_t j = panel.col[k];
        if (k + kPrefetchAhead < panel.columns)
            _mm_prefetch(reinterpret_cast<const char *>(
                             entries + col_ptr[panel.col[k + kPrefetchAhead]]),
                         _MM_HINT_T0);
        // In act_format range by the withinActFormat() gate in
        // runBatch(), so the cast is value-preserving.
        const __m256i va = _mm256_set1_epi32(
            static_cast<std::int32_t>(panel.value[panel.begin[k]]));
        std::uint32_t e = col_ptr[j];
        const std::uint32_t e_end = col_ptr[j + 1];
        for (; e + kLaneBlock <= e_end; e += kLaneBlock)
            rowGroup(acc,
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i *>(entries + e)),
                     all, kLaneBlock, va, lut_lo, lut_hi, vshift, vlo,
                     vhi);
        if (e < e_end) {
            const unsigned n = e_end - e;
            const __m256i live =
                _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane);
            rowGroup(acc,
                     _mm256_maskload_epi32(
                         reinterpret_cast<const int *>(entries + e), live),
                     live, n, va, lut_lo, lut_hi, vshift, vlo, vhi);
        }
    }
}

#endif // EIE_KERNEL_X86

/** The vector variant's loops on one CPU: the frame-lane sweep for two
 *  or more frames and the row lanes for one. */
struct VectorLoops
{
    VectorSweepFn frames = nullptr;
    RowLaneFn rows = nullptr;
};

/** The vector loops this CPU runs: the AVX2 pair, or none on a CPU
 *  without AVX2, where runBatch runs the vector variant's calls on the
 *  actsparse loop. */
VectorLoops
dispatchVectorLoops()
{
#if defined(EIE_KERNEL_X86)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return {sweepAvx2, rowLanesAvx2};
#endif
    return {};
}

/** Runtime ISA dispatch, decided once per process. */
const VectorLoops g_vector = dispatchVectorLoops();

// ------------------------------------------------- the scalar loop

/** The saturating MAC of the actsparse loop, macFixed()'s arithmetic
 *  in int64 for every format: acc = clamp(acc + align(w * act), lo,
 *  hi), with the alignment and the rails hoisted per call. A left
 *  alignment is folded into the table (executeSparse), so each MAC is
 *  one multiply and one right shift, and the clamp's conditional moves
 *  keep a saturating accumulator off the branch predictor. */
struct ScalarMac
{
    int shift; ///< right shift of each product, >= 0
    std::int64_t lo;
    std::int64_t hi;

    std::int64_t
    operator()(std::int64_t acc, std::int64_t w, std::int64_t a) const
    {
        std::int64_t sum = acc + ((w * a) >> shift);
        sum = sum > hi ? hi : sum;
        return sum < lo ? lo : sum;
    }
};

/**
 * Sweep one stream over the column panel (the actsparse variant's
 * loop): every entry of a column with a nonzero frame runs the
 * ScalarMac on each of that column's active frames, and a column
 * whose frames are all zero is never visited. Each accumulator sees
 * the columns ascending with at most one entry per column, the
 * oracle's saturating-MAC order. @p mac comes by value: a copy the
 * accumulator stores cannot alias stays in registers.
 */
void
runStreamActSparse(const SliceStream &stream, const std::int64_t *lut,
                   const ActivationPanel &panel, std::size_t batch,
                   std::int64_t *acc, ScalarMac mac)
{
    const std::uint32_t *entries = stream.entries.data();
    const std::uint32_t *col_ptr = stream.col_ptr.data();
    const std::uint32_t *frames = panel.frame.data();
    const std::int64_t *values = panel.value.data();
    const std::size_t columns = panel.columns;
    for (std::size_t k = 0; k < columns; ++k) {
        const std::uint32_t j = panel.col[k];
        const std::uint32_t t_begin = panel.begin[k];
        const std::uint32_t t_end = panel.begin[k + 1];
        const std::uint32_t e_end = col_ptr[j + 1];
        const std::uint32_t *f = frames + t_begin;
        const std::int64_t *v = values + t_begin;
        const std::uint32_t n_active = t_end - t_begin;
        for (std::uint32_t e = col_ptr[j]; e < e_end; ++e) {
            const std::uint32_t entry = entries[e];
            const std::int64_t w = lut[entryIndex(entry)];
            std::int64_t *acc_row =
                acc + static_cast<std::size_t>(entryRow(entry)) * batch;
            for (std::uint32_t t = 0; t < n_active; ++t)
                acc_row[f[t]] = mac(acc_row[f[t]], w, v[t]);
        }
    }
}

// ------------------------------------------------------ tile drivers

/** Drain one row batch: non-linearity, then commit per frame.
 *  Accumulator rows are @p acc_stride apart; lanes past the batch are
 *  padding and never drain. */
template <typename AccT>
void
drainRowBatch(const CompiledLayer &layer, const AccT *acc,
              std::size_t row_begin, std::size_t row_end,
              std::size_t acc_stride, Batch &outputs)
{
    const std::size_t batch = outputs.size();
    for (std::size_t r = 0; r < row_end - row_begin; ++r) {
        const AccT *acc_row = acc + r * acc_stride;
        for (std::size_t b = 0; b < batch; ++b) {
            std::int64_t value = acc_row[b];
            switch (layer.nonlin) {
              case nn::Nonlinearity::ReLU:
                value = reluRaw(value);
                break;
              case nn::Nonlinearity::None:
                break;
              default:
                fatal("the accelerator only applies ReLU or None; "
                      "other nonlinearities run on the host");
            }
            outputs[b][row_begin + r] = value;
        }
    }
}

/**
 * The tile driver of every variant. Accumulators zero per row batch
 * and persist across passes — frame-major per row, rows
 * @p acc_stride apart — and each tile gathers its panel once before
 * @p sweep walks its row blocks: in order on a serial run, one block
 * per index under a multi-thread pool. Blocks own disjoint contiguous
 * rows, so the workers never share an accumulator.
 */
template <typename AccT, typename Panel, typename Sweep>
void
executeTiles(const CompiledLayer &layer, const Batch &inputs,
             WorkerPool *pool, Batch &outputs, Panel &panel,
             std::size_t acc_stride, const Sweep &sweep)
{
    const bool pooled = pool && pool->threads() > 1;
    std::vector<AccT> acc;
    for (const auto &batch_tiles : layer.tiles) {
        panic_if(batch_tiles.empty(), "row batch with no tiles");
        const std::size_t row_begin = batch_tiles.front().row_begin;
        const std::size_t row_end = batch_tiles.front().row_end;
        acc.assign((row_end - row_begin) * acc_stride, 0);
        for (const CompiledTile &tile : batch_tiles) {
            panel.gather(inputs, tile.col_begin, tile.col_end);
            if (pooled && tile.blocks.size() > 1)
                pool->parallelFor(tile.blocks.size(), [&](std::size_t t) {
                    sweep(tile.blocks[t], acc.data());
                });
            else
                for (const SliceStream &block : tile.blocks)
                    sweep(block, acc.data());
        }
        drainRowBatch(layer, acc.data(), row_begin, row_end, acc_stride,
                      outputs);
    }
}

/** The alignment shift of the layer's products into act_format:
 *  2 * weight fraction bits - activation fraction bits. */
int
alignShift(const CompiledLayer &layer)
{
    return 2 * static_cast<int>(layer.weight_format.fracBits) -
        static_cast<int>(layer.act_format.fracBits);
}

/** The actsparse variant: int64 accumulators, one per frame, over the
 *  column panel. */
void
executeSparse(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, Batch &outputs)
{
    // A left alignment (more activation than weight fraction bits)
    // scales the table once: (w << l) * a == (w * a) << l.
    const int shift = alignShift(layer);
    std::vector<std::int64_t> lut;
    lut.reserve(layer.lut.size());
    for (const std::int64_t w : layer.lut)
        lut.push_back(shift < 0 ? w << -shift : w);
    const ScalarMac mac{std::max(shift, 0), layer.act_format.minRaw(),
                        layer.act_format.maxRaw()};

    const std::size_t batch = inputs.size();
    ActivationPanel panel;
    executeTiles<std::int64_t>(
        layer, inputs, pool, outputs, panel, batch,
        [&](const SliceStream &stream, std::int64_t *acc) {
            runStreamActSparse(stream, lut.data(), panel, batch, acc,
                               mac);
        });
}

/** The vector variant: int32 accumulators, one dispatched call per row
 *  block. One frame runs the row lanes over the column panel at
 *  stride 1; two or more run the frame-lane sweep over the dense panel
 *  at the lane stride. */
void
executeVector(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, Batch &outputs)
{
    // vectorEligible() guarantees every table value fits an int32 lane.
    std::vector<std::int32_t> lut(
        std::max(layer.lut.size(), kRowLaneTableEntries), 0);
    std::copy(layer.lut.begin(), layer.lut.end(), lut.begin());
    const LaneMac mac{
        lut.data(), alignShift(layer),
        static_cast<std::int32_t>(layer.act_format.minRaw()),
        static_cast<std::int32_t>(layer.act_format.maxRaw())};

    if (inputs.size() == 1) {
        ActivationPanel panel;
        executeTiles<std::int32_t>(
            layer, inputs, pool, outputs, panel, 1,
            [&](const SliceStream &block, std::int32_t *acc) {
                g_vector.rows(block, panel, mac, acc);
            });
        return;
    }
    DensePanel panel;
    panel.stride = laneStride(inputs.size());
    executeTiles<std::int32_t>(
        layer, inputs, pool, outputs, panel, panel.stride,
        [&](const SliceStream &block, std::int32_t *acc) {
            g_vector.frames(block, panel, mac, acc);
        });
}

/**
 * Whether every activation is a valid act_format raw — the bound
 * vectorEligible()'s 32-bit-lane arithmetic actually relies on.
 * Out-of-format inputs (possible from an unvalidated remote client:
 * the wire protocol carries raw int64 activations verbatim) must not
 * crash or silently wrap; runBatch demotes them to the actsparse
 * loop, which computes the oracle's defined int64 semantics.
 */
bool
withinActFormat(const Batch &inputs, const FixedFormat &fmt)
{
    const std::int64_t lo = fmt.minRaw();
    const std::int64_t hi = fmt.maxRaw();
    for (const auto &input : inputs)
        for (const std::int64_t a : input)
            if (a < lo || a > hi)
                return false;
    return true;
}

/** Check @p inputs against @p layer and allocate its zeroed outputs. */
Batch
zeroOutputs(const CompiledLayer &layer, const Batch &inputs)
{
    panic_if(!layer.has_host_stream,
             "layer '%s' compiled without the host kernel streams "
             "(CompileOptions::host_stream)",
             layer.name.c_str());
    for (const auto &input : inputs)
        panic_if(input.size() != layer.input_size,
                 "input length %zu != compiled %zu", input.size(),
                 layer.input_size);
    Batch outputs(inputs.size());
    for (auto &output : outputs)
        output.assign(layer.output_size, 0);
    return outputs;
}

} // namespace

const char *
simdIsaName()
{
    return g_vector.frames ? "avx2" : "none";
}

double
probeActivationDensity(const Batch &inputs)
{
    // Sampling cap: above it the scan strides so the probe touches at
    // most ~kProbeCap elements however large the batch is.
    constexpr std::size_t kProbeCap = 4096;
    std::size_t total = 0;
    for (const auto &input : inputs)
        total += input.size();
    if (total == 0)
        return -1.0;
    const std::size_t stride =
        total <= kProbeCap ? 1 : (total + kProbeCap - 1) / kProbeCap;
    std::size_t sampled = 0;
    std::size_t nonzero = 0;
    for (std::size_t b = 0; b < inputs.size(); ++b) {
        const auto &input = inputs[b];
        // Stagger the start per frame so a strided scan does not keep
        // hitting the same columns of every frame.
        for (std::size_t i = b % stride; i < input.size(); i += stride) {
            ++sampled;
            nonzero += input[i] != 0;
        }
    }
    if (sampled == 0)
        return -1.0;
    return static_cast<double>(nonzero) / static_cast<double>(sampled);
}

Batch
runBatch(const CompiledLayer &layer, const Batch &inputs,
         WorkerPool *pool, KernelVariant variant, DispatchInfo *dispatch)
{
    const std::size_t batch = inputs.size();
    Batch outputs = zeroOutputs(layer, inputs);
    if (batch == 0) {
        if (dispatch)
            *dispatch = DispatchInfo{};
        return outputs;
    }

    // The probe feeds DispatchInfo (stats surfaces), not the choice.
    const double act_density = probeActivationDensity(inputs);
    KernelVariant resolved = resolveKernelVariant(variant, layer, batch);
    // The lanes need AVX2 and in-format activations; without either,
    // the call runs on the actsparse loop.
    if (resolved == KernelVariant::Vector &&
        (!g_vector.frames || !withinActFormat(inputs, layer.act_format)))
        resolved = KernelVariant::ActSparse;
    if (resolved == KernelVariant::Vector)
        executeVector(layer, inputs, pool, outputs);
    else
        executeSparse(layer, inputs, pool, outputs);
    if (dispatch) {
        dispatch->variant = resolved;
        dispatch->act_density = act_density;
    }
    return outputs;
}

} // namespace eie::core::kernel
