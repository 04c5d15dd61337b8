#include "core/kernel/executor.hh"

#include <new>

#include <unistd.h>

#include "common/fixed_point.hh"
#include "common/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EIE_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace eie::core::kernel {

namespace {

/**
 * Per-pass activation panel of the sparse variants: the active
 * (non-zero) frames of each column, gathered once per tile instead of
 * once per PE per frame. Column j's active frames occupy slots
 * [j*B, j*B + count[j]).
 */
struct ActivationPanel
{
    std::vector<std::uint32_t> frame; ///< frame index of each slot
    std::vector<std::int64_t> value;  ///< activation value of the slot
    std::vector<std::uint32_t> count; ///< active frames per column

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t cols = col_end - col_begin;
        const std::size_t batch = inputs.size();
        frame.resize(cols * batch);
        value.resize(cols * batch);
        count.assign(cols, 0);
        for (std::size_t j = 0; j < cols; ++j) {
            std::uint32_t n = 0;
            const std::size_t base = j * batch;
            for (std::size_t b = 0; b < batch; ++b) {
                const std::int64_t a = inputs[b][col_begin + j];
                if (a == 0)
                    continue; // the LNZD would never broadcast it
                frame[base + n] = static_cast<std::uint32_t>(b);
                value[base + n] = a;
                ++n;
            }
            count[j] = n;
        }
    }
};

/**
 * Per-pass activation panel of the actsparse variant: each frame
 * compressed into a compact (column, value) queue by a front-end
 * nonzero scan — the paper's NZ-detect / CSC activation vector.
 * Frame b's queue occupies slots [begin[b], begin[b+1]), columns in
 * ascending tile-relative order, so the per-frame stream walk visits
 * columns in the same order as the reference sweep and stays
 * bit-exact. Zero activations never enter a queue: batch-1 cost
 * scales with activation density, not layer width.
 */
struct QueuePanel
{
    std::vector<std::uint32_t> col;   ///< tile-relative column
    std::vector<std::int64_t> value;  ///< activation value
    std::vector<std::uint32_t> begin; ///< frame b: [begin[b], begin[b+1])

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t batch = inputs.size();
        col.clear();
        value.clear();
        col.reserve(batch * (col_end - col_begin));
        value.reserve(batch * (col_end - col_begin));
        begin.assign(batch + 1, 0);
        for (std::size_t b = 0; b < batch; ++b) {
            const std::int64_t *input = inputs[b].data();
            for (std::size_t j = col_begin; j < col_end; ++j) {
                const std::int64_t a = input[j];
                if (a == 0)
                    continue;
                col.push_back(
                    static_cast<std::uint32_t>(j - col_begin));
                value.push_back(a);
            }
            begin[b + 1] = static_cast<std::uint32_t>(col.size());
        }
    }
};

/**
 * Per-pass activation panel of the vector variant: every frame of
 * every column, transposed to column-major int32 so the MAC row
 * kernel streams contiguous lanes. Zero activations stay in place —
 * their product is zero and sat(acc + 0) == acc, so the dense sweep
 * is bit-exact with the sparse skip — but columns with no active
 * frame at all are flagged and skipped whole.
 */
struct DensePanel
{
    std::vector<std::int32_t> value;  ///< cols x batch, column-major
    std::vector<std::uint8_t> active; ///< any non-zero frame in column

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t cols = col_end - col_begin;
        const std::size_t batch = inputs.size();
        value.resize(cols * batch);
        active.assign(cols, 0);
        for (std::size_t j = 0; j < cols; ++j) {
            const std::size_t base = j * batch;
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

// ------------------------------------------------- MAC row kernels

/**
 * One saturating MAC row of the vector variant:
 * acc[b] = clamp(acc[b] + ((w * act[b]) >> shift), lo, hi) for every
 * frame b. All intermediates fit 32-bit lanes by vectorEligible();
 * C++20 guarantees the arithmetic right shift on negatives.
 */
using MacRowFn = void (*)(std::int32_t *acc, const std::int32_t *act,
                          std::int32_t w, int shift, std::int32_t lo,
                          std::int32_t hi, std::size_t n);

void
macRowScalar(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
             int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    for (std::size_t b = 0; b < n; ++b) {
        std::int32_t v = acc[b] + ((w * act[b]) >> shift);
        v = v < lo ? lo : v;
        v = v > hi ? hi : v;
        acc[b] = v;
    }
}

#if defined(EIE_KERNEL_X86)

__attribute__((target("sse4.1"))) void
macRowSse41(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
            int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    const __m128i vw = _mm_set1_epi32(w);
    const __m128i vlo = _mm_set1_epi32(lo);
    const __m128i vhi = _mm_set1_epi32(hi);
    const __m128i vshift = _mm_cvtsi32_si128(shift);
    std::size_t b = 0;
    for (; b + 4 <= n; b += 4) {
        const __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(act + b));
        const __m128i vacc = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(acc + b));
        __m128i v = _mm_add_epi32(
            vacc, _mm_sra_epi32(_mm_mullo_epi32(vw, va), vshift));
        v = _mm_min_epi32(_mm_max_epi32(v, vlo), vhi);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(acc + b), v);
    }
    macRowScalar(acc + b, act + b, w, shift, lo, hi, n - b);
}

/** One 16-lane block of the AVX-512 MAC row. Lanes outside @p mask
 *  are neither loaded nor stored, so a partial block stays bit-exact
 *  with the scalar loop. */
__attribute__((target("avx512f"))) inline void
macBlockAvx512(std::int32_t *acc, const std::int32_t *act, __m512i vw,
               __m128i vshift, __m512i vlo, __m512i vhi, __mmask16 mask)
{
    const __m512i va = _mm512_maskz_loadu_epi32(mask, act);
    const __m512i vacc = _mm512_maskz_loadu_epi32(mask, acc);
    __m512i v = _mm512_add_epi32(
        vacc, _mm512_sra_epi32(_mm512_mullo_epi32(vw, va), vshift));
    v = _mm512_min_epi32(_mm512_max_epi32(v, vlo), vhi);
    _mm512_mask_storeu_epi32(acc, mask, v);
}

__attribute__((target("avx512f,avx512bw"))) void
macRowAvx512(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
             int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    const __m512i vw = _mm512_set1_epi32(w);
    const __m512i vlo = _mm512_set1_epi32(lo);
    const __m512i vhi = _mm512_set1_epi32(hi);
    const __m128i vshift = _mm_cvtsi32_si128(shift);
    std::size_t b = 0;
    for (; b + 16 <= n; b += 16)
        macBlockAvx512(acc + b, act + b, vw, vshift, vlo, vhi, 0xffff);
    // A remainder of more than 8 lanes takes one masked pass; up to 8
    // lanes the scalar loop measured faster under a multi-thread pool.
    if (n - b > 8)
        macBlockAvx512(acc + b, act + b, vw, vshift, vlo, vhi,
                       static_cast<__mmask16>((1u << (n - b)) - 1));
    else
        macRowScalar(acc + b, act + b, w, shift, lo, hi, n - b);
}

__attribute__((target("avx2"))) void
macRowAvx2(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
           int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    const __m256i vw = _mm256_set1_epi32(w);
    const __m256i vlo = _mm256_set1_epi32(lo);
    const __m256i vhi = _mm256_set1_epi32(hi);
    const __m128i vshift = _mm_cvtsi32_si128(shift);
    std::size_t b = 0;
    for (; b + 8 <= n; b += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(act + b));
        const __m256i vacc = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + b));
        __m256i v = _mm256_add_epi32(
            vacc,
            _mm256_sra_epi32(_mm256_mullo_epi32(vw, va), vshift));
        v = _mm256_min_epi32(_mm256_max_epi32(v, vlo), vhi);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + b), v);
    }
    macRowScalar(acc + b, act + b, w, shift, lo, hi, n - b);
}

#endif // EIE_KERNEL_X86

/** The dispatched MAC row kernel and the ISA label BENCH files
 *  stamp for it — one selection site, so they cannot drift. */
struct MacRowKernel
{
    MacRowFn fn;
    const char *isa;
};

/** Runtime ISA dispatch, decided once. */
MacRowKernel
pickMacRow()
{
#if defined(EIE_KERNEL_X86)
    // avx512bw implies avx512f on every shipped part, but probe what
    // the lanes actually require; boxes without AVX-512 fall through
    // to the unchanged paths below (skip, not fail).
    if (__builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512f"))
        return {macRowAvx512, "avx512"};
    if (__builtin_cpu_supports("avx2"))
        return {macRowAvx2, "avx2"};
    if (__builtin_cpu_supports("sse4.1"))
        return {macRowSse41, "sse4.1"};
#endif
    return {macRowScalar, "scalar"};
}

const MacRowKernel g_mac_row_kernel = pickMacRow();
const MacRowFn g_mac_row = g_mac_row_kernel.fn;

// ------------------------------------------------- slice inner loops

/** Sweep one stream over the gathered sparse panel (the scalar
 *  reference loop). */
void
runStreamReference(const SliceStream &stream, const std::int64_t *lut,
                   const ActivationPanel &panel, std::size_t batch,
                   std::int64_t *acc, const FixedFormat &weight_fmt,
                   const FixedFormat &act_fmt)
{
    const std::uint32_t *entries = stream.entries.data();
    const std::size_t cols = stream.col_ptr.size() - 1;
    for (std::size_t j = 0; j < cols; ++j) {
        const std::uint32_t n_active = panel.count[j];
        if (n_active == 0)
            continue;
        const std::uint32_t e_begin = stream.col_ptr[j];
        const std::uint32_t e_end = stream.col_ptr[j + 1];
        if (e_begin == e_end)
            continue;
        const std::uint32_t *frames = &panel.frame[j * batch];
        const std::int64_t *values = &panel.value[j * batch];
        for (std::uint32_t e = e_begin; e < e_end; ++e) {
            const std::uint32_t entry = entries[e];
            const std::int64_t w = lut[entryIndex(entry)];
            std::int64_t *acc_row =
                acc + static_cast<std::size_t>(entryRow(entry)) * batch;
            for (std::uint32_t t = 0; t < n_active; ++t) {
                acc_row[frames[t]] = macFixed(
                    acc_row[frames[t]], w, values[t], weight_fmt,
                    act_fmt);
            }
        }
    }
}

/**
 * Sweep one stream over the per-frame nonzero queues (the actsparse
 * variant's loop). Frames are independent accumulator columns, and
 * within a frame the queue visits columns ascending with at most one
 * stream entry per (row, column) — the exact per-accumulator update
 * order of the reference sweep, so the saturating MAC sequence is
 * preserved bit-for-bit. Only the col_ptr extents of nonzero columns
 * are ever touched.
 */
void
runStreamActSparse(const SliceStream &stream, const std::int64_t *lut,
                   const QueuePanel &panel, std::size_t batch,
                   std::int64_t *acc, const FixedFormat &weight_fmt,
                   const FixedFormat &act_fmt)
{
    const std::uint32_t *entries = stream.entries.data();
    const std::uint32_t *col_ptr = stream.col_ptr.data();
    if (batch == 1) {
        // The latency path the variant exists for: one accumulator
        // per row (no *batch indexing) and the macFixed() shift and
        // saturation bounds hoisted out of the queue walk. The
        // arithmetic is macFixed() verbatim, so bit-exactness with
        // the general loop (and the reference oracle) is preserved.
        const int shift =
            2 * static_cast<int>(weight_fmt.fracBits) -
            static_cast<int>(act_fmt.fracBits);
        const std::int64_t lo = act_fmt.minRaw();
        const std::int64_t hi = act_fmt.maxRaw();
        const std::uint32_t q_end = panel.begin[1];
        for (std::uint32_t q = 0; q < q_end; ++q) {
            const std::uint32_t j = panel.col[q];
            const std::int64_t a = panel.value[q];
            const std::uint32_t e_end = col_ptr[j + 1];
            for (std::uint32_t e = col_ptr[j]; e < e_end; ++e) {
                const std::uint32_t entry = entries[e];
                const std::int64_t product = lut[entryIndex(entry)] * a;
                const std::int64_t aligned = shift >= 0
                                                 ? product >> shift
                                                 : product << -shift;
                std::int64_t sum = acc[entryRow(entry)] + aligned;
                sum = sum > hi ? hi : sum;
                sum = sum < lo ? lo : sum;
                acc[entryRow(entry)] = sum;
            }
        }
        return;
    }
    for (std::size_t b = 0; b < batch; ++b) {
        const std::uint32_t q_end = panel.begin[b + 1];
        for (std::uint32_t q = panel.begin[b]; q < q_end; ++q) {
            const std::uint32_t j = panel.col[q];
            const std::int64_t a = panel.value[q];
            const std::uint32_t e_end = col_ptr[j + 1];
            for (std::uint32_t e = col_ptr[j]; e < e_end; ++e) {
                const std::uint32_t entry = entries[e];
                std::int64_t &slot =
                    acc[static_cast<std::size_t>(entryRow(entry)) *
                            batch +
                        b];
                slot = macFixed(slot, lut[entryIndex(entry)], a,
                                weight_fmt, act_fmt);
            }
        }
    }
}

/** Sweep one stream over the dense panel with the SIMD MAC row kernel
 *  (the vector variant's loop). vectorEligible() guarantees every
 *  table value fits an int32 lane. */
void
runStreamVector(const SliceStream &stream, const std::int64_t *lut,
                const DensePanel &panel, std::size_t batch,
                std::int32_t *acc, int shift, std::int32_t lo,
                std::int32_t hi)
{
    const std::uint32_t *entries = stream.entries.data();
    const std::size_t cols = stream.col_ptr.size() - 1;
    for (std::size_t j = 0; j < cols; ++j) {
        if (!panel.active[j])
            continue;
        const std::uint32_t e_begin = stream.col_ptr[j];
        const std::uint32_t e_end = stream.col_ptr[j + 1];
        if (e_begin == e_end)
            continue;
        const std::int32_t *act = &panel.value[j * batch];
        for (std::uint32_t e = e_begin; e < e_end; ++e) {
            const std::uint32_t entry = entries[e];
            g_mac_row(acc + static_cast<std::size_t>(entryRow(entry)) *
                          batch,
                      act, static_cast<std::int32_t>(lut[entryIndex(entry)]),
                      shift, lo, hi, batch);
        }
    }
}

// ------------------------------------------------------ tile drivers

/** Drain one row batch: non-linearity, then commit per frame. */
template <typename AccT>
void
drainRowBatch(const CompiledLayer &layer, const AccT *acc,
              std::size_t row_begin, std::size_t row_end,
              std::size_t batch, Batch &outputs)
{
    for (std::size_t r = 0; r < row_end - row_begin; ++r) {
        const AccT *acc_row = acc + r * batch;
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
 * Cache-line-aligned storage for the accumulator buffer. Pooled
 * workers write disjoint rows of one buffer; when a row is a whole
 * number of cache lines (an int32 row at batch 16 is exactly 64 B),
 * alignment keeps each row on lines no other PE's rows touch. A
 * malloc'd buffer is only 16-byte aligned, so every row would
 * straddle a line shared with a neighbouring PE's row.
 */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, kAlign);
    }

    template <typename U>
    bool
    operator==(const CacheLineAllocator<U> &) const
    {
        return true;
    }
};

/** Run @p run_pe over every PE slice, pooled when available. */
template <typename RunPe>
void
forEachSlice(const CompiledTile &tile, WorkerPool *pool,
             const RunPe &run_pe)
{
    if (pool && pool->threads() > 1)
        pool->parallelFor(tile.slices.size(), run_pe);
    else
        for (std::size_t k = 0; k < tile.slices.size(); ++k)
            run_pe(k);
}

/** Per-core L2 capacity, 1 MiB where the platform does not report
 *  it. */
std::size_t
l2CacheBytes()
{
    static const long reported = sysconf(_SC_LEVEL2_CACHE_SIZE);
    return reported > 0 ? static_cast<std::size_t>(reported)
                        : std::size_t{1} << 20;
}

/**
 * The tile driver of every variant and its one stream choice.
 * Accumulators zero per row batch and persist across passes —
 * frame-major per row so a PE's writes stay in its own rows — and
 * each tile gathers its panel once before @p sweep walks it.
 *
 * A serial run (no pool, or a one-thread pool) walks each tile's
 * PE-merged stream when the layer carries it — one column extent
 * instead of one per PE, since one thread has no second PE to hand a
 * slice to — as long as the row batch's accumulators fit the L2: the
 * merged walk scatters over all of them in every column, while a PE
 * slice stays within its own rows. Otherwise @p sweep walks the per-PE
 * slices, in parallel under a multi-thread pool (PE rows are
 * disjoint, so the workers never share an accumulator).
 */
template <typename AccT, typename Panel, typename Sweep>
void
executeTiles(const CompiledLayer &layer, const Batch &inputs,
             WorkerPool *pool, Batch &outputs, Panel &panel,
             const Sweep &sweep)
{
    const std::size_t batch = inputs.size();
    const bool serial = !pool || pool->threads() <= 1;
    std::vector<AccT, CacheLineAllocator<AccT>> acc;
    for (const auto &batch_tiles : layer.tiles) {
        panic_if(batch_tiles.empty(), "row batch with no tiles");
        const std::size_t row_begin = batch_tiles.front().row_begin;
        const std::size_t row_end = batch_tiles.front().row_end;
        acc.assign((row_end - row_begin) * batch, 0);
        const bool merged = serial && layer.has_fused_stream &&
            acc.size() * sizeof(AccT) < l2CacheBytes();
        for (const CompiledTile &tile : batch_tiles) {
            panel.gather(inputs, tile.col_begin, tile.col_end);
            if (merged)
                sweep(tile.fused, acc.data());
            else
                forEachSlice(tile, pool, [&](std::size_t k) {
                    sweep(tile.slices[k].stream, acc.data());
                });
        }
        drainRowBatch(layer, acc.data(), row_begin, row_end, batch,
                      outputs);
    }
}

/** The reference and actsparse variants: int64 accumulators, the
 *  variant's activation @p Panel and its @p run_stream loop. */
template <typename Panel, typename RunStream>
void
executeSparse(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, const RunStream &run_stream,
              Batch &outputs)
{
    const std::size_t batch = inputs.size();
    Panel panel;
    executeTiles<std::int64_t>(
        layer, inputs, pool, outputs, panel,
        [&](const SliceStream &stream, std::int64_t *acc) {
            run_stream(stream, layer.lut.data(), panel, batch, acc,
                       layer.weight_format, layer.act_format);
        });
}

/** The vector variant: int32 accumulators, dense panel, SIMD MAC
 *  rows. */
void
executeVector(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, Batch &outputs)
{
    const std::size_t batch = inputs.size();
    const int shift =
        2 * static_cast<int>(layer.weight_format.fracBits) -
        static_cast<int>(layer.act_format.fracBits);
    const auto lo = static_cast<std::int32_t>(layer.act_format.minRaw());
    const auto hi = static_cast<std::int32_t>(layer.act_format.maxRaw());

    DensePanel panel;
    executeTiles<std::int32_t>(
        layer, inputs, pool, outputs, panel,
        [&](const SliceStream &stream, std::int32_t *acc) {
            runStreamVector(stream, layer.lut.data(), panel, batch, acc,
                            shift, lo, hi);
        });
}

/**
 * Whether every activation is a valid act_format raw — the bound
 * vectorEligible()'s 32-bit-lane arithmetic actually relies on.
 * Out-of-format inputs (possible from an unvalidated remote client:
 * the wire protocol carries raw int64 activations verbatim) must not
 * crash or silently wrap; runBatch demotes them to the reference
 * loop, which computes the same defined int64 semantics as before
 * the vector variant existed.
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

} // namespace

const char *
simdIsaName()
{
    return g_mac_row_kernel.isa;
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
    panic_if(!layer.has_host_stream,
             "layer '%s' compiled without the host kernel streams "
             "(CompileOptions::host_stream)",
             layer.name.c_str());
    for (const auto &input : inputs)
        panic_if(input.size() != layer.input_size,
                 "input length %zu != compiled %zu", input.size(),
                 layer.input_size);

    Batch outputs(batch);
    for (auto &output : outputs)
        output.assign(layer.output_size, 0);
    if (batch == 0) {
        if (dispatch)
            *dispatch = DispatchInfo{};
        return outputs;
    }

    const double act_density = probeActivationDensity(inputs);
    KernelVariant resolved =
        resolveKernelVariant(variant, layer, batch, act_density);
    if (resolved == KernelVariant::Vector &&
        !withinActFormat(inputs, layer.act_format))
        resolved = KernelVariant::Reference;
    switch (resolved) {
      case KernelVariant::Vector:
        executeVector(layer, inputs, pool, outputs);
        break;
      case KernelVariant::ActSparse:
        executeSparse<QueuePanel>(layer, inputs, pool,
                                  runStreamActSparse, outputs);
        break;
      case KernelVariant::Reference:
        executeSparse<ActivationPanel>(layer, inputs, pool,
                                       runStreamReference, outputs);
        break;
      case KernelVariant::Auto:
        panic("resolveKernelVariant returned Auto");
    }
    if (dispatch) {
        dispatch->variant = resolved;
        dispatch->act_density = act_density;
    }
    return outputs;
}

} // namespace eie::core::kernel
