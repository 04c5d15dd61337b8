#include "core/kernel/executor.hh"

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
 * once per row block per frame. Column j's active frames occupy slots
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

/** Lanes of one vector-sweep block. The vector variant pads its dense
 *  panel and its accumulator rows to whole blocks, so every SIMD op of
 *  its sweep is unmasked. */
constexpr std::size_t kLaneBlock = 8;

/** The vector variant's lane stride: @p batch rounded up to a whole
 *  number of lane blocks. */
constexpr std::size_t
laneStride(std::size_t batch)
{
    return (batch + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
}

/**
 * Per-pass activation panel of the vector variant: every frame of
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

// --------------------------------------------------- vector sweeps

/** The saturating MAC every vector sweep lane runs:
 *  acc = clamp(acc + ((lut[index] * act) >> shift), lo, hi). All
 *  intermediates fit int32 lanes by vectorEligible(); C++20
 *  guarantees the arithmetic right shift on negatives. */
struct LaneMac
{
    const std::int32_t *lut; ///< the layer's table, narrowed to int32
    int shift;
    std::int32_t lo;
    std::int32_t hi;
};

/**
 * The vector variant's sweep of one row block over the dense panel:
 * every entry of every active column runs the LaneMac on all
 * panel.stride lanes of its accumulator row (rows are panel.stride
 * int32 apart). Lanes are independent frames, and each accumulator
 * still sees its column-ascending MAC sequence.
 */
using VectorSweepFn = void (*)(const SliceStream &block,
                               const DensePanel &panel,
                               const LaneMac &mac, std::int32_t *acc);

/** The portable sweep, for boxes without AVX2. */
void
sweepScalar(const SliceStream &block, const DensePanel &panel,
            const LaneMac &mac, std::int32_t *acc)
{
    const std::size_t stride = panel.stride;
    const std::uint32_t *entries = block.entries.data();
    const std::size_t cols = block.col_ptr.size() - 1;
    for (std::size_t j = 0; j < cols; ++j) {
        if (!panel.active[j])
            continue;
        const std::int32_t *act = &panel.value[j * stride];
        const std::uint32_t e_end = block.col_ptr[j + 1];
        for (std::uint32_t e = block.col_ptr[j]; e < e_end; ++e) {
            const std::uint32_t entry = entries[e];
            const std::int32_t w = mac.lut[entryIndex(entry)];
            std::int32_t *acc_row =
                acc + static_cast<std::size_t>(entryRow(entry)) * stride;
            for (std::size_t l = 0; l < stride; ++l) {
                std::int32_t v = acc_row[l] + ((w * act[l]) >> mac.shift);
                v = v < mac.lo ? mac.lo : v;
                v = v > mac.hi ? mac.hi : v;
                acc_row[l] = v;
            }
        }
    }
}

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

/** The AVX2 sweep: 8-lane blocks. At stride 8 (batches 1-8) each
 *  active column's activations load once into one register: 16-25%
 *  faster than the block loop on NT-We at batch 5 (4-vCPU Xeon). */
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

#endif // EIE_KERNEL_X86

/** One tier of the vector sweep and the ISA label BENCH files stamp
 *  for it — one selection site, so they cannot drift. */
struct VectorSweep
{
    VectorSweepFn fn;
    const char *isa;
};

/** Every sweep tier this CPU runs, fastest first. */
std::vector<VectorSweep>
supportedSweeps()
{
    std::vector<VectorSweep> sweeps;
#if defined(EIE_KERNEL_X86)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        sweeps.push_back({sweepAvx2, "avx2"});
#endif
    sweeps.push_back({sweepScalar, "scalar"});
    return sweeps;
}

/** Runtime ISA dispatch, decided once per process. */
const VectorSweep g_vector_sweep = supportedSweeps().front();

// ------------------------------------------------ stream inner loops

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

/** The reference and actsparse variants: int64 accumulators, one per
 *  frame, the variant's activation @p Panel and its @p run_stream
 *  loop. */
template <typename Panel, typename RunStream>
void
executeSparse(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, const RunStream &run_stream,
              Batch &outputs)
{
    const std::size_t batch = inputs.size();
    Panel panel;
    executeTiles<std::int64_t>(
        layer, inputs, pool, outputs, panel, batch,
        [&](const SliceStream &stream, std::int64_t *acc) {
            run_stream(stream, layer.lut.data(), panel, batch, acc,
                       layer.weight_format, layer.act_format);
        });
}

/** The vector variant: int32 accumulators and the dense panel at the
 *  lane stride, one @p sweep call per row block. */
void
executeVector(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, VectorSweepFn sweep, Batch &outputs)
{
    // vectorEligible() guarantees every table value fits an int32 lane.
    std::vector<std::int32_t> lut;
    lut.reserve(layer.lut.size());
    for (const std::int64_t w : layer.lut)
        lut.push_back(static_cast<std::int32_t>(w));
    const LaneMac mac{
        lut.data(),
        2 * static_cast<int>(layer.weight_format.fracBits) -
            static_cast<int>(layer.act_format.fracBits),
        static_cast<std::int32_t>(layer.act_format.minRaw()),
        static_cast<std::int32_t>(layer.act_format.maxRaw())};

    DensePanel panel;
    panel.stride = laneStride(inputs.size());
    executeTiles<std::int32_t>(
        layer, inputs, pool, outputs, panel, panel.stride,
        [&](const SliceStream &block, std::int32_t *acc) {
            sweep(block, panel, mac, acc);
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
    return g_vector_sweep.isa;
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

    const double act_density = probeActivationDensity(inputs);
    KernelVariant resolved =
        resolveKernelVariant(variant, layer, batch, act_density);
    if (resolved == KernelVariant::Vector &&
        !withinActFormat(inputs, layer.act_format))
        resolved = KernelVariant::Reference;
    switch (resolved) {
      case KernelVariant::Vector:
        executeVector(layer, inputs, pool, g_vector_sweep.fn, outputs);
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

namespace detail {

std::vector<std::string>
vectorSweepIsas()
{
    std::vector<std::string> isas;
    for (const VectorSweep &sweep : supportedSweeps())
        isas.emplace_back(sweep.isa);
    return isas;
}

Batch
runVectorSweep(const CompiledLayer &layer, const Batch &inputs,
               WorkerPool *pool, const std::string &isa)
{
    Batch outputs = zeroOutputs(layer, inputs);
    panic_if(!vectorEligible(layer) ||
                 !withinActFormat(inputs, layer.act_format),
             "layer '%s' or its inputs do not fit the vector lanes",
             layer.name.c_str());
    for (const VectorSweep &sweep : supportedSweeps()) {
        if (isa != sweep.isa)
            continue;
        if (!inputs.empty())
            executeVector(layer, inputs, pool, sweep.fn, outputs);
        return outputs;
    }
    panic("vector sweep tier '%s' does not run on this CPU", isa.c_str());
    return outputs; // unreachable: panic() aborts
}

} // namespace detail

} // namespace eie::core::kernel
