/**
 * @file
 * The kernel-variant registry of the compiled execution path.
 *
 * One resident (row, codebook index) stream (see compiled_layer.hh)
 * can be walked by more than one inner loop, and which loop wins
 * depends on the batch size, the activation density and the datapath
 * formats. The variant picks the loop, never the stream: the executor
 * walks the PE-merged stream on a serial run and the per-PE slices on
 * a pooled one, and every loop expands each entry's weight through
 * the layer's table. Instead of forking the executor per loop, every
 * consumer —
 * CompiledBackend, the WorkerPool batched executor, the serving
 * cluster and the CLI tools — selects a KernelVariant by name and
 * kernel::runBatch dispatches:
 *
 *  - "reference": the scalar sparse-gather loop. Bit-exact for every
 *    format; the in-process oracle the other variants are validated
 *    against.
 *  - "vector": a 32-bit-lane SIMD saturating MAC, dense over the
 *    batch dimension (zero activations contribute a zero product, and
 *    sat(acc + 0) == acc, so skipping them is an optimization, not a
 *    semantic — the dense sweep is bit-exact). Requires the layer's
 *    formats to fit 32-bit lanes; see vectorEligible().
 *  - "actsparse": the paper's leading-nonzero-detect datapath. A
 *    front-end scan compresses each input frame into a compact
 *    (column, value) activation queue, and the inner loop walks only
 *    the nonzero columns of the stream — zero activations cost
 *    nothing, so batch-1 latency scales with activation density
 *    instead of layer width. Works for every format (int64 scalar
 *    MAC, like reference) and any thread count.
 *  - "auto": the fastest variant that is bit-exact for the layer's
 *    formats and the call's batch size; the default everywhere. A
 *    single frame always takes "actsparse" (the paper's
 *    one-vector-at-a-time operating point); other small batches are
 *    density-aware and take "actsparse" only at low measured
 *    activation density (see kActSparseAutoMaxDensity).
 *
 * All variants produce bit-identical outputs (the saturating-MAC
 * update sequence per accumulator is preserved exactly); "vector" is
 * additionally gated by the format predicate so it can never be
 * selected where 32-bit lanes would overflow.
 */

#ifndef EIE_CORE_KERNEL_VARIANT_HH
#define EIE_CORE_KERNEL_VARIANT_HH

#include <string>
#include <vector>

#include "common/fixed_point.hh"

namespace eie::core::kernel {

struct CompiledLayer;

/** The registered kernel inner loops (Auto = select per call). */
enum class KernelVariant
{
    Auto,       ///< fastest bit-exact variant for the call shape
    Reference,  ///< scalar sparse-gather loop, the oracle
    Vector,     ///< SIMD 32-bit-lane dense-batch saturating MAC
    ActSparse,  ///< nonzero-activation queue walk (EIE NZ-detect)
};

/** Auto routes to Vector at or above this batch when the formats are
 *  eligible: below it the dense lanes carry too many zeros to beat
 *  the sparse gather loops. */
constexpr std::size_t kVectorAutoBatch = 8;

/** Auto routes batches of 2 up to kVectorAutoBatch - 1 frames to
 *  ActSparse when the measured activation density is at or below this
 *  fraction; above it the per-frame stream re-walk stops paying for
 *  the skipped zeros. A single frame has no re-walk and takes
 *  ActSparse at any density. */
constexpr double kActSparseAutoMaxDensity = 0.5;

/** Registry names, selection order ("auto", "reference", ...). */
const std::vector<std::string> &kernelVariantNames();

/** The registry name of @p variant. */
const char *kernelVariantName(KernelVariant variant);

/** Parse a registry name; fatal (listing the valid names) on an
 *  unknown one. */
KernelVariant kernelVariantFromName(const std::string &name);

/**
 * Whether the "vector" variant's 32-bit lanes are bit-exact for a
 * layer with weights in @p weight_fmt accumulating into @p acc_fmt
 * activations: the product must fit an int32 lane, the shift-and-add
 * alignment must be a right shift, and accumulator + aligned product
 * must fit an int32 lane before saturation.
 */
bool vectorEligible(const FixedFormat &weight_fmt,
                    const FixedFormat &acc_fmt);

/** Format predicate over a compiled layer's captured formats. */
bool vectorEligible(const CompiledLayer &layer);

/**
 * Resolve @p requested for one runBatch call:
 *
 *  - Auto picks Vector when the formats are eligible and the batch is
 *    wide enough to fill lanes (>= kVectorAutoBatch); otherwise
 *    ActSparse for a single frame, or when @p act_density is known
 *    (>= 0) and at most kActSparseAutoMaxDensity; Reference
 *    otherwise.
 *  - Vector is fatal when the layer's formats are not eligible: the
 *    lanes would overflow, silently breaking bit-exactness.
 *  - ActSparse and Reference always resolve to themselves: both are
 *    int64 scalar paths, bit-exact for every format and thread count.
 *
 * @p act_density is the measured fraction of nonzero
 * input activations, or negative when unknown (the density-blind
 * overload). The returned variant is always directly executable on
 * @p layer.
 */
KernelVariant resolveKernelVariant(KernelVariant requested,
                                   const CompiledLayer &layer,
                                   std::size_t batch,
                                   double act_density);

/** Density-blind overload: resolves with unknown activation density
 *  (Auto picks ActSparse only for a single frame). */
KernelVariant resolveKernelVariant(KernelVariant requested,
                                   const CompiledLayer &layer,
                                   std::size_t batch);

/**
 * The instruction set the SIMD MAC row kernel dispatched to at
 * runtime on this machine: "avx512", "avx2", "sse4.1" or "scalar"
 * (the portable fallback loop). Stamped into BENCH_*.json files.
 */
const char *simdIsaName();

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_VARIANT_HH
