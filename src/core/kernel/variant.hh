/**
 * @file
 * The kernel-variant registry of the compiled execution path.
 *
 * One resident (row, codebook index) stream (see compiled_layer.hh)
 * is walked by one of two inner loops, and which one wins depends on
 * the batch size and the datapath formats. The variant picks the
 * loop, never the stream: both loops walk the same row blocks, in
 * order on a serial run and one per worker on a pooled one, and
 * expand each entry's weight through the layer's table. Instead of
 * forking the executor per loop, every consumer — CompiledBackend,
 * the WorkerPool batched executor, the serving cluster and the CLI
 * tools — selects a KernelVariant by name and kernel::runBatch
 * dispatches:
 *
 *  - "vector": a 32-bit-lane SIMD saturating MAC, dense over the
 *    batch dimension (zero activations contribute a zero product, and
 *    sat(acc + 0) == acc, so skipping them is an optimization, not a
 *    semantic — the dense sweep is bit-exact). Accumulator rows and
 *    the activation panel are padded to whole 8-lane blocks, so each
 *    entry runs unmasked SIMD ops on every frame at once, and one
 *    AVX2 sweep walks a whole row block (see simdIsaName()).
 *    Requires the layer's formats to fit 32-bit lanes; see
 *    vectorEligible().
 *  - "actsparse": the paper's leading-nonzero-detect datapath, the
 *    one int64 scalar loop. Each column with a nonzero frame lists its
 *    (frame, value) pairs — the batched form of the LNZD's (j, a_j)
 *    broadcast — and every entry of that column runs one saturating
 *    MAC per listed frame, so zero activations cost nothing and
 *    batch-1 latency scales with activation density instead of layer
 *    width. Works for every format, batch and thread count.
 *  - "auto": the default everywhere. "vector" for two or more frames
 *    when the layer's formats fit its lanes, "actsparse" for
 *    everything else: a single frame (the paper's one-vector-at-a-time
 *    operating point) and a layer the lanes cannot run.
 *
 * Both variants produce bit-identical outputs (the saturating-MAC
 * update sequence per accumulator is preserved exactly); "vector" is
 * additionally gated by the format predicate so it can never be
 * selected where 32-bit lanes would overflow. On a CPU without AVX2
 * there is no vector sweep, and runBatch runs every "vector" call on
 * the actsparse loop.
 */

#ifndef EIE_CORE_KERNEL_VARIANT_HH
#define EIE_CORE_KERNEL_VARIANT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/fixed_point.hh"

namespace eie::core::kernel {

struct CompiledLayer;

/** The registered kernel inner loops (Auto = select per call). */
enum class KernelVariant
{
    Auto,       ///< fastest bit-exact variant for the call shape
    Vector,     ///< SIMD 32-bit-lane dense-batch saturating MAC
    ActSparse,  ///< int64 walk of the nonzero activations (EIE LNZD)
};

/** Registry names, selection order ("auto", "vector", "actsparse"). */
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
 * Resolve @p requested for one runBatch call of @p batch frames:
 *
 *  - Auto picks Vector for a batch of two or more frames when the
 *    layer's formats are eligible, and ActSparse otherwise.
 *  - Vector is fatal when the layer's formats are not eligible: the
 *    lanes would overflow, silently breaking bit-exactness.
 *  - ActSparse always resolves to itself: the int64 scalar loop is
 *    bit-exact for every format and thread count.
 *
 * The returned variant never breaks bit-exactness on @p layer. The
 * rule is the same on every CPU; runBatch runs a Vector call on the
 * actsparse loop when the CPU has no vector sweep or the inputs leave
 * act_format, and records that in its DispatchInfo.
 */
KernelVariant resolveKernelVariant(KernelVariant requested,
                                   const CompiledLayer &layer,
                                   std::size_t batch);

/**
 * The ISA of the vector sweep on this machine, decided once per
 * process: "avx2" (8-lane blocks), or "none" on a CPU without AVX2,
 * where "vector" calls run on the actsparse loop. Stamped into
 * BENCH_*.json files.
 */
const char *simdIsaName();

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_VARIANT_HH
