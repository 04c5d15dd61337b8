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
 *  - "vector": 32-bit-lane AVX2 saturating MACs over int32
 *    accumulators, in one of two loops by batch size. Two or more
 *    frames run the frame-lane sweep, dense over the batch dimension
 *    (zero activations contribute a zero product, and sat(acc + 0) ==
 *    acc, so skipping them is an optimization, not a semantic — the
 *    dense sweep is bit-exact): accumulator rows and the activation
 *    panel are padded to whole 8-lane blocks, so each entry runs
 *    unmasked SIMD ops on every frame at once. One frame runs the row
 *    lanes, the paper's PEs on the host: each lane takes one entry of
 *    a column the LNZD lists, expands its index through the table
 *    held in two registers, and runs the MAC on its own row's
 *    accumulator; a table of more than kRowLaneTableEntries entries
 *    does not fit them. Requires the layer's formats to fit 32-bit
 *    lanes; see vectorEligible().
 *  - "actsparse": the paper's leading-nonzero-detect datapath, the
 *    one int64 scalar loop. Each column with a nonzero frame lists its
 *    (frame, value) pairs — the batched form of the LNZD's (j, a_j)
 *    broadcast — and every entry of that column runs one saturating
 *    MAC per listed frame, so zero activations cost nothing and
 *    batch-1 latency scales with activation density instead of layer
 *    width. Works for every format, batch and thread count.
 *  - "auto": the default everywhere. "vector" when the layer's formats
 *    fit its lanes, "actsparse" for everything else: a layer the
 *    lanes cannot run, and a single frame on a table the row lanes
 *    cannot hold.
 *
 * Both variants produce bit-identical outputs (the saturating-MAC
 * update sequence per accumulator is preserved exactly: the row lanes
 * of one group hit distinct rows, since CSC stores at most one entry
 * per (row, column)); "vector" is additionally gated by the format
 * predicate so it can never be selected where 32-bit lanes would
 * overflow. On a CPU without AVX2 there are no vector loops, and
 * runBatch runs every "vector" call on the actsparse loop.
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

/** Table entries the vector variant's row lanes hold in registers: two
 *  8-lane int32 halves, the 4-bit codebook index's 16 values. A single
 *  frame on a layer with a larger table runs on the actsparse loop. */
constexpr std::size_t kRowLaneTableEntries = 16;

/**
 * Resolve @p requested for one runBatch call of @p batch frames:
 *
 *  - Auto picks Vector when the layer's formats are eligible, and
 *    ActSparse otherwise. A single frame on a table of more than
 *    kRowLaneTableEntries entries also takes ActSparse.
 *  - Vector is fatal when the layer's formats are not eligible: the
 *    lanes would overflow, silently breaking bit-exactness. A single
 *    frame on a table the row lanes cannot hold resolves to ActSparse.
 *  - ActSparse always resolves to itself: the int64 scalar loop is
 *    bit-exact for every format and thread count.
 *
 * The returned variant never breaks bit-exactness on @p layer. The
 * rule is the same on every CPU; runBatch runs a Vector call on the
 * actsparse loop when the CPU has no AVX2 or the inputs leave
 * act_format, and records that in its DispatchInfo.
 */
KernelVariant resolveKernelVariant(KernelVariant requested,
                                   const CompiledLayer &layer,
                                   std::size_t batch);

/**
 * The ISA of the vector loops on this machine, decided once per
 * process: "avx2" (8 lanes), or "none" on a CPU without AVX2, where
 * "vector" calls run on the actsparse loop. Stamped into BENCH_*.json
 * files.
 */
const char *simdIsaName();

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_VARIANT_HH
