/**
 * @file
 * Batched, variant-dispatched execution of a CompiledLayer.
 *
 * One sweep over the compressed columns is amortized across the whole
 * batch. The inner loop is selected by KernelVariant (see
 * variant.hh): the scalar sparse-gather reference walk, the SIMD
 * dense-batch vector MAC, or the activation-sparse queue walk (a
 * front-end nonzero scan compresses each frame into a compact
 * (column, value) queue — the paper's NZ-detect stage — and the inner
 * loop touches only nonzero columns). Every variant preserves the
 * exact per-accumulator update sequence of the scalar interpreter
 * (passes, then columns, then at most one entry per accumulator per
 * column; a zero activation contributes a zero product and
 * sat(acc + 0) == acc), so outputs are bit-exact with
 * FunctionalModel::run — saturation order included — regardless of
 * the variant.
 *
 * Parallel execution splits the work across PE slices: PE k only ever
 * writes output rows i mod N == k, so threads share the accumulator
 * buffer without synchronization or write conflicts. A serial run
 * walks each tile's PE-merged stream instead when the layer carries
 * it and the row batch's accumulators fit the L2, whichever loop the
 * variant selects. Every loop walks the resident (row, codebook index)
 * entries in place and expands each weight through the layer's table,
 * as the PE does; nothing is decoded per call.
 *
 * Inputs are raw act_format values (quantizeInput or a previous
 * layer's outputs); the vector variant relies on that contract to
 * keep its 32-bit lanes exact, and runBatch enforces it — a batch
 * containing any out-of-format activation (e.g. unvalidated remote
 * input) executes on the reference loop instead, preserving the
 * defined wide-integer semantics without a crash path.
 */

#ifndef EIE_CORE_KERNEL_EXECUTOR_HH
#define EIE_CORE_KERNEL_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "core/kernel/compiled_layer.hh"
#include "core/kernel/variant.hh"
#include "core/kernel/worker_pool.hh"

namespace eie::core::kernel {

/** A batch of raw fixed-point activation vectors, one per frame. */
using Batch = std::vector<std::vector<std::int64_t>>;

/**
 * The dispatch decision of one runBatch call, for observability: the
 * variant the call actually executed and the measured (sampled)
 * fraction of nonzero input activations that drove density-aware
 * Auto resolution. Surfaced through RunReport / ServerStats /
 * statsJson so the decision is visible across the serving stack.
 */
struct DispatchInfo
{
    KernelVariant variant = KernelVariant::Auto; ///< executed variant
    double act_density = -1.0; ///< sampled nonzero fraction, <0 unknown

    /** Always 0: no stream is decoded per call. perfbench-only. */
    double decode_us = 0.0;
};

/**
 * The sampled activation-density probe of density-aware Auto
 * dispatch: the fraction of nonzero values across @p inputs, scanned
 * with a stride so at most a few thousand elements are touched no
 * matter the batch shape (amortized to noise next to the MAC sweep).
 * Returns a negative value for an empty batch (density unknown).
 */
double probeActivationDensity(const Batch &inputs);

/**
 * Execute @p layer on every frame of @p inputs.
 *
 * @param layer   a compiled layer (host stream required)
 * @param inputs  B activation vectors of layer.input_size each
 * @param pool    optional worker pool; when non-null and holding more
 *                than one thread, PE slices execute in parallel
 * @param variant inner-loop selection; Auto resolves to the fastest
 *                bit-exact variant for the layer's formats, this
 *                call's batch size and the probed activation density
 *                (resolveKernelVariant)
 * @param dispatch optional out-param recording the executed variant
 *                and the probed activation density
 * @return B output vectors of layer.output_size each
 */
Batch runBatch(const CompiledLayer &layer, const Batch &inputs,
               WorkerPool *pool = nullptr,
               KernelVariant variant = KernelVariant::Auto,
               DispatchInfo *dispatch = nullptr);

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_EXECUTOR_HH
