/**
 * @file
 * Batched, variant-dispatched execution of a CompiledLayer.
 *
 * One sweep over the compressed columns is amortized across the whole
 * batch. The inner loop is selected by KernelVariant (see
 * variant.hh): the vector variant's SIMD loops over int32
 * accumulators — for two or more frames the frame-lane sweep (each
 * entry's saturating MAC runs on every frame at once, over rows padded
 * to whole 8-lane blocks), for one frame the row lanes (8 entries of a
 * nonzero column at once, each lane on its own row, as the PEs take a
 * broadcast column) — or the int64 actsparse walk (each column lists
 * its nonzero frames — the paper's NZ-detect stage — and the inner
 * loop touches only columns with a nonzero frame; the row lanes walk
 * the same list). Every loop preserves the exact per-accumulator
 * update sequence of the scalar interpreter (passes, then columns,
 * then at most one entry per accumulator per column; a zero activation
 * contributes a zero product and sat(acc + 0) == acc), so outputs are
 * bit-exact with FunctionalModel::run — saturation order included —
 * regardless of the variant.
 *
 * Parallel execution splits the work across a tile's contiguous row
 * blocks (see compiled_layer.hh): a worker pool hands one block to
 * each worker, and a block only ever writes its own rows, so threads
 * share the accumulator buffer without synchronization or write
 * conflicts. A serial run walks the blocks in order, whichever loop
 * the variant selects. Both loops walk the resident (row, codebook
 * index) entries in place and expand each weight through the layer's
 * table, as the PE does; nothing is decoded per call.
 *
 * Inputs are raw act_format values (quantizeInput or a previous
 * layer's outputs); the vector variant relies on that contract to
 * keep its 32-bit lanes exact, and runBatch enforces it — a batch
 * containing any out-of-format activation (e.g. unvalidated remote
 * input) executes on the actsparse loop instead, preserving the
 * defined wide-integer semantics without a crash path. So does every
 * vector call on a CPU without AVX2, which has no vector loops
 * (simdIsaName() reads "none").
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
 * fraction of nonzero input activations. Surfaced through RunReport /
 * ServerStats / statsJson so the decision and the input's sparsity
 * are visible across the serving stack.
 */
struct DispatchInfo
{
    KernelVariant variant = KernelVariant::Auto; ///< executed variant
    double act_density = -1.0; ///< sampled nonzero fraction, <0 unknown

    /** Always 0: no stream is decoded per call. perfbench-only. */
    double decode_us = 0.0;
};

/**
 * The sampled activation-density probe behind DispatchInfo: the
 * fraction of nonzero values across @p inputs, scanned with a stride
 * so at most a few thousand elements are touched no matter the batch
 * shape (amortized to noise next to the MAC sweep).
 * Returns a negative value for an empty batch (density unknown).
 */
double probeActivationDensity(const Batch &inputs);

/**
 * Execute @p layer on every frame of @p inputs.
 *
 * @param layer   a compiled layer (host stream required)
 * @param inputs  B activation vectors of layer.input_size each
 * @param pool    optional worker pool; when non-null and holding more
 *                than one thread, a tile's row blocks execute in
 *                parallel
 * @param variant inner-loop selection; Auto resolves to the fastest
 *                bit-exact variant for the layer's formats and this
 *                call's batch size (resolveKernelVariant)
 * @param dispatch optional out-param recording the executed variant
 *                (actsparse where a vector call could not run on the
 *                lanes) and the probed activation density
 * @return B output vectors of layer.output_size each
 */
Batch runBatch(const CompiledLayer &layer, const Batch &inputs,
               WorkerPool *pool = nullptr,
               KernelVariant variant = KernelVariant::Auto,
               DispatchInfo *dispatch = nullptr);

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_EXECUTOR_HH
