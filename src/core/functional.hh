/**
 * @file
 * Untimed, bit-exact functional model of EIE.
 *
 * Executes a LayerPlan with exactly the datapath semantics of the
 * hardware — 4-bit codebook decode to 16-bit fixed point, saturating
 * multiply-accumulate in column-broadcast order, padding entries as
 * real (zero-valued) work — but without cycle timing. It is the golden
 * reference the cycle-accurate simulator must match bit-for-bit, and
 * its work counts drive the "theoretical time" analyses (§VI-A).
 */

#ifndef EIE_CORE_FUNCTIONAL_HH
#define EIE_CORE_FUNCTIONAL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/kernel/variant.hh"
#include "core/plan.hh"
#include "nn/tensor.hh"

namespace eie::core {

/** Work accounting from a functional execution. */
struct WorkStats
{
    /** (v,z) entries walked, including padding. */
    std::uint64_t total_entries = 0;
    /** Padding entries walked. */
    std::uint64_t padding_entries = 0;
    /** Non-zero activations broadcast (summed over batches/passes —
     *  each batch re-scans the input). */
    std::uint64_t broadcasts = 0;
    /** Entries walked per PE (load-balance denominator). */
    std::vector<std::uint64_t> pe_entries;

    /** Perfect-balance cycle count: ceil(total_entries / n_pe). */
    std::uint64_t theoreticalCycles(unsigned n_pe) const;

    /** Useful (non-padding) multiply-accumulates x2 = GOPs executed
     *  on the compressed network. */
    double usefulGops() const;
};

/** Output and work accounting of one functional layer execution. */
struct FunctionalResult
{
    std::vector<std::int64_t> output_raw;
    WorkStats work;
};

/** The untimed reference machine. */
class FunctionalModel
{
  public:
    explicit FunctionalModel(const EieConfig &config);
    ~FunctionalModel();

    /** Copies share the configuration but not the batch-path cache. */
    FunctionalModel(const FunctionalModel &other);
    FunctionalModel &operator=(const FunctionalModel &other);

    /**
     * Execute a planned layer on a raw fixed-point input vector.
     * Zero activations are skipped exactly as the LNZD broadcast
     * would skip them.
     */
    FunctionalResult run(const LayerPlan &plan,
                         const std::vector<std::int64_t> &input_raw) const;

    /**
     * Execute a planned layer on a batch of input vectors through the
     * engine's "compiled" ExecutionBackend (pre-decoded format, one
     * column sweep amortized over the batch; see core/kernel/ and
     * engine/backend.hh). Bit-exact with run() on every frame.
     *
     * The compiled backend — pre-decoded layer plus worker pool — is
     * cached across calls, keyed by a content fingerprint of the
     * plan, so steady callers compile and spawn threads once. Layer
     * stacks should use NetworkRunner, which owns per-network
     * backends.
     *
     * @param threads worker threads for row-parallel execution (1 =
     *                single-threaded, the default)
     * @param kernel  kernel variant for the compiled backend's inner
     *                loop (see core/kernel/variant.hh; Auto = fastest
     *                bit-exact for the configured formats)
     */
    std::vector<std::vector<std::int64_t>>
    runBatch(const LayerPlan &plan,
             const std::vector<std::vector<std::int64_t>> &inputs,
             unsigned threads = 1,
             kernel::KernelVariant kernel =
                 kernel::KernelVariant::Auto) const;

    /** Quantise a float vector into the configured activation format. */
    std::vector<std::int64_t> quantizeInput(const nn::Vector &input) const;

    /** Convert raw outputs back to floats. */
    nn::Vector dequantize(const std::vector<std::int64_t> &raw) const;

  private:
    EieConfig config_;

    /** Batch-path cache (compiled backend + plan fingerprint),
     *  mutex-guarded internally; see functional.cc. */
    struct BatchCache;
    mutable std::unique_ptr<BatchCache> batch_cache_;
};

} // namespace eie::core

#endif // EIE_CORE_FUNCTIONAL_HH
