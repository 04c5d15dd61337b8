/**
 * @file
 * The three concrete execution backends. Most callers should go
 * through makeBackend() and program against ExecutionBackend; the
 * concrete types are exposed for tests and for callers that need a
 * backend-specific knob at construction time.
 */

#ifndef EIE_ENGINE_BACKENDS_HH
#define EIE_ENGINE_BACKENDS_HH

#include <mutex>

#include "core/accelerator.hh"
#include "core/functional.hh"
#include "core/kernel/worker_pool.hh"
#include "engine/backend.hh"

namespace eie::engine {

/** The scalar interpreter oracle (FunctionalModel::run per frame). */
class ScalarBackend : public ExecutionBackend
{
  public:
    /** Keeps the plan pointers: @p plans must outlive the backend. */
    ScalarBackend(const core::EieConfig &config,
                  const std::vector<const core::LayerPlan *> &plans);

    RunReport runBatch(const core::kernel::Batch &inputs) const override;

  private:
    core::FunctionalModel model_;
    std::vector<const core::LayerPlan *> plans_;
};

/** A pre-decoded layer stack shareable between backends (read-only
 *  after construction; see compileLayerStack). */
using CompiledStack = std::vector<core::kernel::CompiledLayer>;

/**
 * Lower @p plans into the pre-decoded kernel format once, for sharing
 * across several CompiledBackend instances: replicated serving shards
 * execute the same immutable arrays instead of compiling (and
 * holding) one copy each. @p options tunes the compile; a stack for
 * CompiledBackend comes from compiledStackOptions().
 *
 * The returned stack also keeps the process-wide
 * `eie_model_resident_bytes` gauge current: the stack's resident
 * stream footprint is added on compile and subtracted when the last
 * shared reference drops.
 */
std::shared_ptr<const CompiledStack>
compileLayerStack(const core::EieConfig &config,
                  const std::vector<const core::LayerPlan *> &plans,
                  const core::kernel::CompileOptions &options = {});

/**
 * Compile options for a stack whose consumers all run @p threads
 * worker threads: each tile's host stream is cut into
 * max(1, @p threads) contiguous row blocks, one per worker, so a
 * serial stack keeps one block — the whole merged stream. The one
 * rule both CompiledBackend and the serving cluster's shared stacks
 * follow; CompiledBackend refuses a stack cut for another count.
 *
 * The kernel variant does not shape the compile; the unnamed
 * parameter is perfbench-only (its harness calls the two-argument
 * form).
 */
core::kernel::CompileOptions
compiledStackOptions(unsigned threads, core::kernel::KernelVariant);

/**
 * The compiled host-kernel path: resident (row, codebook index)
 * streams, column sweeps amortized over the batch, row-parallel worker
 * pool, inner loop selected by kernel variant
 * (core/kernel/variant.hh; Auto picks the fastest bit-exact loop per
 * call). Compiles every layer at construction (or adopts a
 * pre-compiled shared stack) and does not retain the plans.
 * Concurrent runBatch() callers serialize on the shared pool.
 */
class CompiledBackend : public ExecutionBackend
{
  public:
    CompiledBackend(const core::EieConfig &config,
                    const std::vector<const core::LayerPlan *> &plans,
                    unsigned threads,
                    core::kernel::KernelVariant kernel =
                        core::kernel::KernelVariant::Auto);

    /** Adopt @p layers compiled by compileLayerStack() from the same
     *  plan stack with compiledStackOptions(@p threads) — the layers
     *  are shared, not copied, so N backends over one stack hold one
     *  set of pre-decoded arrays. Fatal when a layer was cut into a
     *  row block count other than max(1, @p threads). */
    CompiledBackend(const std::vector<const core::LayerPlan *> &plans,
                    std::shared_ptr<const CompiledStack> layers,
                    unsigned threads,
                    core::kernel::KernelVariant kernel =
                        core::kernel::KernelVariant::Auto);

    unsigned threads() const;

    /** The kernel variant every runBatch() dispatches with. */
    core::kernel::KernelVariant kernel() const { return kernel_; }

    RunReport runBatch(const core::kernel::Batch &inputs) const override;

  private:
    std::shared_ptr<const CompiledStack> layers_;
    core::kernel::KernelVariant kernel_;
    mutable std::mutex pool_mutex_; ///< parallelFor is single-caller
    mutable std::unique_ptr<core::kernel::WorkerPool> pool_;
};

/**
 * The cycle-accurate simulator path. Compiles every layer (with the
 * simulator stream) at construction and does not retain the plans;
 * each frame runs the full timing model and contributes one
 * RunStats row per layer to the report.
 */
class SimBackend : public ExecutionBackend
{
  public:
    SimBackend(const core::EieConfig &config,
               const std::vector<const core::LayerPlan *> &plans);

    bool timed() const override { return true; }

    RunReport runBatch(const core::kernel::Batch &inputs) const override;

  private:
    core::Accelerator accelerator_;
    std::vector<core::kernel::CompiledLayer> layers_;
};

} // namespace eie::engine

#endif // EIE_ENGINE_BACKENDS_HH
