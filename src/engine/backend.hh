/**
 * @file
 * The unified execution-path abstraction.
 *
 * The engine executes compiled layer stacks through three bit-exact
 * paths — the scalar interpreter oracle, the compiled host kernel and
 * the cycle-accurate simulator. Historically each was a bespoke entry
 * point (FunctionalModel::run, kernel::runBatch, Accelerator) that
 * every tool and bench wired up by hand; ExecutionBackend puts one
 * interface in front of all three, selected by name, so any caller
 * can swap paths with a string. All backends return the same
 * RunReport; the timed backend additionally fills per-frame,
 * per-layer RunStats.
 */

#ifndef EIE_ENGINE_BACKEND_HH
#define EIE_ENGINE_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/kernel/executor.hh"
#include "core/plan.hh"
#include "core/run_stats.hh"

namespace eie::engine {

/**
 * One layer's kernel dispatch decision for a runBatch call: which
 * variant actually executed and the measured (sampled) activation
 * density of its input. Filled by the compiled backend; surfaced
 * through ServerStats / statsJson / Client::stats() so the decision
 * is observable end to end.
 */
struct LayerDispatch
{
    std::string layer;         ///< compiled layer name
    std::string kernel;        ///< executed variant registry name
    double act_density = -1.0; ///< sampled nonzero input fraction
    std::uint64_t resident_bytes = 0; ///< the layer's resident stream bytes
};

/** What one backend execution produced. */
struct RunReport
{
    /** One output vector per input frame (raw fixed point). */
    core::kernel::Batch outputs;

    /**
     * stats[frame][layer]: cycle-level statistics, filled only by
     * timed backends (ExecutionBackend::timed()); empty otherwise.
     */
    std::vector<std::vector<core::RunStats>> stats;

    /** Per-layer kernel dispatch decisions, filled by the compiled
     *  backend (empty for scalar/sim). */
    std::vector<LayerDispatch> dispatch;

    /** Total simulated cycles over all frames and layers (0 untimed). */
    std::uint64_t totalCycles() const;

    /** Total simulated time over all frames and layers, microseconds. */
    double totalTimeUs() const;
};

/**
 * One execution path over a fixed stack of planned layers.
 *
 * Implementations are immutable after construction and safe to call
 * from several threads; the compiled backend serializes concurrent
 * runBatch() calls internally (they share one worker pool).
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    ExecutionBackend(const ExecutionBackend &) = delete;
    ExecutionBackend &operator=(const ExecutionBackend &) = delete;

    /** The backend's registry name ("scalar", "compiled", "sim"). */
    const std::string &name() const { return name_; }

    /** Whether runBatch() fills RunReport::stats. */
    virtual bool timed() const { return false; }

    std::size_t inputSize() const { return input_size_; }
    std::size_t outputSize() const { return output_size_; }
    std::size_t layerCount() const { return layer_count_; }

    /**
     * Run every frame of @p inputs through the whole layer stack.
     * Outputs are bit-identical across all backends for the same
     * inputs.
     */
    virtual RunReport runBatch(const core::kernel::Batch &inputs) const = 0;

    /** Single-frame convenience wrapper around runBatch(). */
    RunReport run(const std::vector<std::int64_t> &input_raw) const;

  protected:
    /** Validates the stack (non-empty, chained sizes, non-null). */
    ExecutionBackend(std::string name,
                     const std::vector<const core::LayerPlan *> &plans);

  private:
    std::string name_;
    std::size_t input_size_ = 0;
    std::size_t output_size_ = 0;
    std::size_t layer_count_ = 0;
};

/** The registered backend names, factory order. */
const std::vector<std::string> &backendNames();

/** Fatal — listing the registered names — unless @p name is one of
 *  them. For CLI flag validation at parse time; makeBackend calls it
 *  too, so both paths emit one error message. */
void validateBackendName(const std::string &name);

/**
 * Build a backend by name over @p plans (the layer stack in execution
 * order; sizes must chain).
 *
 *  - "scalar"   — FunctionalModel interpreter, the bit-exactness
 *                 oracle. Keeps the plan pointers: the plans must
 *                 outlive the backend.
 *  - "compiled" — pre-decoded kernel path with a persistent
 *                 row-parallel worker pool of @p threads workers and
 *                 the requested kernel variant. Compiles at
 *                 construction; does not retain the plans.
 *  - "sim"      — cycle-accurate simulator, timing stats in the
 *                 report. Compiles (with the simulator stream) at
 *                 construction; does not retain the plans.
 *
 * @p kernel selects the compiled backend's inner loop (see
 * core/kernel/variant.hh); the other backends ignore it.
 *
 * Fatal on an unknown name, an empty stack, or a non-chaining stack.
 */
std::unique_ptr<ExecutionBackend>
makeBackend(const std::string &name, const core::EieConfig &config,
            const std::vector<const core::LayerPlan *> &plans,
            unsigned threads = 1,
            core::kernel::KernelVariant kernel =
                core::kernel::KernelVariant::Auto);

} // namespace eie::engine

#endif // EIE_ENGINE_BACKEND_HH
