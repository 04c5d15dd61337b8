/**
 * @file
 * Multi-layer feed-forward execution on one EIE instance.
 *
 * §IV "Activation Read/Write": the source and destination activation
 * register files exchange roles between layers, "thus no additional
 * data transfer is needed to support multi-layer feed-forward
 * computation". NetworkRunner captures that usage: compile a stack of
 * compressed layers once, then run inputs through the whole stack
 * with raw fixed-point activations flowing layer to layer.
 *
 * Execution goes through the unified engine::ExecutionBackend API:
 * the runner owns one lazily-built backend per (name, threads) pair —
 * run() drives the cycle-accurate "sim" backend, runBatch() the
 * "compiled" kernel backend — and backend() hands any of the three
 * paths to callers that want to drive them directly (or to wrap in an
 * engine::InferenceServer).
 */

#ifndef EIE_CORE_NETWORK_RUNNER_HH
#define EIE_CORE_NETWORK_RUNNER_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/functional.hh"
#include "core/kernel/executor.hh"
#include "core/plan.hh"
#include "core/run_stats.hh"
#include "nn/layer.hh"

namespace eie::engine {
class ExecutionBackend;
} // namespace eie::engine

namespace eie::core {

/** Per-layer and end-to-end results of one network inference. */
struct NetworkResult
{
    std::vector<std::int64_t> output_raw;
    std::vector<RunStats> per_layer;

    /** Total cycles across all layers. */
    std::uint64_t totalCycles() const;

    /** End-to-end latency in microseconds. */
    double totalTimeUs() const;
};

/** A compiled stack of compressed FC layers. */
class NetworkRunner
{
  public:
    explicit NetworkRunner(const EieConfig &config);
    ~NetworkRunner();

    NetworkRunner(const NetworkRunner &) = delete;
    NetworkRunner &operator=(const NetworkRunner &) = delete;

    /**
     * Append a layer (compiled immediately). The layer object must
     * outlive the runner. Layer input sizes must chain: the first
     * layer defines the network input size, each further layer's
     * input must equal the previous layer's output. Invalidates every
     * backend previously returned by backend().
     */
    void addLayer(const compress::CompressedLayer &layer,
                  nn::Nonlinearity nonlin);

    /** Number of layers added. */
    std::size_t layerCount() const { return plans_.size(); }

    /** The compiled plan of layer @p i (for oracles and analyses). */
    const LayerPlan &
    plan(std::size_t i) const
    {
        fatal_if(i >= plans_.size(), "layer %zu out of %zu", i,
                 plans_.size());
        return plans_[i];
    }

    /** The compiled plans of the whole stack, execution order. */
    const std::vector<LayerPlan> &plans() const { return plans_; }

    /** The machine configuration the stack was compiled for. */
    const EieConfig &config() const { return config_; }

    std::size_t inputSize() const;
    std::size_t outputSize() const;

    /**
     * The execution backend @p name ("scalar", "compiled", "sim")
     * over this network, built on first use and cached per
     * (name, threads, kernel). The reference stays valid
     * until the next addLayer() or the runner's destruction.
     * Thread-safe.
     *
     * @param threads   row-parallel worker threads (compiled backend
     *                  only; the other backends ignore it)
     * @param kernel    compiled backend's kernel variant (see
     *                  core/kernel/variant.hh; the other backends
     *                  ignore it)
     */
    engine::ExecutionBackend &
    backend(const std::string &name, unsigned threads = 1,
            kernel::KernelVariant kernel =
                kernel::KernelVariant::Auto) const;

    /** Run one input through the whole stack (raw fixed point) on the
     *  cycle-accurate backend, returning per-layer timing. */
    NetworkResult run(const std::vector<std::int64_t> &input_raw) const;

    /** Float convenience wrapper. */
    nn::Vector runFloat(const nn::Vector &input,
                        NetworkResult *result_out = nullptr) const;

    /**
     * Throughput path: run a batch of inputs through the whole stack
     * on the compiled backend (pre-decoded kernels, cached across
     * calls). Activations ping-pong between layers exactly as in
     * run(); outputs are bit-exact with running each frame through
     * run() individually.
     *
     * Thread-safe, but concurrent callers on the same thread count
     * serialize (they share one worker pool). For concurrent serving
     * use engine::InferenceServer, which owns the batching.
     *
     * @param threads row-parallel worker threads (1 = single-threaded).
     *                The backend (pool included) persists per thread
     *                count.
     * @param kernel  kernel variant (Auto = fastest bit-exact for the
     *                layer formats and call shape)
     */
    kernel::Batch runBatch(const kernel::Batch &inputs,
                           unsigned threads = 1,
                           kernel::KernelVariant kernel =
                               kernel::KernelVariant::Auto) const;

    /** Float convenience wrapper around runBatch(). */
    std::vector<nn::Vector>
    runFloatBatch(const std::vector<nn::Vector> &inputs,
                  unsigned threads = 1) const;

  private:
    EieConfig config_;
    FunctionalModel functional_;
    std::vector<LayerPlan> plans_;

    /** Backend cache keyed by "name/threads/kernel", built
     *  lazily and invalidated by addLayer(); guarded by
     *  backend_mutex_. */
    mutable std::mutex backend_mutex_;
    mutable std::map<std::string,
                     std::unique_ptr<engine::ExecutionBackend>>
        backends_;
};

} // namespace eie::core

#endif // EIE_CORE_NETWORK_RUNNER_HH
