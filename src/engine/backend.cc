#include "engine/backend.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"
#include "engine/backends.hh"
#include "obs/metrics.hh"

namespace eie::engine {

namespace {

void
checkInputs(const ExecutionBackend &backend,
            const core::kernel::Batch &inputs)
{
    for (const auto &input : inputs)
        panic_if(input.size() != backend.inputSize(),
                 "input length %zu != network input size %zu",
                 input.size(), backend.inputSize());
}

} // namespace

std::uint64_t
RunReport::totalCycles() const
{
    std::uint64_t total = 0;
    for (const auto &frame : stats)
        for (const core::RunStats &layer : frame)
            total += layer.cycles;
    return total;
}

double
RunReport::totalTimeUs() const
{
    double total = 0.0;
    for (const auto &frame : stats)
        for (const core::RunStats &layer : frame)
            total += layer.timeUs();
    return total;
}

ExecutionBackend::ExecutionBackend(
    std::string name, const std::vector<const core::LayerPlan *> &plans)
    : name_(std::move(name))
{
    fatal_if(plans.empty(), "backend needs at least one layer");
    for (std::size_t i = 0; i < plans.size(); ++i) {
        fatal_if(plans[i] == nullptr, "layer %zu is null", i);
        fatal_if(i > 0 && plans[i]->input_size !=
                              plans[i - 1]->output_size,
                 "layer '%s' input size %zu does not chain with "
                 "previous output size %zu", plans[i]->name.c_str(),
                 plans[i]->input_size, plans[i - 1]->output_size);
    }
    input_size_ = plans.front()->input_size;
    output_size_ = plans.back()->output_size;
    layer_count_ = plans.size();
}

RunReport
ExecutionBackend::run(const std::vector<std::int64_t> &input_raw) const
{
    return runBatch(core::kernel::Batch{input_raw});
}

const std::vector<std::string> &
backendNames()
{
    static const std::vector<std::string> names{"scalar", "compiled",
                                                "sim"};
    return names;
}

void
validateBackendName(const std::string &name)
{
    std::string known;
    for (const std::string &n : backendNames()) {
        if (n == name)
            return;
        known += (known.empty() ? "" : ", ") + n;
    }
    fatal("unknown execution backend '%s' (known: %s)", name.c_str(),
          known.c_str());
}

std::unique_ptr<ExecutionBackend>
makeBackend(const std::string &name, const core::EieConfig &config,
            const std::vector<const core::LayerPlan *> &plans,
            unsigned threads, core::kernel::KernelVariant kernel)
{
    validateBackendName(name);
    if (name == "scalar")
        return std::make_unique<ScalarBackend>(config, plans);
    if (name == "compiled")
        return std::make_unique<CompiledBackend>(config, plans, threads,
                                                 kernel);
    panic_if(name != "sim", "backend registry out of sync with '%s'",
             name.c_str());
    return std::make_unique<SimBackend>(config, plans);
}

// ------------------------------------------------------------- scalar

ScalarBackend::ScalarBackend(
    const core::EieConfig &config,
    const std::vector<const core::LayerPlan *> &plans)
    : ExecutionBackend("scalar", plans), model_(config), plans_(plans)
{}

RunReport
ScalarBackend::runBatch(const core::kernel::Batch &inputs) const
{
    checkInputs(*this, inputs);
    RunReport report;
    report.outputs.reserve(inputs.size());
    for (const auto &input : inputs) {
        std::vector<std::int64_t> act = input;
        for (const core::LayerPlan *plan : plans_)
            act = model_.run(*plan, act).output_raw;
        report.outputs.push_back(std::move(act));
    }
    return report;
}

// ----------------------------------------------------------- compiled

namespace {

/** Resident stream bytes over a whole stack. */
std::uint64_t
stackResidentBytes(const CompiledStack &layers)
{
    std::uint64_t total = 0;
    for (const core::kernel::CompiledLayer &layer : layers)
        total += layer.residentStreamBytes();
    return total;
}

/** Process-wide resident stream footprint across every live compiled
 *  stack, mirrored into the `eie_model_resident_bytes` gauge. */
std::atomic<std::int64_t> g_resident_bytes{0};

void
accountResidentBytes(std::int64_t delta)
{
    const std::int64_t total =
        g_resident_bytes.fetch_add(delta, std::memory_order_relaxed) +
        delta;
    obs::processRegistry()
        .gauge("eie_model_resident_bytes")
        .set(static_cast<double>(total));
}

} // namespace

std::shared_ptr<const CompiledStack>
compileLayerStack(const core::EieConfig &config,
                  const std::vector<const core::LayerPlan *> &plans,
                  const core::kernel::CompileOptions &options)
{
    auto layers = std::make_unique<CompiledStack>();
    layers->reserve(plans.size());
    for (const core::LayerPlan *plan : plans) {
        fatal_if(plan == nullptr, "null layer plan");
        layers->push_back(core::kernel::CompiledLayer::compile(
            *plan, config, options));
    }
    // The gauge tracks live resident bytes: credited here, debited by
    // the deleter when the last shared reference drops.
    const std::int64_t bytes =
        static_cast<std::int64_t>(stackResidentBytes(*layers));
    accountResidentBytes(bytes);
    return std::shared_ptr<const CompiledStack>(
        layers.release(), [bytes](const CompiledStack *stack) {
            accountResidentBytes(-bytes);
            delete stack;
        });
}

core::kernel::CompileOptions
compiledStackOptions(unsigned threads, core::kernel::KernelVariant)
{
    core::kernel::CompileOptions options;
    options.row_blocks = std::max(1u, threads);
    return options;
}

CompiledBackend::CompiledBackend(
    const core::EieConfig &config,
    const std::vector<const core::LayerPlan *> &plans, unsigned threads,
    core::kernel::KernelVariant kernel)
    : CompiledBackend(
          plans,
          compileLayerStack(config, plans,
                            compiledStackOptions(threads, kernel)),
          threads, kernel)
{}

CompiledBackend::CompiledBackend(
    const std::vector<const core::LayerPlan *> &plans,
    std::shared_ptr<const CompiledStack> layers, unsigned threads,
    core::kernel::KernelVariant kernel)
    : ExecutionBackend("compiled", plans), layers_(std::move(layers)),
      kernel_(kernel)
{
    fatal_if(!layers_ || layers_->size() != plans.size(),
             "compiled stack does not match the plan stack");
    // A pool walks one row block per worker: a stack cut for another
    // thread count would run unbalanced, or serially on one block.
    const unsigned blocks = std::max(1u, threads);
    for (const core::kernel::CompiledLayer &layer : *layers_)
        fatal_if(layer.row_blocks != blocks,
                 "layer '%s' was compiled into %u row blocks, not the "
                 "%u of a %u-thread backend (compiledStackOptions)",
                 layer.name.c_str(), layer.row_blocks, blocks, threads);
    // Surface an ineligible explicit "vector" request at construction
    // (listing the offending layer) instead of on the first runBatch.
    if (kernel_ == core::kernel::KernelVariant::Vector)
        for (const core::kernel::CompiledLayer &layer : *layers_)
            core::kernel::resolveKernelVariant(kernel_, layer,
                                               /*batch=*/1);
    if (threads > 1)
        pool_ = std::make_unique<core::kernel::WorkerPool>(threads);
}

unsigned
CompiledBackend::threads() const
{
    return pool_ ? pool_->threads() : 1;
}

RunReport
CompiledBackend::runBatch(const core::kernel::Batch &inputs) const
{
    checkInputs(*this, inputs);
    // The pool's parallelFor is single-caller, so pooled execution
    // serializes; without a pool the layers are read-only shared
    // state and concurrent callers proceed in parallel.
    std::unique_lock<std::mutex> lock(pool_mutex_, std::defer_lock);
    if (pool_)
        lock.lock();
    RunReport report;
    report.dispatch.reserve(layers_->size());
    const core::kernel::Batch *act = &inputs;
    for (const core::kernel::CompiledLayer &layer : *layers_) {
        core::kernel::DispatchInfo info;
        report.outputs = core::kernel::runBatch(layer, *act, pool_.get(),
                                                kernel_, &info);
        report.dispatch.push_back(
            {layer.name, core::kernel::kernelVariantName(info.variant),
             info.act_density, layer.resident_bytes});
        act = &report.outputs;
    }
    return report;
}

// ---------------------------------------------------------------- sim

SimBackend::SimBackend(const core::EieConfig &config,
                       const std::vector<const core::LayerPlan *> &plans)
    : ExecutionBackend("sim", plans), accelerator_(config)
{
    core::kernel::CompileOptions options;
    options.host_stream = false; // the sim walks only the SimEntry image
    options.sim_stream = true;
    layers_.reserve(plans.size());
    for (const core::LayerPlan *plan : plans)
        layers_.push_back(
            core::kernel::CompiledLayer::compile(*plan, config,
                                                 options));
}

RunReport
SimBackend::runBatch(const core::kernel::Batch &inputs) const
{
    checkInputs(*this, inputs);
    RunReport report;
    report.outputs.reserve(inputs.size());
    report.stats.reserve(inputs.size());
    for (const auto &input : inputs) {
        std::vector<std::int64_t> act = input;
        std::vector<core::RunStats> frame_stats;
        frame_stats.reserve(layers_.size());
        for (const core::kernel::CompiledLayer &layer : layers_) {
            core::RunResult result = accelerator_.run(layer, act);
            act = std::move(result.output_raw);
            frame_stats.push_back(std::move(result.stats));
        }
        report.outputs.push_back(std::move(act));
        report.stats.push_back(std::move(frame_stats));
    }
    return report;
}

} // namespace eie::engine
