#include "core/network_runner.hh"

#include "engine/backend.hh"

namespace eie::core {

std::uint64_t
NetworkResult::totalCycles() const
{
    std::uint64_t total = 0;
    for (const RunStats &stats : per_layer)
        total += stats.cycles;
    return total;
}

double
NetworkResult::totalTimeUs() const
{
    double total = 0.0;
    for (const RunStats &stats : per_layer)
        total += stats.timeUs();
    return total;
}

NetworkRunner::NetworkRunner(const EieConfig &config)
    : config_(config), functional_(config)
{}

NetworkRunner::~NetworkRunner() = default;

void
NetworkRunner::addLayer(const compress::CompressedLayer &layer,
                        nn::Nonlinearity nonlin)
{
    fatal_if(!plans_.empty() &&
             plans_.back().output_size != layer.inputSize(),
             "layer '%s' input size %zu does not chain with previous "
             "output size %zu", layer.name().c_str(),
             layer.inputSize(), plans_.back().output_size);
    plans_.push_back(planLayer(layer, nonlin, config_));
    // The stack changed: every cached backend describes the old one.
    std::lock_guard<std::mutex> lock(backend_mutex_);
    backends_.clear();
}

std::size_t
NetworkRunner::inputSize() const
{
    fatal_if(plans_.empty(), "network has no layers");
    return plans_.front().input_size;
}

std::size_t
NetworkRunner::outputSize() const
{
    fatal_if(plans_.empty(), "network has no layers");
    return plans_.back().output_size;
}

engine::ExecutionBackend &
NetworkRunner::backend(const std::string &name, unsigned threads,
                       kernel::KernelVariant kernel) const
{
    fatal_if(plans_.empty(), "network has no layers");

    // Only the compiled backend consumes the thread count and the
    // kernel variant; normalize the key so scalar/sim
    // requests at different counts share one backend (a SimBackend
    // holds the full compiled image).
    const bool compiled = name == "compiled";
    const unsigned effective = compiled ? threads : 1;
    const kernel::KernelVariant effective_kernel =
        compiled ? kernel : kernel::KernelVariant::Auto;
    const std::string key = name + "/" + std::to_string(effective) +
        "/" + kernel::kernelVariantName(effective_kernel);
    std::lock_guard<std::mutex> lock(backend_mutex_);
    auto it = backends_.find(key);
    if (it == backends_.end()) {
        std::vector<const LayerPlan *> plan_ptrs;
        plan_ptrs.reserve(plans_.size());
        for (const LayerPlan &plan : plans_)
            plan_ptrs.push_back(&plan);
        it = backends_
                 .emplace(key,
                          engine::makeBackend(name, config_, plan_ptrs,
                                              threads, effective_kernel))
                 .first;
    }
    return *it->second;
}

NetworkResult
NetworkRunner::run(const std::vector<std::int64_t> &input_raw) const
{
    engine::RunReport report = backend("sim").run(input_raw);
    NetworkResult result;
    result.output_raw = std::move(report.outputs.front());
    result.per_layer = std::move(report.stats.front());
    return result;
}

kernel::Batch
NetworkRunner::runBatch(const kernel::Batch &inputs, unsigned threads,
                        kernel::KernelVariant kernel) const
{
    return backend("compiled", threads, kernel)
        .runBatch(inputs)
        .outputs;
}

std::vector<nn::Vector>
NetworkRunner::runFloatBatch(const std::vector<nn::Vector> &inputs,
                             unsigned threads) const
{
    kernel::Batch raw;
    raw.reserve(inputs.size());
    for (const nn::Vector &input : inputs)
        raw.push_back(functional_.quantizeInput(input));
    const kernel::Batch out = runBatch(raw, threads);
    std::vector<nn::Vector> result;
    result.reserve(out.size());
    for (const auto &frame : out)
        result.push_back(functional_.dequantize(frame));
    return result;
}

nn::Vector
NetworkRunner::runFloat(const nn::Vector &input,
                        NetworkResult *result_out) const
{
    NetworkResult result = run(functional_.quantizeInput(input));
    nn::Vector output = functional_.dequantize(result.output_raw);
    if (result_out)
        *result_out = std::move(result);
    return output;
}

} // namespace eie::core
