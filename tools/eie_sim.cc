/**
 * @file
 * eie_sim — command-line driver for the EIE execution engine.
 *
 * Usage:
 *   eie_sim --list
 *   eie_sim [--benchmark NAME | --all] [--pes N] [--fifo N]
 *           [--width BITS] [--clock GHZ] [--no-bypass] [--relaxed]
 *           [--seed S] [--export-model PATH] [--dump-stats]
 *   eie_sim --throughput B [--threads T] [--kernel V] [--repeats R]
 *           [...]
 *   eie_sim --serve N [--rate RPS] [--backend NAME] [--kernel V]
 *           [--max-batch B] [--max-delay-us U] [--threads T] [...]
 *
 * Runs Table III benchmarks (or one of them) through the
 * cycle-accurate simulator with the requested machine configuration
 * and prints the timing, balance, traffic and energy summary.
 * --export-model writes the EIEM compressed-model file of the chosen
 * benchmark.
 *
 * --throughput switches to the host execution engine: each benchmark
 * layer runs through the unified "compiled" ExecutionBackend on B
 * frames, optionally PE-parallel across T worker threads, with the
 * "scalar" backend as both the baseline timing and the bit-exactness
 * oracle.
 *
 * --serve puts each benchmark layer behind the typed
 * eie::client::Client on a `local:<backend>` endpoint (an in-memory
 * model over a micro-batching InferenceServer) and drives it with
 * synthetic open-loop traffic: N single-vector requests with
 * exponential interarrival gaps at --rate requests/sec (0 =
 * back-to-back), reporting achieved throughput, request latency
 * percentiles and micro-batch statistics per benchmark.
 */

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "compress/model_file.hh"
#include "core/functional.hh"
#include "core/kernel/worker_pool.hh"
#include "core/network_runner.hh"
#include "energy/pe_model.hh"
#include "engine/backend.hh"
#include "engine/server.hh"
#include "nn/generate.hh"
#include "workloads/suite.hh"

namespace {

using namespace eie;

void
usage()
{
    std::cout <<
        "eie_sim — EIE execution-engine driver\n"
        "  --list               list the Table III benchmarks\n"
        "  --benchmark NAME     run one benchmark (default: --all)\n"
        "  --all                run the whole suite\n"
        "  --pes N              number of PEs (default 64)\n"
        "  --fifo N             activation queue depth (default 8)\n"
        "  --width BITS         Spmat SRAM width (default 64)\n"
        "  --clock GHZ          clock in GHz (default 0.8)\n"
        "  --no-bypass          disable the accumulator bypass\n"
        "  --relaxed            warn instead of fail on SRAM capacity\n"
        "  --seed S             workload generation seed\n"
        "  --export-model PATH  write the benchmark's EIEM model file\n"
        "  --dump-stats         print the raw statistics of each run\n"
        "  --throughput B       run the batched host engine, B frames\n"
        "  --threads T          PE-parallel worker threads (default 1)\n"
        "  --kernel V           kernel variant: auto | reference | "
        "vector | actsparse\n"
        "  --act-density D      activation density of generated "
        "inputs, 0..1\n"
        "                       (default: the benchmark's "
        "paper-reported density)\n"
        "  --repeats R          timing repetitions, best wins "
        "(default 3)\n"
        "  --serve N            serve N open-loop requests per "
        "benchmark\n"
        "  --rate RPS           offered request rate (0 = "
        "back-to-back)\n"
        "  --backend NAME       execution backend for --serve "
        "(default compiled)\n"
        "  --max-batch B        micro-batcher batch cap (default 16)\n"
        "  --max-delay-us U     micro-batcher forming deadline "
        "(default 200)\n";
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Quantized open-loop request inputs for one benchmark, at the
 *  paper-reported activation density unless --act-density overrides
 *  it (@p act_density < 0 = use the benchmark's). */
core::kernel::Batch
makeRequestInputs(const workloads::Benchmark &bench,
                  const core::FunctionalModel &model, std::size_t count,
                  std::uint64_t seed, double act_density = -1.0)
{
    const double density =
        act_density < 0.0 ? bench.act_density : act_density;
    core::kernel::Batch inputs;
    inputs.reserve(count);
    for (std::size_t b = 0; b < count; ++b) {
        Rng rng(seed + 77 * b + 1);
        inputs.push_back(model.quantizeInput(
            nn::makeActivations(bench.input, density, rng)));
    }
    return inputs;
}

/** The --throughput mode: scalar oracle vs. compiled batched engine,
 *  both driven through the unified ExecutionBackend API. */
int
runThroughput(workloads::SuiteRunner &runner,
              const std::vector<std::string> &names,
              const core::EieConfig &config, std::size_t batch,
              unsigned threads, core::kernel::KernelVariant kernel,
              unsigned repeats,
              std::uint64_t seed, double act_density)
{
    TextTable table({"Benchmark", "Batch", "Threads", "Scalar f/s",
                     "Batched f/s", "Speedup", "GOP/s", "Exact"});

    for (const std::string &name : names) {
        const auto &bench = workloads::findBenchmark(name);
        const core::FunctionalModel model(config);

        core::NetworkRunner net(config);
        net.addLayer(runner.layer(bench), nn::Nonlinearity::ReLU);

        // B frames at the benchmark's (or the overridden) density.
        const core::kernel::Batch inputs =
            makeRequestInputs(bench, model, batch, seed, act_density);

        // Scalar oracle timing: rep 0 walks the interpreter with work
        // accounting (it doubles as the reference and the GOP/s
        // denominator), further reps go through the scalar backend.
        core::kernel::Batch reference;
        double useful_gops = 0.0;
        double scalar_s = 0.0;
        {
            const auto start = std::chrono::steady_clock::now();
            for (const auto &frame : inputs) {
                auto result = model.run(net.plan(0), frame);
                useful_gops += result.work.usefulGops();
                reference.push_back(std::move(result.output_raw));
            }
            scalar_s = secondsSince(start);
        }
        const engine::ExecutionBackend &scalar = net.backend("scalar");
        for (unsigned rep = 1; rep < repeats; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            reference = scalar.runBatch(inputs).outputs;
            scalar_s = std::min(scalar_s, secondsSince(start));
        }

        // Compiled backend: pre-decoded kernels + worker pool.
        const engine::ExecutionBackend &compiled =
            net.backend("compiled", threads, kernel);
        core::kernel::Batch outputs;
        double batched_s = 0.0;
        for (unsigned rep = 0; rep < repeats; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            outputs = compiled.runBatch(inputs).outputs;
            const double elapsed = secondsSince(start);
            batched_s = rep == 0 ? elapsed
                                 : std::min(batched_s, elapsed);
        }

        bool exact = outputs.size() == reference.size();
        for (std::size_t b = 0; exact && b < outputs.size(); ++b)
            exact = outputs[b] == reference[b];

        const double fbatch = static_cast<double>(batch);
        table.row()
            .add(name)
            .add(static_cast<std::uint64_t>(batch))
            .add(static_cast<std::uint64_t>(threads))
            .add(fbatch / scalar_s, 1)
            .add(fbatch / batched_s, 1)
            .add(scalar_s / batched_s, 2)
            .add(useful_gops / batched_s, 3)
            .add(exact ? "yes" : "NO");
        fatal_if(!exact,
                 "batched output of '%s' diverged from the scalar "
                 "interpreter", name.c_str());
    }

    std::cout << "Host engine: batch " << batch << ", " << threads
              << " thread(s), kernel '"
              << core::kernel::kernelVariantName(kernel) << "'\n";
    table.print(std::cout);
    return 0;
}

/** Serving knobs of the --serve mode. */
struct ServeArgs
{
    std::size_t requests = 0;    ///< 0 = mode off
    double rate = 0.0;           ///< offered req/s; 0 = back-to-back
    std::string backend = "compiled";
    core::kernel::KernelVariant kernel =
        core::kernel::KernelVariant::Auto;
    engine::ServerOptions options;
    double act_density = -1.0; ///< <0 = the benchmark's paper density
};

/** The --serve mode: the typed eie::client::Client over a `local:`
 *  endpoint (in-memory model, micro-batching server underneath)
 *  under synthetic open-loop arrival traffic, one benchmark at a
 *  time. */
int
runServe(workloads::SuiteRunner &runner,
         const std::vector<std::string> &names,
         const core::EieConfig &config, const ServeArgs &args,
         unsigned threads, std::uint64_t seed)
{
    TextTable table({"Benchmark", "Requests", "Offered r/s",
                     "Achieved r/s", "p50 us", "p99 us", "Mean batch",
                     "Max depth", "Shed", "Exact"});
    std::string diverged;

    const std::string endpoint = "local:" + args.backend +
        ",kernel=" +
        core::kernel::kernelVariantName(args.kernel) +
        ",threads=" + std::to_string(threads);

    for (const std::string &name : names) {
        const auto &bench = workloads::findBenchmark(name);
        const core::FunctionalModel model(config);

        core::NetworkRunner net(config);
        net.addLayer(runner.layer(bench), nn::Nonlinearity::ReLU);

        const core::kernel::Batch inputs = makeRequestInputs(
            bench, model, args.requests, seed, args.act_density);

        Rng arrival_rng(seed ^ 0x5e57e11aULL);
        const std::vector<double> arrival_s = engine::openLoopArrivals(
            inputs.size(), args.rate, arrival_rng);

        // The compiled stack goes behind the client API as an
        // in-memory model; the endpoint string picks the backend,
        // kernel variant and worker threads.
        client::ClientOptions options;
        options.config = config;
        options.server = args.options;
        options.models.push_back(
            client::LocalModel{name, {&net.plan(0)}});
        const auto client =
            client::Client::connectOrDie(endpoint, options);

        const auto start = std::chrono::steady_clock::now();
        std::vector<std::future<client::InferenceResult>> futures;
        futures.reserve(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(arrival_s[i]));
            client::InferenceRequest request;
            request.model = name;
            request.fixed.push_back(inputs[i]);
            futures.push_back(client->submit(std::move(request)));
        }
        core::kernel::Batch outputs;
        outputs.reserve(futures.size());
        for (auto &future : futures) {
            client::InferenceResult result = future.get();
            fatal_if(!result.ok(), "request failed: %s",
                     result.status.toString().c_str());
            outputs.push_back(std::move(result.outputs.front()));
        }
        const double wall_s = secondsSince(start);

        // Bit-exactness spot check against the scalar oracle (capped:
        // the oracle is deliberately slow).
        const std::size_t check =
            std::min<std::size_t>(outputs.size(), 16);
        bool exact = true;
        const engine::ExecutionBackend &oracle = net.backend("scalar");
        for (std::size_t i = 0; exact && i < check; ++i)
            exact = outputs[i] ==
                oracle.run(inputs[i]).outputs.front();
        if (!exact)
            diverged = name; // reported (and fatal) after the table

        client::EndpointStats stats;
        fatal_if(!client->stats(stats).ok(),
                 "endpoint stats unavailable");
        table.row()
            .add(name)
            .add(stats.requests)
            .add(args.rate, 1)
            .add(static_cast<double>(stats.requests) / wall_s, 1)
            .add(stats.p50_latency_us, 1)
            .add(stats.p99_latency_us, 1)
            .add(stats.mean_batch, 2)
            .add(static_cast<std::uint64_t>(stats.max_queue_depth))
            .add(stats.requests_shed)
            .add(exact ? "yes" : "NO");
        client->close();
    }

    std::cout << "Serving engine: endpoint '" << endpoint
              << "', max batch " << args.options.max_batch
              << ", forming deadline "
              << args.options.max_delay.count()
              << " us, open-loop arrivals\n";
    table.print(std::cout);
    fatal_if(!diverged.empty(),
             "served output of '%s' diverged from the scalar oracle",
             diverged.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    core::EieConfig config;
    std::uint64_t seed = 2016;
    std::string export_path;
    bool dump_stats = false;
    bool run_all = false;
    std::size_t throughput_batch = 0;
    unsigned threads = 1;
    unsigned repeats = 3;
    ServeArgs serve;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "missing value after %s",
                     arg.c_str());
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            for (const auto &b : workloads::suite())
                std::cout << b.name << "  (" << b.input << " -> "
                          << b.output << ", W "
                          << 100 * b.weight_density << "%, A "
                          << 100 * b.act_density << "%)  "
                          << b.description << "\n";
            return 0;
        } else if (arg == "--benchmark") {
            names.push_back(next());
        } else if (arg == "--all") {
            run_all = true;
        } else if (arg == "--pes") {
            config.n_pe = static_cast<unsigned>(std::stoul(next()));
        } else if (arg == "--fifo") {
            config.fifo_depth =
                static_cast<unsigned>(std::stoul(next()));
        } else if (arg == "--width") {
            config.spmat_width_bits =
                static_cast<unsigned>(std::stoul(next()));
        } else if (arg == "--clock") {
            config.clock_ghz = std::stod(next());
        } else if (arg == "--no-bypass") {
            config.enable_bypass = false;
        } else if (arg == "--relaxed") {
            config.enforce_capacity = false;
        } else if (arg == "--seed") {
            seed = std::stoull(next());
        } else if (arg == "--export-model") {
            export_path = next();
        } else if (arg == "--dump-stats") {
            dump_stats = true;
        } else if (arg == "--throughput") {
            throughput_batch = std::stoul(next());
            fatal_if(throughput_batch == 0,
                     "--throughput needs a batch size >= 1");
        } else if (arg == "--threads") {
            threads = static_cast<unsigned>(std::stoul(next()));
            const unsigned hw =
                core::kernel::WorkerPool::hardwareThreads();
            fatal_if(threads == 0,
                     "--threads needs at least 1 worker (got 0)");
            fatal_if(threads > hw,
                     "--threads %u exceeds this machine's %u hardware "
                     "thread(s); oversubscribing the PE-parallel pool "
                     "only adds contention", threads, hw);
        } else if (arg == "--serve") {
            serve.requests = std::stoul(next());
            fatal_if(serve.requests == 0,
                     "--serve needs at least 1 request");
        } else if (arg == "--rate") {
            serve.rate = std::stod(next());
            fatal_if(serve.rate < 0.0, "--rate must be >= 0");
        } else if (arg == "--backend") {
            // validateBackendName is fatal (listing the valid names)
            // on an unknown value.
            serve.backend = next();
            engine::validateBackendName(serve.backend);
        } else if (arg == "--kernel") {
            // kernelVariantFromName is fatal (listing the valid
            // names) on an unknown value.
            serve.kernel =
                core::kernel::kernelVariantFromName(next());
        } else if (arg == "--max-batch") {
            serve.options.max_batch = std::stoul(next());
            fatal_if(serve.options.max_batch == 0,
                     "--max-batch needs at least 1");
        } else if (arg == "--max-delay-us") {
            const long long us = std::stoll(next());
            fatal_if(us < 0, "--max-delay-us must be >= 0");
            serve.options.max_delay = std::chrono::microseconds(us);
        } else if (arg == "--act-density") {
            serve.act_density = std::stod(next());
            fatal_if(serve.act_density < 0.0 ||
                         serve.act_density > 1.0,
                     "--act-density must be in [0, 1]");
        } else if (arg == "--repeats") {
            repeats = static_cast<unsigned>(std::stoul(next()));
            fatal_if(repeats == 0, "--repeats needs at least 1");
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    config.validate();
    if (names.empty() || run_all)
        for (const auto &b : workloads::suite())
            names.push_back(b.name);

    workloads::SuiteRunner runner(seed);

    if (serve.requests > 0)
        return runServe(runner, names, config, serve, threads, seed);

    if (throughput_batch > 0)
        return runThroughput(runner, names, config, throughput_batch,
                             threads, serve.kernel,
                             repeats, seed, serve.act_density);

    if (!export_path.empty()) {
        fatal_if(names.size() != 1,
                 "--export-model needs exactly one --benchmark");
        const auto &bench = workloads::findBenchmark(names.front());
        const auto plan = runner.plan(bench, config);
        fatal_if(plan.batches() != 1 || plan.passes() != 1,
                 "--export-model supports single-tile layers only "
                 "(this one needs %zu batches x %zu passes)",
                 plan.batches(), plan.passes());
        compress::saveModelFile(export_path,
                                plan.tiles[0][0].storage);
        std::cout << "wrote " << export_path << "\n";
        return 0;
    }

    TextTable table({"Benchmark", "Cycles", "Time(us)", "Theo(us)",
                     "LoadBal", "Entries", "Pad%", "Broadcasts",
                     "Power(W)", "Energy(uJ)"});
    for (const std::string &name : names) {
        const auto &bench = workloads::findBenchmark(name);
        const auto result = runner.runEie(bench, config);
        const auto &s = result.stats;
        const double watts = energy::acceleratorPowerWatts(
            config, energy::PeActivity::fromRun(s));
        table.row()
            .add(name)
            .add(s.cycles)
            .add(s.timeUs(), 2)
            .add(s.theoreticalTimeUs(), 2)
            .addPercent(s.loadBalance())
            .add(s.total_entries)
            .addPercent(s.total_entries
                            ? static_cast<double>(s.padding_entries) /
                              static_cast<double>(s.total_entries)
                            : 0.0)
            .add(s.broadcasts)
            .add(watts, 3)
            .add(energy::runEnergyUj(config, s), 3);
        if (dump_stats)
            s.print(std::cout);
    }

    std::cout << "EIE " << config.n_pe << " PEs @ "
              << config.clock_ghz * 1000 << " MHz, FIFO depth "
              << config.fifo_depth << ", Spmat width "
              << config.spmat_width_bits << "b\n";
    table.print(std::cout);
    return 0;
}
