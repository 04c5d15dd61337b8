/**
 * @file
 * eie_serve — the EIE serving-cluster daemon and its client.
 *
 * Registry management:
 *   eie_serve --registry DIR --publish NAME
 *             [--benchmark B | --rows R --cols C --density D]
 *             [--version V] [--pes N] [--seed S]
 *   eie_serve --registry DIR --list-models
 *
 * Daemon (loopback TCP front end over a sharded cluster per model):
 *   eie_serve --registry DIR --listen PORT [--shards N]
 *             [--policy replicated|partitioned] [--backend NAME]
 *             [--kernel V] [--threads-per-shard T]
 *             [--max-batch B] [--max-delay-us U] [--pes N]
 *             [--duration-s S]
 *
 * Client (open-loop or back-to-back pipelined traffic):
 *   eie_serve --connect HOST:PORT --model NAME [--version V]
 *             [--requests N] [--rate RPS] [--window W]
 *             [--distinct D] [--act-density A] [--priority P]
 *             [--deadline-us U] [--check] [--registry DIR]
 *             [--pes N] [--seed S] [--stats-json]
 *
 * Observability queries against a running daemon:
 *   eie_serve --connect HOST:PORT stats [--watch SEC]
 *   eie_serve --connect HOST:PORT trace-dump
 *   eie_serve --connect HOST:PORT --stats-json
 * and the daemon itself exports Prometheus plaintext at
 * http://127.0.0.1:PORT/metrics with --metrics-port PORT.
 *
 * The client mode rides the typed eie::client::Client front door on
 * a `tcp://host:port` endpoint: it derives its input size from
 * info(), cycles deterministic activation vectors through a
 * window-bounded pipeline of submit() futures, and with --check
 * verifies every response bit-exactly against the "scalar" oracle
 * backend run on the same model loaded from --registry (daemon and
 * client share the registry directory on one host — the loopback
 * deployment this tool targets).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <deque>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "core/functional.hh"
#include "engine/backend.hh"
#include "nn/generate.hh"
#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"
#include "workloads/suite.hh"

namespace {

using namespace eie;

std::atomic<bool> g_interrupted{false};

void
onSignal(int)
{
    g_interrupted.store(true);
}

void
usage()
{
    std::cout <<
        "eie_serve — EIE serving-cluster daemon and client\n"
        "registry:\n"
        "  --registry DIR        model registry directory\n"
        "  --publish NAME        publish a model (see below), then "
        "exit\n"
        "  --benchmark B         publish the Table III benchmark "
        "layer B\n"
        "  --rows R --cols C --density D\n"
        "                        publish a synthetic R x C layer "
        "instead\n"
        "  --version V           version to publish (default: "
        "latest+1)\n"
        "  --list-models         list the registry's models, then "
        "exit\n"
        "daemon:\n"
        "  --listen PORT         serve the registry over TCP "
        "(0 = ephemeral)\n"
        "  --shards N            shard workers per cluster "
        "(default 1)\n"
        "  --policy P            replicated | partitioned\n"
        "  --backend NAME        shard backend (default compiled)\n"
        "  --kernel V            shard kernel variant: auto | "
        "vector | actsparse\n"
        "  --threads-per-shard T worker threads per shard "
        "(default 1)\n"
        "  --max-batch B         shard micro-batcher cap "
        "(default 16)\n"
        "  --max-delay-us U      batch forming deadline "
        "(default 200); the adaptive window's upper bound\n"
        "  --min-delay-us U      adaptive forming window floor "
        "(default 20)\n"
        "  --fixed-delay         disable the adaptive forming window "
        "(always wait max-delay-us)\n"
        "  --max-queue N         per-shard admission cap; above it "
        "requests shed (0 = unbounded)\n"
        "  --shed-policy P       reject (shed the newcomer) | evict "
        "(shed the lowest priority)\n"
        "  --eject-after N       consecutive failures before a shard "
        "is ejected (0 = breaker off)\n"
        "  --duration-s S        exit after S seconds (default: "
        "until SIGINT)\n"
        "  --metrics-port P      export Prometheus plaintext metrics "
        "over HTTP (0 = ephemeral)\n"
        "client:\n"
        "  --connect HOST:PORT   run the traffic client\n"
        "  --model NAME          model to request\n"
        "  --requests N          requests to send (default 1000)\n"
        "  --rate RPS            offered rate (0 = back-to-back)\n"
        "  --window W            max pipelined in-flight requests "
        "(default 256)\n"
        "  --distinct D          distinct input vectors "
        "(default 64)\n"
        "  --act-density A       input activation density "
        "(default 0.35)\n"
        "  --priority P          request priority (default 0)\n"
        "  --deadline-us U       per-request deadline (0 = none)\n"
        "  --retries N           attempts per request incl. the "
        "first (default 1 = no retry)\n"
        "  --timeout-us U        client-side wall-clock budget per "
        "request across retries (0 = none)\n"
        "  --check               verify responses against the scalar "
        "oracle (needs --registry)\n"
        "  --stats-json          print the server's stats JSON "
        "(after a run, or standalone without --model)\n"
        "observability commands (with --connect):\n"
        "  stats [--watch SEC]   print the server's stats JSON, once "
        "or every SEC seconds until SIGINT\n"
        "  trace-dump            print the server's span ring as "
        "chrome://tracing JSON\n"
        "common:\n"
        "  --pes N               machine PE count (default 64)\n"
        "  --seed S              generator seed (default 2016)\n";
}

/** D deterministic quantised activation vectors of @p size. */
std::vector<std::vector<std::int64_t>>
makeDistinctInputs(std::size_t count, std::size_t size, double density,
                   const core::FunctionalModel &model,
                   std::uint64_t seed)
{
    std::vector<std::vector<std::int64_t>> inputs;
    inputs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Rng rng(seed + 77 * i + 1);
        inputs.push_back(model.quantizeInput(
            nn::makeActivations(size, density, rng)));
    }
    return inputs;
}

struct Args
{
    std::string registry_dir;
    std::string publish_name;
    std::string benchmark;
    std::size_t rows = 0, cols = 0;
    double density = 0.09;
    std::uint32_t version = 0;
    bool list_models = false;

    bool listen = false;
    std::uint16_t port = 0;
    serve::ClusterOptions cluster;
    double duration_s = 0.0;

    std::string connect_host;
    std::uint16_t connect_port = 0;
    std::string model;
    std::size_t requests = 1000;
    double rate = 0.0;
    std::size_t window = 256;
    std::size_t distinct = 64;
    double act_density = 0.35;
    std::int32_t priority = 0;
    std::uint32_t deadline_us = 0;
    unsigned retries = 1;
    std::uint64_t timeout_us = 0;
    bool check = false;
    bool stats_json = false;
    std::string command; ///< "", "stats" or "trace-dump"
    double watch_s = 0.0;
    std::uint16_t metrics_port = 0;
    bool metrics_enabled = false;

    core::EieConfig config;
    std::uint64_t seed = 2016;
};

int
runPublish(const Args &args)
{
    serve::ModelRegistry registry(args.registry_dir, args.config);
    const std::uint32_t version = args.version
        ? args.version
        : registry.latestVersion(args.publish_name) + 1;

    std::string path;
    if (!args.benchmark.empty()) {
        workloads::SuiteRunner runner(args.seed);
        const auto &bench = workloads::findBenchmark(args.benchmark);
        path = registry.publish(args.publish_name, version,
                                runner.layer(bench).storage());
    } else {
        fatal_if(args.rows == 0 || args.cols == 0,
                 "--publish needs --benchmark or --rows/--cols");
        Rng rng(args.seed);
        nn::WeightGenOptions wopts;
        wopts.density = args.density;
        compress::CompressionOptions copts;
        copts.interleave.n_pe = args.config.n_pe;
        const auto layer = compress::CompressedLayer::compress(
            args.publish_name,
            nn::makeSparseWeights(args.rows, args.cols, wopts, rng),
            copts);
        path = registry.publish(args.publish_name, version,
                                layer.storage());
    }
    std::cout << "published " << args.publish_name << " v" << version
              << " -> " << path << "\n";
    return 0;
}

int
runListModels(const Args &args)
{
    serve::ModelRegistry registry(args.registry_dir, args.config);
    for (const serve::ModelId &id : registry.list()) {
        const auto model = registry.load(id.name, id.version);
        std::cout << id.name << " v" << id.version;
        if (model)
            std::cout << "  (" << model->inputSize() << " -> "
                      << model->outputSize() << ")";
        std::cout << "\n";
    }
    return 0;
}

int
runDaemon(const Args &args)
{
    serve::ModelRegistry registry(args.registry_dir, args.config);
    serve::ServingDirectory directory(registry, args.cluster);
    serve::TcpServerOptions server_options;
    server_options.port = args.port;
    serve::TcpServer server(directory, server_options);
    server.start();

    std::unique_ptr<obs::MetricsHttpServer> metrics;
    if (args.metrics_enabled) {
        metrics = std::make_unique<obs::MetricsHttpServer>(
            obs::processRegistry(), args.metrics_port);
        std::cout << "eie_serve: metrics on http://127.0.0.1:"
                  << metrics->port() << "/metrics\n";
    }

    std::cout << "eie_serve: listening on 127.0.0.1:" << server.port()
              << " (" << args.cluster.shards << " shard(s), "
              << serve::placementName(args.cluster.placement) << ", "
              << args.cluster.backend << " backend, "
              << core::kernel::kernelVariantName(args.cluster.kernel)
              << " kernel, forming window ";
    if (args.cluster.server.adaptive_delay)
        std::cout << "adaptive "
                  << std::min(args.cluster.server.min_delay,
                              args.cluster.server.max_delay)
                         .count()
                  << "-" << args.cluster.server.max_delay.count();
    else
        std::cout << "fixed "
                  << args.cluster.server.max_delay.count();
    std::cout << "us)\n" << std::flush;

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    const auto start = std::chrono::steady_clock::now();
    while (!g_interrupted.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (args.duration_s > 0.0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                    .count() >= args.duration_s)
            break;
    }

    server.stop();
    std::cout << "final stats: " << directory.statsJson() << "\n";
    directory.stopAll();
    return 0;
}

/** The `stats` command (and the standalone --stats-json): print the
 *  server's stats JSON, once or — with --watch — every interval
 *  until SIGINT. */
int
runStats(const Args &args)
{
    const std::string endpoint = "tcp://" + args.connect_host + ":" +
        std::to_string(args.connect_port);
    client::ClientOptions options;
    options.config = args.config;
    const auto client = client::Client::connectOrDie(endpoint, options);

    std::signal(SIGINT, onSignal);
    for (;;) {
        client::EndpointStats stats;
        const client::Status status = client->stats(stats);
        fatal_if(!status.ok(), "server: %s",
                 status.toString().c_str());
        std::cout << stats.json << "\n" << std::flush;
        if (args.watch_s <= 0.0)
            return 0;
        // Sleep in slices so Ctrl-C ends the watch promptly.
        const auto wake = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(args.watch_s));
        while (std::chrono::steady_clock::now() < wake) {
            if (g_interrupted.load())
                return 0;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        if (g_interrupted.load())
            return 0;
    }
}

/** The `trace-dump` command: print the daemon's span ring as one
 *  chrome://tracing JSON document (load it in chrome://tracing or
 *  Perfetto). */
int
runTraceDump(const Args &args)
{
    const std::string endpoint = "tcp://" + args.connect_host + ":" +
        std::to_string(args.connect_port);
    client::ClientOptions options;
    options.config = args.config;
    const auto client = client::Client::connectOrDie(endpoint, options);
    std::string json;
    const client::Status status = client->traceDump(json);
    fatal_if(!status.ok(), "server: %s", status.toString().c_str());
    std::cout << json << "\n";
    return 0;
}

int
runClient(const Args &args)
{
    fatal_if(args.model.empty(), "--connect needs --model");
    fatal_if(args.check && args.registry_dir.empty(),
             "--check needs --registry to load the oracle model");

    // The typed front door: the same client code would drive an
    // in-process endpoint by swapping this string for "local:..." or
    // "cluster:...".
    const std::string endpoint = "tcp://" + args.connect_host + ":" +
        std::to_string(args.connect_port);
    client::ClientOptions options;
    options.config = args.config;
    options.retry.max_attempts = args.retries;
    options.retry.timeout =
        std::chrono::microseconds(args.timeout_us);
    const auto client = client::Client::connectOrDie(endpoint, options);

    client::ModelInfo info;
    const client::Status info_status =
        client->info(args.model, args.version, info);
    fatal_if(!info_status.ok(), "server: %s",
             info_status.toString().c_str());
    std::cout << "model " << info.model << " v" << info.version
              << ": " << info.input_size << " -> "
              << info.output_size << ", " << info.shards
              << " shard(s), " << info.placement << "\n";

    const core::FunctionalModel model(args.config);
    const std::size_t distinct =
        std::min(args.distinct, args.requests);
    const auto inputs = makeDistinctInputs(
        distinct, info.input_size, args.act_density, model,
        args.seed);

    // Oracle outputs for --check: one scalar-backend run per distinct
    // input, against the same model file the daemon serves.
    std::vector<std::vector<std::int64_t>> reference;
    if (args.check) {
        serve::ModelRegistry registry(args.registry_dir, args.config);
        const auto loaded =
            registry.load(args.model, info.version);
        fatal_if(!loaded, "model '%s' v%u not in registry '%s'",
                 args.model.c_str(), info.version,
                 args.registry_dir.c_str());
        const auto oracle = engine::makeBackend(
            "scalar", args.config, {&loaded->plan()});
        for (const auto &input : inputs)
            reference.push_back(oracle->run(input).outputs.front());
    }

    Rng arrival_rng(args.seed ^ 0x5e57e11aULL);
    const std::vector<double> arrival_s = engine::openLoopArrivals(
        args.requests, args.rate, arrival_rng);

    std::uint64_t ok = 0, errors = 0, mismatches = 0;
    std::deque<std::pair<std::size_t,
                         std::future<client::InferenceResult>>>
        in_flight;

    auto readOne = [&] {
        auto [index, future] = std::move(in_flight.front());
        in_flight.pop_front();
        const client::InferenceResult result = future.get();
        if (!result.ok()) {
            ++errors;
        } else {
            ++ok;
            if (args.check &&
                result.outputs.front() != reference[index % distinct])
                ++mismatches;
        }
    };

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < args.requests; ++i) {
        if (args.rate > 0.0)
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(arrival_s[i]));
        while (in_flight.size() >= args.window)
            readOne();
        client::InferenceRequest request;
        request.model = args.model;
        request.version = args.version;
        request.priority = args.priority;
        request.deadline =
            std::chrono::microseconds(args.deadline_us);
        request.fixed.push_back(inputs[i % distinct]);
        in_flight.emplace_back(i, client->submit(std::move(request)));
    }
    while (!in_flight.empty())
        readOne();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();

    TextTable table({"Requests", "OK", "Errors", "Mismatch",
                     "Wall s", "Requests/s"});
    table.row()
        .add(static_cast<std::uint64_t>(args.requests))
        .add(ok)
        .add(errors)
        .add(mismatches)
        .add(wall_s, 3)
        .add(static_cast<double>(ok) / wall_s, 1);
    table.print(std::cout);
    client::EndpointStats stats;
    if (client->stats(stats).ok()) {
        if (args.stats_json)
            // Bare JSON on its own line for scripted consumers.
            std::cout << stats.json << "\n";
        else
            std::cout << "server stats: " << stats.json << "\n";
    }

    fatal_if(mismatches > 0,
             "%llu responses diverged from the scalar oracle",
             static_cast<unsigned long long>(mismatches));
    // Deadline-bearing traffic legitimately drops requests, and a
    // retrying client is knowingly driving a lossy (shedding or
    // flaky) server; everything else must succeed.
    fatal_if(errors > 0 && args.deadline_us == 0 && args.retries <= 1,
             "%llu requests failed",
             static_cast<unsigned long long>(errors));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;

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
        } else if (arg == "--registry") {
            args.registry_dir = next();
        } else if (arg == "--publish") {
            args.publish_name = next();
        } else if (arg == "--benchmark") {
            args.benchmark = next();
        } else if (arg == "--rows") {
            args.rows = std::stoul(next());
        } else if (arg == "--cols") {
            args.cols = std::stoul(next());
        } else if (arg == "--density") {
            args.density = std::stod(next());
        } else if (arg == "--version") {
            args.version =
                static_cast<std::uint32_t>(std::stoul(next()));
        } else if (arg == "--list-models") {
            args.list_models = true;
        } else if (arg == "--listen") {
            args.listen = true;
            args.port = static_cast<std::uint16_t>(std::stoul(next()));
        } else if (arg == "--shards") {
            args.cluster.shards =
                static_cast<unsigned>(std::stoul(next()));
            fatal_if(args.cluster.shards == 0,
                     "--shards needs at least 1");
        } else if (arg == "--policy") {
            args.cluster.placement =
                serve::placementFromName(next());
        } else if (arg == "--backend") {
            // validateBackendName is fatal (listing the valid names)
            // on an unknown value.
            args.cluster.backend = next();
            engine::validateBackendName(args.cluster.backend);
        } else if (arg == "--kernel") {
            // kernelVariantFromName is fatal (listing the valid
            // names) on an unknown value.
            args.cluster.kernel =
                core::kernel::kernelVariantFromName(next());
        } else if (arg == "--threads-per-shard") {
            args.cluster.threads_per_shard =
                static_cast<unsigned>(std::stoul(next()));
            fatal_if(args.cluster.threads_per_shard == 0,
                     "--threads-per-shard needs at least 1");
        } else if (arg == "--max-batch") {
            args.cluster.server.max_batch = std::stoul(next());
            fatal_if(args.cluster.server.max_batch == 0,
                     "--max-batch needs at least 1");
        } else if (arg == "--max-delay-us") {
            const long long us = std::stoll(next());
            fatal_if(us < 0, "--max-delay-us must be >= 0");
            args.cluster.server.max_delay =
                std::chrono::microseconds(us);
        } else if (arg == "--min-delay-us") {
            const long long us = std::stoll(next());
            fatal_if(us < 0, "--min-delay-us must be >= 0");
            args.cluster.server.min_delay =
                std::chrono::microseconds(us);
        } else if (arg == "--fixed-delay") {
            args.cluster.server.adaptive_delay = false;
        } else if (arg == "--max-queue") {
            args.cluster.server.max_queue = std::stoul(next());
        } else if (arg == "--shed-policy") {
            const std::string policy = next();
            if (policy == "reject")
                args.cluster.server.shed_policy =
                    engine::ShedPolicy::RejectNew;
            else if (policy == "evict")
                args.cluster.server.shed_policy =
                    engine::ShedPolicy::EvictLowestPriority;
            else
                fatal("unknown shed policy '%s' (known: reject, "
                      "evict)",
                      policy.c_str());
        } else if (arg == "--eject-after") {
            args.cluster.eject_after_failures =
                static_cast<unsigned>(std::stoul(next()));
        } else if (arg == "--duration-s") {
            args.duration_s = std::stod(next());
        } else if (arg == "--connect") {
            const std::string target = next();
            const std::size_t colon = target.rfind(':');
            fatal_if(colon == std::string::npos,
                     "--connect needs HOST:PORT");
            args.connect_host = target.substr(0, colon);
            args.connect_port = static_cast<std::uint16_t>(
                std::stoul(target.substr(colon + 1)));
        } else if (arg == "--model") {
            args.model = next();
        } else if (arg == "--requests") {
            args.requests = std::stoul(next());
            fatal_if(args.requests == 0,
                     "--requests needs at least 1");
        } else if (arg == "--rate") {
            args.rate = std::stod(next());
            fatal_if(args.rate < 0.0, "--rate must be >= 0");
        } else if (arg == "--window") {
            args.window = std::stoul(next());
            fatal_if(args.window == 0, "--window needs at least 1");
        } else if (arg == "--distinct") {
            args.distinct = std::stoul(next());
            fatal_if(args.distinct == 0,
                     "--distinct needs at least 1");
        } else if (arg == "--act-density") {
            args.act_density = std::stod(next());
        } else if (arg == "--priority") {
            args.priority =
                static_cast<std::int32_t>(std::stol(next()));
        } else if (arg == "--deadline-us") {
            args.deadline_us =
                static_cast<std::uint32_t>(std::stoul(next()));
        } else if (arg == "--retries") {
            args.retries = static_cast<unsigned>(std::stoul(next()));
            fatal_if(args.retries == 0, "--retries needs at least 1");
        } else if (arg == "--timeout-us") {
            args.timeout_us = std::stoull(next());
        } else if (arg == "--check") {
            args.check = true;
        } else if (arg == "--stats-json") {
            args.stats_json = true;
        } else if (arg == "--watch") {
            args.watch_s = std::stod(next());
            fatal_if(args.watch_s <= 0.0, "--watch must be > 0");
        } else if (arg == "--metrics-port") {
            args.metrics_enabled = true;
            args.metrics_port =
                static_cast<std::uint16_t>(std::stoul(next()));
        } else if (arg == "stats" || arg == "trace-dump") {
            fatal_if(!args.command.empty(),
                     "only one command may be given");
            args.command = arg;
        } else if (arg == "--pes") {
            args.config.n_pe =
                static_cast<unsigned>(std::stoul(next()));
        } else if (arg == "--seed") {
            args.seed = std::stoull(next());
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    args.config.validate();

    if (!args.publish_name.empty()) {
        fatal_if(args.registry_dir.empty(),
                 "--publish needs --registry");
        return runPublish(args);
    }
    if (args.list_models) {
        fatal_if(args.registry_dir.empty(),
                 "--list-models needs --registry");
        return runListModels(args);
    }
    if (args.listen) {
        fatal_if(args.registry_dir.empty(),
                 "--listen needs --registry");
        return runDaemon(args);
    }
    if (!args.connect_host.empty()) {
        // The transport layer throws (it is library code); the CLI
        // reports failures in the repo's fatal() convention.
        try {
            if (args.command == "stats")
                return runStats(args);
            if (args.command == "trace-dump")
                return runTraceDump(args);
            if (args.model.empty() && args.stats_json)
                return runStats(args); // one-shot stats JSON
            return runClient(args);
        } catch (const std::exception &error) {
            fatal("%s", error.what());
        }
    }

    usage();
    return 1;
}
