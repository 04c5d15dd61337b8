/**
 * @file
 * ntwe-burst — stateless many-client traffic. NT-We (4096 -> 600, 10%
 * weights, 100% activations) is published to a scratch registry and
 * served by an in-process loopback TcpServer over a 4-shard
 * replicated ServingDirectory. One thread drives `tcp://` in a closed
 * loop with 64 single-frame requests in flight on one connection. The
 * per-request kernel work is small, so client, serve/wire + tcp,
 * serve/cluster and the engine batcher dominate.
 *
 * Ladder (64 in flight throughout): ClusterEngine::submit on the
 * daemon's own cluster -> a `cluster:` endpoint over the same
 * registry -> the `tcp://` endpoint. tcp.overhead_us compares
 * `tcp://` with `cluster:` at one request in flight.
 */

#include <filesystem>
#include <memory>

#include "client/client.hh"
#include "common/logging.hh"
#include "engine/backend.hh"
#include "engine/backends.hh"
#include "harness.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"
#include "serve/wire.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace eie;

constexpr const char *kModel = "nt-we";
constexpr unsigned kShards = 4;
constexpr std::size_t kWindow = 64;

serve::ClusterOptions
clusterOptions()
{
    serve::ClusterOptions options;
    options.shards = kShards;
    options.placement = serve::Placement::Replicated;
    return options;
}

/** The serving stack, torn down client -> listener -> shards. */
struct Stack
{
    std::string dir;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::ServingDirectory> directory;
    std::unique_ptr<serve::TcpServer> server;
    std::unique_ptr<client::Client> client;

    ~Stack()
    {
        if (client)
            client->close();
        if (server)
            server->stop();
        if (directory)
            directory->stopAll();
    }
};

/** Set-up: publish, open the registry, start the shards' directory
 *  and the listener, connect, and serve one frame (which loads, plans,
 *  compiles and shards the model). */
std::unique_ptr<Stack>
setUp(const std::string &dir, const compress::CompressedLayer &layer,
      const core::EieConfig &config, const Frame &warm_frame)
{
    auto stack = std::make_unique<Stack>();
    stack->dir = dir;
    std::filesystem::remove_all(dir);
    stack->registry = std::make_unique<serve::ModelRegistry>(dir, config);
    stack->registry->publish(kModel, 1, layer.storage());
    stack->directory = std::make_unique<serve::ServingDirectory>(
        *stack->registry, clusterOptions());
    stack->server = std::make_unique<serve::TcpServer>(*stack->directory);
    stack->server->start();

    client::ClientOptions options;
    options.config = config;
    client::Status status;
    stack->client = client::Client::connect(
        "tcp://127.0.0.1:" + std::to_string(stack->server->port()),
        options, status);
    fatal_if(!stack->client, "tcp endpoint: %s",
             status.toString().c_str());
    const client::InferenceResult warm =
        stack->client->inferRaw(kModel, warm_frame);
    fatal_if(!warm.ok(), "warm-up request failed: %s",
             warm.status.toString().c_str());
    return stack;
}

/** The workload's traffic through @p client: @p window single-frame
 *  requests in flight, each response checked against the oracle.
 *  @p submit_us (when given) collects the time spent inside submit().
 *  Returns the requests attempted. */
std::uint64_t
drive(client::Client &client, std::size_t window,
      const std::vector<Frame> &frames, const std::vector<Frame> &oracle,
      Clock::time_point until, std::uint64_t budget,
      LatencySample &latency, Tally &tally,
      LatencySample *submit_us = nullptr)
{
    const std::uint64_t before = latency.count();
    windowLoop<std::future<client::InferenceResult>>(
        window, until, budget,
        [&](std::uint64_t i) {
            client::InferenceRequest request;
            request.model = kModel;
            request.fixed.push_back(frames[i % frames.size()]);
            const auto start = Clock::now();
            auto future = client.submit(std::move(request));
            if (submit_us)
                submit_us->ok(microsSince(start));
            return future;
        },
        [&](std::future<client::InferenceResult> &future,
            std::uint64_t i) {
            const client::InferenceResult result = future.get();
            return result.ok() && result.outputs.size() == 1 &&
                result.outputs[0] == oracle[i % oracle.size()];
        },
        latency, tally);
    return latency.count() - before;
}

/** wire.encode_us / wire.decode_us: one request frame out and one
 *  response frame back, on the workload's frames and outputs. */
void
reportWire(const std::vector<Frame> &frames,
           const std::vector<Frame> &oracle, Clock::time_point until,
           Report &report)
{
    LatencySample encode, decode;
    for (std::uint64_t i = 0; Clock::now() < until; ++i) {
        serve::wire::InferRequest request;
        request.id = i + 1;
        request.model = kModel;
        request.input = frames[i % frames.size()];
        request.trace_id = i + 1;
        serve::wire::InferResponse response;
        response.id = i + 1;
        response.ok = true;
        response.output = oracle[i % oracle.size()];

        auto start = Clock::now();
        const auto request_bytes = serve::wire::encodeFrame(request);
        const auto response_bytes = serve::wire::encodeFrame(response);
        encode.ok(microsSince(start));

        start = Clock::now();
        const auto request_back = serve::wire::decodeBody(
            std::span(request_bytes).subspan(4));
        const auto response_back = serve::wire::decodeBody(
            std::span(response_bytes).subspan(4));
        decode.ok(microsSince(start));
        fatal_if(std::get<serve::wire::InferRequest>(request_back).input !=
                         request.input ||
                     std::get<serve::wire::InferResponse>(response_back)
                             .output != response.output,
                 "wire round trip changed a frame");
    }
    report.add("wire.encode_us", encode.quantile(0.5), "us");
    report.add("wire.decode_us", decode.quantile(0.5), "us");
}

void
traced(const Options &options, const core::EieConfig &config, Stack &stack,
       const std::vector<Frame> &frames, const std::vector<Frame> &oracle,
       Report &report)
{
    const double s = options.seconds;

    LatencySample untraced;
    drive(*stack.client, kWindow, frames, oracle,
          RunClock::forSeconds(0.25 * s).until, UINT64_MAX, untraced,
          report.tally);

    // Rung 1: the daemon's own cluster, no client in front.
    std::string error;
    serve::ClusterEngine *cluster =
        stack.directory->cluster(kModel, 0, error);
    fatal_if(!cluster, "cluster lookup: %s", error.c_str());
    LatencySample cluster_rung;
    windowLoop<std::future<Frame>>(
        kWindow, RunClock::forSeconds(0.12 * s).until, UINT64_MAX,
        [&](std::uint64_t i) {
            return cluster->submit(frames[i % frames.size()]);
        },
        [&](std::future<Frame> &future, std::uint64_t i) {
            try {
                return future.get() == oracle[i % oracle.size()];
            } catch (...) {
                return false;
            }
        },
        cluster_rung, report.tally);

    // Rung 2: a cluster: endpoint over the same registry (its own
    // shards), at the workload's depth and at one in flight.
    client::ClientOptions client_options;
    client_options.config = config;
    auto in_process = client::Client::connectOrDie(
        "cluster:" + stack.dir + ",shards=" + std::to_string(kShards),
        client_options);
    LatencySample client_rung, client_one;
    drive(*in_process, kWindow, frames, oracle,
          RunClock::forSeconds(0.12 * s).until, UINT64_MAX, client_rung,
          report.tally);
    drive(*in_process, 1, frames, oracle,
          RunClock::forSeconds(0.06 * s).until, UINT64_MAX, client_one,
          report.tally);
    in_process->close();

    LatencySample tcp_one;
    drive(*stack.client, 1, frames, oracle,
          RunClock::forSeconds(0.06 * s).until, UINT64_MAX, tcp_one,
          report.tally);

    // Rung 3 (top): the workload itself, spans drained per segment.
    TracedPhase phase;
    LatencySample top, submit_us;
    const bool complete = runTraced(
        phase, RunClock::forSeconds(0.3 * s).until, kTracedSegment,
        [&](Clock::time_point until, std::uint64_t budget) {
            return drive(*stack.client, kWindow, frames, oracle, until,
                         budget, top, report.tally, &submit_us);
        });
    fatal_if(!complete, "span ring filled during a traced segment");

    // The kernel at the batch shape the shards actually formed.
    const double mean_batch = phase.counters.batches
        ? static_cast<double>(phase.counters.requests) /
            static_cast<double>(phase.counters.batches)
        : 1.0;
    const std::size_t batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(mean_batch + 0.5));
    const auto loaded = stack.registry->load(kModel);
    const auto compiled = engine::compileLayerStack(
        config, {&loaded->plan()},
        engine::compiledStackOptions(1, core::kernel::KernelVariant::Auto));
    // The kernel and the backend wrapped around it (one shard's
    // execution path), alternating call by call on the same inputs.
    const engine::CompiledBackend backend(
        {&loaded->plan()}, compiled, 1, core::kernel::KernelVariant::Auto);
    LayerKernel kernel("NT-We", compiled->front());
    LatencySample kernel_calls, backend_calls;
    const auto kernel_until = RunClock::forSeconds(0.1 * s).until;
    for (std::uint64_t i = 0; Clock::now() < kernel_until; i += batch) {
        core::kernel::Batch inputs;
        for (std::size_t b = 0; b < batch; ++b)
            inputs.push_back(frames[(i + b) % frames.size()]);
        auto start = Clock::now();
        const core::kernel::Batch outputs = kernel.run(inputs);
        kernel_calls.ok(microsSince(start));
        start = Clock::now();
        const engine::RunReport run = backend.runBatch(inputs);
        backend_calls.ok(microsSince(start));
        for (std::size_t b = 0; b < batch; ++b) {
            const Frame &expected = oracle[(i + b) % oracle.size()];
            report.tally.record(outputs[b] == expected);
            report.tally.record(run.outputs[b] == expected);
        }
    }
    kernel.report(report);
    report.add("backend.us_per_call", backend_calls.quantile(0.5), "us");
    report.add("backend.overhead_us",
               backend_calls.quantile(0.5) - kernel_calls.quantile(0.5),
               "us");

    reportWire(frames, oracle, RunClock::forSeconds(0.03 * s).until,
               report);
    reportServing(report, phase, engine::ServerOptions{}.max_batch,
                  kShards);
    report.add("tcp.overhead_us",
               tcp_one.quantile(0.5) - client_one.quantile(0.5), "us");
    report.add("client.overhead_us",
               client_rung.quantile(0.5) - cluster_rung.quantile(0.5), "us");
    report.add("client.submit_us", submit_us.mean(), "us");

    Ladder ladder;
    ladder.rung("cluster_submit", cluster_rung.quantile(0.5));
    ladder.rung("cluster", client_rung.quantile(0.5));
    ladder.rung("tcp", top.quantile(0.5));
    ladder.report(report, untraced.quantile(0.5), kLadderMargin);
}

} // namespace

void
runNtweBurst(const Options &options, Report &report)
{
    const core::EieConfig config; // 64 PEs
    workloads::SuiteRunner runner; // the paper's fixed layer
    const auto &bench = workloads::findBenchmark("NT-We");
    const compress::CompressedLayer &layer = runner.layer(bench);
    const std::vector<Frame> frames =
        makeFrames(config, options.smoke ? 8 : 64, bench.input,
                   bench.act_density, options.seed);

    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    for (unsigned i = 0; i < options.setupRepeats(); ++i) {
        stack.reset();
        const auto start = Clock::now();
        stack = setUp(options.scratch + "/ntwe-registry-" +
                          std::to_string(i),
                      layer, config, frames[0]);
        setup_s.push_back(secondsSince(start));
    }

    // The oracle: the scalar interpreter over the published image,
    // planned the way the registry plans it.
    const auto model = serve::LoadedModel::fromStorage(
        kModel, 1, layer.storage(), nn::Nonlinearity::ReLU, config);
    const auto scalar =
        engine::makeBackend("scalar", config, {&model->plan()});
    const std::vector<Frame> oracle = scalar->runBatch(frames).outputs;

    report.detail.set("frames", static_cast<std::uint64_t>(frames.size()))
        .set("shards", static_cast<std::uint64_t>(kShards))
        .set("in_flight", static_cast<std::uint64_t>(kWindow));
    if (options.trace) {
        traced(options, config, *stack, frames, oracle, report);
        return;
    }

    LatencySample warmup, latency;
    drive(*stack->client, kWindow, frames, oracle,
          RunClock::forSeconds(options.warmupSeconds()).until, UINT64_MAX,
          warmup, report.tally);
    const RunClock clock = RunClock::forSeconds(options.seconds);
    drive(*stack->client, kWindow, frames, oracle, clock.until, UINT64_MAX,
          latency, report.tally);
    reportEndToEnd(report, latency, clock.start, options.seconds, setup_s);
}

} // namespace perfbench
