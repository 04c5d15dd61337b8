/**
 * @file
 * Cluster scaling benchmark: requests/s versus shard count at
 * saturating offered load, the Fig. 11 scalability argument lifted
 * from PEs to whole EIE instances.
 *
 * A 1024x1024 pruned layer (9% weights, 35% activations, 16 PEs) is
 * loaded as an in-memory serve::LoadedModel and served by a
 * serve::ClusterEngine at 1, 2 and 4 replicated shards (one worker
 * thread each), plus a 4-shard column-partitioned point. Load is
 * saturating: every request is submitted back-to-back up front, so
 * each point measures peak cluster service rate, not arrival
 * behaviour. Every response is verified bit-exact against the
 * "scalar" oracle backend.
 *
 * A light-load series then serves Alex-6 and VGG-6 (Table III shapes
 * from workloads::SuiteRunner, 64 PEs) one request in flight at a
 * time, on three configurations of four cores' worth of work or less:
 * 4 column-partitioned shards x 1 thread, 1 replicated shard x 4
 * threads, and 1 replicated shard x 1 thread. The configurations take
 * turns in alternating rounds, so a slow phase of a shared box hits
 * all three; each reports its p50 latency and how many rounds its
 * round p50 won. Every response is checked against the scalar oracle.
 *
 * Writes BENCH_cluster.json (requests/s, speedup over one shard,
 * latency percentiles per point, and the "light_load" series;
 * schema-stamped with the machine's hardware thread count — shard
 * scaling is only observable with at least as many cores as shards).
 *
 * Run from the build directory:
 *
 *   ./bench_cluster_scaling [cluster.json]
 */

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "compress/compressed_layer.hh"
#include "core/ext/column_partition.hh"
#include "core/functional.hh"
#include "engine/backend.hh"
#include "nn/generate.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"
#include "workloads/suite.hh"

namespace {

using namespace eie;

constexpr std::size_t kRows = 1024;
constexpr std::size_t kCols = 1024;
constexpr double kWeightDensity = 0.09;
constexpr double kActDensity = 0.35;
constexpr unsigned kPes = 16;
constexpr std::size_t kDistinctInputs = 32;
constexpr std::size_t kRequestsPerShard = 768;

/** Light-load series: rounds, sequential requests per configuration
 *  per round, and distinct (oracle-checked) frames per layer. */
constexpr unsigned kLightRounds = 12;
constexpr std::size_t kLightRequests = 40;
constexpr std::size_t kLightInputs = 8;

struct Point
{
    unsigned shards = 0;
    serve::Placement placement = serve::Placement::Replicated;
    std::size_t requests = 0;
    double wall_s = 0.0;
    double rps = 0.0;
    double speedup = 0.0; ///< vs the 1-shard replicated point
    double p50_us = 0.0;
    double p99_us = 0.0;
    double mean_batch = 0.0;
};

/** Saturating closed sweep: submit everything, then wait for it. */
Point
runPoint(const std::shared_ptr<const serve::LoadedModel> &model,
         unsigned shards, serve::Placement placement,
         const std::vector<std::vector<std::int64_t>> &inputs,
         const std::vector<std::vector<std::int64_t>> &reference)
{
    serve::ClusterOptions options;
    options.shards = shards;
    options.placement = placement;
    options.threads_per_shard = 1;
    options.server.max_batch = 16;
    options.server.max_delay = std::chrono::microseconds(200);
    serve::ClusterEngine cluster(model, options);

    const std::size_t requests = kRequestsPerShard * shards;
    std::vector<std::future<std::vector<std::int64_t>>> futures;
    futures.reserve(requests);

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < requests; ++i)
        futures.push_back(
            cluster.submit(inputs[i % inputs.size()]));
    for (std::size_t i = 0; i < requests; ++i)
        fatal_if(futures[i].get() != reference[i % inputs.size()],
                 "request %zu diverged from the scalar oracle "
                 "(%u shards, %s)", i, shards,
                 serve::placementName(placement));
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    cluster.stop();

    const serve::ClusterStats stats = cluster.stats();
    Point p;
    p.shards = shards;
    p.placement = placement;
    p.requests = requests;
    p.wall_s = wall_s;
    p.rps = static_cast<double>(requests) / wall_s;
    p.p50_us = stats.p50_latency_us;
    p.p99_us = stats.p99_latency_us;
    p.mean_batch = stats.mean_batch;
    return p;
}

/** One light-load configuration. */
struct LightConfig
{
    const char *label;
    unsigned shards;
    serve::Placement placement;
    unsigned threads;
};

const LightConfig kLightConfigs[] = {
    {"partitioned x4, 1 thread", 4, serve::Placement::ColumnPartitioned,
     1},
    {"replicated x1, 4 threads", 1, serve::Placement::Replicated, 4},
    {"replicated x1, 1 thread", 1, serve::Placement::Replicated, 1},
};

/** Median of @p samples (upper middle for an even count). */
double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/**
 * The light-load series on suite layer @p name: every configuration
 * serves kLightRequests requests one at a time per round, in rotating
 * order, for kLightRounds rounds.
 */
bench::Json
lightLoadSeries(const char *name, workloads::SuiteRunner &runner)
{
    const workloads::Benchmark &bench = workloads::findBenchmark(name);
    core::EieConfig config;
    config.n_pe = 64;
    const auto model = serve::LoadedModel::fromStorage(
        name, 1, runner.layer(bench).storage(), nn::Nonlinearity::ReLU,
        config);

    const core::FunctionalModel functional(config);
    const auto oracle =
        engine::makeBackend("scalar", config, {&model->plan()});
    std::vector<std::vector<std::int64_t>> inputs;
    std::vector<std::vector<std::int64_t>> reference;
    for (std::size_t i = 0; i < kLightInputs; ++i) {
        Rng frame_rng(5000 + 31 * i);
        inputs.push_back(functional.quantizeInput(nn::makeActivations(
            bench.input, bench.act_density, frame_rng)));
        reference.push_back(oracle->run(inputs.back()).outputs.front());
    }

    // One request in flight: max_batch 1 dispatches each request as
    // it arrives, so no forming window enters the latency.
    std::vector<std::unique_ptr<serve::ClusterEngine>> clusters;
    for (const LightConfig &c : kLightConfigs) {
        serve::ClusterOptions options;
        options.shards = c.shards;
        options.placement = c.placement;
        options.threads_per_shard = c.threads;
        options.server.max_batch = 1;
        clusters.push_back(
            std::make_unique<serve::ClusterEngine>(model, options));
    }

    const std::size_t n = clusters.size();
    std::vector<std::vector<double>> all_us(n);
    std::vector<unsigned> wins(n, 0);
    for (unsigned round = 0; round < kLightRounds; ++round) {
        std::vector<double> round_p50(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c = (i + round) % n;
            std::vector<double> round_us;
            for (std::size_t r = 0; r < kLightRequests; ++r) {
                const std::size_t at = (round + r) % inputs.size();
                const auto start = std::chrono::steady_clock::now();
                const auto output = clusters[c]->infer(inputs[at]);
                round_us.push_back(
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count());
                fatal_if(output != reference[at],
                         "%s, %s: request diverged from the scalar "
                         "oracle",
                         name, kLightConfigs[c].label);
            }
            round_p50[c] = median(round_us);
            all_us[c].insert(all_us[c].end(), round_us.begin(),
                             round_us.end());
        }
        ++wins[std::min_element(round_p50.begin(), round_p50.end()) -
               round_p50.begin()];
    }
    for (auto &cluster : clusters)
        cluster->stop();

    TextTable table({"Layer", "Configuration", "p50 us", "Rounds won"});
    bench::Json configs = bench::Json::array();
    for (std::size_t c = 0; c < n; ++c) {
        const LightConfig &config_point = kLightConfigs[c];
        const double p50 = median(all_us[c]);
        table.row()
            .add(name)
            .add(config_point.label)
            .add(p50, 1)
            .add(static_cast<std::uint64_t>(wins[c]));
        bench::Json point;
        point.set("configuration", config_point.label)
            .set("shards", config_point.shards)
            .set("placement", serve::placementName(config_point.placement))
            .set("threads_per_shard", config_point.threads)
            .set("p50_latency_us", p50)
            .set("rounds_won", wins[c]);
        configs.push(std::move(point));
    }
    table.print(std::cout);

    bench::Json series;
    series.set("layer", name)
        .set("n_pe", config.n_pe)
        .set("rounds", kLightRounds)
        .set("requests_per_round",
             static_cast<std::uint64_t>(kLightRequests))
        .set("configurations", std::move(configs));
    return series;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_cluster.json";

    // Build the layer once and wrap it as an in-memory LoadedModel
    // (the registry's fromStorage path, minus the file).
    Rng rng(2016);
    nn::WeightGenOptions wopts;
    wopts.density = kWeightDensity;
    compress::CompressionOptions copts;
    copts.interleave.n_pe = kPes;
    const auto layer = compress::CompressedLayer::compress(
        "cluster_bench",
        nn::makeSparseWeights(kRows, kCols, wopts, rng), copts);

    core::EieConfig config;
    config.n_pe = kPes;
    const auto model = serve::LoadedModel::fromStorage(
        "cluster_bench", 1, layer.storage(), nn::Nonlinearity::ReLU,
        config);

    const core::FunctionalModel functional(config);
    std::vector<std::vector<std::int64_t>> inputs;
    std::vector<nn::Vector> float_inputs;
    for (std::size_t i = 0; i < kDistinctInputs; ++i) {
        Rng frame_rng(4096 + 77 * i);
        float_inputs.push_back(
            nn::makeActivations(kCols, kActDensity, frame_rng));
        inputs.push_back(functional.quantizeInput(float_inputs.back()));
    }

    const auto oracle =
        engine::makeBackend("scalar", config, {&model->plan()});
    std::vector<std::vector<std::int64_t>> reference;
    for (const auto &input : inputs)
        reference.push_back(oracle->run(input).outputs.front());

    const unsigned hw_threads = std::thread::hardware_concurrency();
    std::vector<Point> points;
    for (const unsigned shards : {1u, 2u, 4u})
        points.push_back(runPoint(model, shards,
                                  serve::Placement::Replicated,
                                  inputs, reference));
    points.push_back(runPoint(model, 4,
                              serve::Placement::ColumnPartitioned,
                              inputs, reference));
    const double base_rps = points.front().rps;
    for (Point &p : points)
        p.speedup = p.rps / base_rps;

    // Analytic context for the partitioned point: the §VII-A cost
    // model of distributing columns (compute makespan + reduction).
    const auto analytic = core::ext::columnPartitionCost(
        layer.quantizedWeights(), float_inputs.front(), 4);

    TextTable table({"Shards", "Policy", "Requests", "Requests/s",
                     "Speedup", "p50 us", "p99 us", "Mean batch"});
    for (const Point &p : points) {
        table.row()
            .add(static_cast<std::uint64_t>(p.shards))
            .add(serve::placementName(p.placement))
            .add(static_cast<std::uint64_t>(p.requests))
            .add(p.rps, 1)
            .add(p.speedup, 2)
            .add(p.p50_us, 1)
            .add(p.p99_us, 1)
            .add(p.mean_batch, 2);
    }
    std::cout << kRows << "x" << kCols << ", "
              << 100 * kWeightDensity << "% weights, "
              << 100 * kActDensity << "% activations, " << kPes
              << " PEs, saturating offered load\n";
    table.print(std::cout);
    if (hw_threads < 4)
        std::cout << "note: only " << hw_threads
                  << " hardware thread(s) — shard scaling is "
                     "serialized on this machine; compare points "
                     "only across runs with equal hardware_threads\n";

    bench::Json layer_json;
    layer_json.set("rows", kRows)
        .set("cols", kCols)
        .set("weight_density", kWeightDensity)
        .set("act_density", kActDensity)
        .set("n_pe", config.n_pe);
    bench::Json points_json = bench::Json::array();
    for (const Point &p : points) {
        bench::Json point;
        point.set("shards", static_cast<std::uint64_t>(p.shards))
            .set("placement", serve::placementName(p.placement))
            .set("requests", static_cast<std::uint64_t>(p.requests))
            .set("wall_s", p.wall_s)
            .set("requests_per_sec", p.rps)
            .set("speedup_vs_1shard", p.speedup)
            .set("p50_latency_us", p.p50_us)
            .set("p99_latency_us", p.p99_us)
            .set("mean_batch", p.mean_batch);
        points_json.push(std::move(point));
    }
    std::cout << "\nLight load: one request in flight, " << kLightRounds
              << " alternating rounds x " << kLightRequests
              << " requests per configuration\n";
    workloads::SuiteRunner runner(2016);
    bench::Json light_json = bench::Json::array();
    for (const char *name : {"Alex-6", "VGG-6"})
        light_json.push(lightLoadSeries(name, runner));

    bench::Json analytic_json;
    analytic_json
        .set("compute_cycles", analytic.compute_cycles)
        .set("reduction_cycles", analytic.reduction_cycles)
        .set("load_balance", analytic.load_balance);
    bench::Json root;
    root.set("layer", std::move(layer_json))
        .set("distinct_inputs",
             static_cast<std::uint64_t>(kDistinctInputs))
        .set("requests_per_shard",
             static_cast<std::uint64_t>(kRequestsPerShard))
        .set("points", std::move(points_json))
        .set("light_load", std::move(light_json))
        .set("column_partition_analytic", std::move(analytic_json));
    bench::writeBenchJson(json_path, root);
    return 0;
}
