/**
 * @file
 * Gateway-overhead series: what the multi-tenant HTTP front door
 * costs per request over a direct `tcp://` connection to the same
 * daemon, plus a 2x-overload fairness run showing a tenant flooding
 * past its concurrency quota cannot starve another tenant's p99.
 *
 * Topology: registry -> loopback TcpServer -> HttpGateway -> http://
 * client, with a direct tcp:// client against the same daemon as the
 * floor. The overhead series runs with auth off (pure proxy cost);
 * the fairness run loads a two-tenant table — an "abuser" driving 2x
 * its max_concurrent quota open-loop and a "victim" sending paced
 * sequential requests — and reports the victim's p50/p99 alone vs
 * under abuse.
 *
 * Results are appended to BENCH_client.json next to the
 * client-overhead series (same clientTransportStamp schema): the
 * existing document is parsed, its writeBenchJson stamps stripped
 * (they are re-applied), and a "gateway" section added. Run
 * bench_client_overhead first for a complete file; standalone runs
 * produce a gateway-only document.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "bench_common.hh"
#include "client/client.hh"
#include "common/random.hh"
#include "compress/compressed_layer.hh"
#include "core/functional.hh"
#include "gateway/gateway.hh"
#include "nn/generate.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

constexpr std::size_t kRows = 512;
constexpr std::size_t kCols = 512;
constexpr double kDensity = 0.09;
constexpr std::size_t kRequests = 800;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kVictimRequests = 200;
constexpr std::uint32_t kAbuserQuota = 8;
constexpr double kOverload = 2.0; ///< abuser in-flight / quota

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Pipelined single-frame requests; returns wall seconds. */
double
drive(client::Client &client, const std::string &model,
      const std::vector<std::vector<std::int64_t>> &inputs)
{
    std::deque<std::future<client::InferenceResult>> in_flight;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kRequests; ++i) {
        while (in_flight.size() >= kWindow) {
            const client::InferenceResult result =
                in_flight.front().get();
            fatal_if(!result.ok(), "request failed: %s",
                     result.status.toString().c_str());
            in_flight.pop_front();
        }
        client::InferenceRequest request;
        request.model = model;
        request.fixed.push_back(inputs[i % inputs.size()]);
        in_flight.push_back(client.submit(std::move(request)));
    }
    while (!in_flight.empty()) {
        fatal_if(!in_flight.front().get().ok(), "request failed");
        in_flight.pop_front();
    }
    return secondsSince(start);
}

/** Paced sequential victim loop; returns per-request latencies, us. */
std::vector<double>
driveVictim(client::Client &client, const std::string &model,
            const std::vector<std::vector<std::int64_t>> &inputs)
{
    std::vector<double> latencies;
    latencies.reserve(kVictimRequests);
    for (std::size_t i = 0; i < kVictimRequests; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const client::InferenceResult result =
            client.inferRaw(model, inputs[i % inputs.size()]);
        fatal_if(!result.ok(), "victim request failed: %s",
                 result.status.toString().c_str());
        latencies.push_back(1e6 * secondsSince(start));
    }
    return latencies;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t at = std::min(
        values.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(
                                         values.size())));
    return values[at];
}

/** obs::JsonValue -> bench::Json (merging the existing file). */
bench::Json
toBench(const obs::JsonValue &value)
{
    switch (value.kind) {
      case obs::JsonValue::Kind::Bool:
        return bench::Json(value.boolean);
      case obs::JsonValue::Kind::Number:
        if (value.number >= 0 &&
            value.number == std::floor(value.number) &&
            value.number < 9e15)
            return bench::Json(
                static_cast<std::uint64_t>(value.number));
        return bench::Json(value.number);
      case obs::JsonValue::Kind::String:
        return bench::Json(value.string);
      case obs::JsonValue::Kind::Array: {
        bench::Json array = bench::Json::array();
        for (const obs::JsonValue &element : value.array)
            array.push(toBench(element));
        return array;
      }
      case obs::JsonValue::Kind::Object: {
        bench::Json object;
        for (const auto &[key, member] : value.object)
            object.set(key, toBench(member));
        return object;
      }
      case obs::JsonValue::Kind::Null:
        break;
      case obs::JsonValue::Kind::FloatArray:
      case obs::JsonValue::Kind::Int64Array:
        break; // typed modes only; this file is parsed as a tree
    }
    return bench::Json(false); // BENCH files carry no nulls
}

} // namespace

int
main()
{
    core::EieConfig config; // 64 PE
    const std::uint64_t seed = 2016;

    const fs::path dir = fs::temp_directory_path() /
        ("eie_bench_gateway_" + std::to_string(::getpid()));
    serve::ModelRegistry registry(dir.string(), config);
    {
        Rng rng(seed);
        nn::WeightGenOptions wopts;
        wopts.density = kDensity;
        compress::CompressionOptions copts;
        copts.interleave.n_pe = config.n_pe;
        registry.publish(
            "fc", 1,
            compress::CompressedLayer::compress(
                "fc", nn::makeSparseWeights(kRows, kCols, wopts, rng),
                copts)
                .storage());
    }

    const core::FunctionalModel functional(config);
    std::vector<std::vector<std::int64_t>> inputs;
    for (std::size_t i = 0; i < 64; ++i) {
        Rng rng(seed + 77 * i + 1);
        inputs.push_back(functional.quantizeInput(
            nn::makeActivations(kCols, 0.35, rng)));
    }

    serve::ServingDirectory directory(registry,
                                      serve::ClusterOptions{});
    serve::TcpServer server(directory);
    server.start();
    const std::string tcp_endpoint =
        "tcp://127.0.0.1:" + std::to_string(server.port());

    obs::MetricsRegistry metrics;
    gateway::GatewayOptions gateway_options;
    gateway_options.client.config = config;
    gateway_options.registry = &metrics;
    client::Status status;
    auto gw = gateway::HttpGateway::create(tcp_endpoint,
                                           gateway_options, status);
    fatal_if(!gw, "cannot start gateway: %s",
             status.toString().c_str());
    const std::string http_endpoint =
        "http://127.0.0.1:" + std::to_string(gw->port());

    client::ClientOptions options;
    options.config = config;

    // ------------------------------------------------ overhead series
    bench::Json series = bench::Json::array();
    double tcp_us = 0.0;
    for (const std::string &endpoint :
         {tcp_endpoint, http_endpoint}) {
        auto client = client::Client::connectOrDie(endpoint, options);
        const double wall_s = drive(*client, "fc", inputs);
        const double us_per_request =
            1e6 * wall_s / static_cast<double>(kRequests);
        const double rps = static_cast<double>(kRequests) / wall_s;
        if (endpoint == tcp_endpoint)
            tcp_us = us_per_request;

        bench::Json row = bench::clientTransportStamp(*client);
        row.set("requests", static_cast<std::uint64_t>(kRequests))
            .set("window", static_cast<std::uint64_t>(kWindow))
            .set("requests_per_s", rps)
            .set("us_per_request", us_per_request)
            .set("overhead_us_vs_direct_tcp",
                 us_per_request - tcp_us);
        std::cout << client->transport() << ": " << rps
                  << " requests/s (" << us_per_request
                  << " us/request, +" << us_per_request - tcp_us
                  << " us over direct tcp)\n";
        series.push(std::move(row));
        client->close();
    }

    // ------------------------------------------------- fairness run
    // Two tenants: the abuser keeps 2x its concurrency quota in
    // flight (half rejected 429 at the door), the victim paces
    // sequential requests. The victim's p99 must not collapse.
    gw->tenants().load(gateway::loadTenantConfigs(R"({"tenants":[
        {"name":"abuser","token":"bench-abuser","max_concurrent":)" +
        std::to_string(kAbuserQuota) + R"(},
        {"name":"victim","token":"bench-victim"}
    ]})"));

    auto victim = client::Client::connectOrDie(
        http_endpoint + ",token=bench-victim", options);
    const std::vector<double> alone =
        driveVictim(*victim, "fc", inputs);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> abuser_ok{0};
    std::atomic<std::uint64_t> abuser_rejected{0};
    std::thread abuser([&] {
        auto client = client::Client::connectOrDie(
            http_endpoint + ",token=bench-abuser", options);
        const std::size_t window = static_cast<std::size_t>(
            kOverload * static_cast<double>(kAbuserQuota));
        std::deque<std::future<client::InferenceResult>> in_flight;
        while (!stop.load(std::memory_order_relaxed)) {
            while (in_flight.size() >= window) {
                const client::InferenceResult result =
                    in_flight.front().get();
                in_flight.pop_front();
                (result.ok() ? abuser_ok : abuser_rejected)
                    .fetch_add(1, std::memory_order_relaxed);
            }
            client::InferenceRequest request;
            request.model = "fc";
            request.fixed.push_back(
                inputs[in_flight.size() % inputs.size()]);
            in_flight.push_back(client->submit(std::move(request)));
        }
        while (!in_flight.empty()) {
            (void)in_flight.front().get();
            in_flight.pop_front();
        }
        client->close();
    });

    // Let the abuser saturate its quota before measuring.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::vector<double> under_abuse =
        driveVictim(*victim, "fc", inputs);
    stop.store(true);
    abuser.join();
    victim->close();

    const double p50_alone = percentile(alone, 0.50);
    const double p99_alone = percentile(alone, 0.99);
    const double p50_abuse = percentile(under_abuse, 0.50);
    const double p99_abuse = percentile(under_abuse, 0.99);
    std::cout << "victim p50/p99 alone: " << p50_alone << "/"
              << p99_alone << " us; under " << kOverload
              << "x abuse: " << p50_abuse << "/" << p99_abuse
              << " us (abuser admitted " << abuser_ok.load()
              << ", rejected " << abuser_rejected.load() << ")\n";
    fatal_if(abuser_rejected.load() == 0,
             "abuser was never rejected: overload did not exceed "
             "the quota");

    bench::Json fairness;
    fairness
        .set("victim_requests",
             static_cast<std::uint64_t>(kVictimRequests))
        .set("overload_factor", kOverload)
        .set("abuser_max_concurrent",
             static_cast<std::uint64_t>(kAbuserQuota))
        .set("abuser_admitted", abuser_ok.load())
        .set("abuser_rejected_429", abuser_rejected.load())
        .set("victim_p50_us_alone", p50_alone)
        .set("victim_p99_us_alone", p99_alone)
        .set("victim_p50_us_under_abuse", p50_abuse)
        .set("victim_p99_us_under_abuse", p99_abuse)
        .set("victim_p99_ratio",
             p99_alone > 0.0 ? p99_abuse / p99_alone : 0.0);

    gw->stop();
    server.stop();
    directory.stopAll();

    bench::Json gateway_section;
    gateway_section
        .set("rows", static_cast<std::uint64_t>(kRows))
        .set("cols", static_cast<std::uint64_t>(kCols))
        .set("weight_density", kDensity)
        .set("n_pe", static_cast<std::uint64_t>(config.n_pe))
        .set("series", std::move(series))
        .set("fairness", std::move(fairness));

    // Append to BENCH_client.json: keep every existing section, drop
    // the writeBenchJson stamps (re-applied on write).
    bench::Json root;
    std::ifstream existing("BENCH_client.json");
    if (existing) {
        std::ostringstream text;
        text << existing.rdbuf();
        try {
            const obs::JsonValue parsed = obs::parseJson(text.str());
            for (const auto &[key, member] : parsed.object) {
                if (key == "schema_version" ||
                    key == "hardware_threads" ||
                    key == "compiler" || key == "march" ||
                    key == "kernel_simd" || key == "gateway")
                    continue;
                root.set(key, toBench(member));
            }
        } catch (const std::exception &exception) {
            std::cerr << "ignoring unreadable BENCH_client.json: "
                      << exception.what() << "\n";
        }
    } else {
        root.set("benchmark", "client_overhead");
    }
    root.set("gateway", std::move(gateway_section));
    bench::writeBenchJson("BENCH_client.json", std::move(root));

    fs::remove_all(dir);
    return 0;
}
