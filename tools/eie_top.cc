/**
 * @file
 * eie_top — a live terminal dashboard over a running eie_serve
 * daemon, in the spirit of top(1):
 *
 *   eie_top --connect HOST:PORT [--gateway HOST:PORT]
 *           [--interval-s S] [--iterations N] [--once]
 *
 * Each refresh polls the daemon's StatsRequest (per-cluster serving
 * stats) and MetricsRequest (the process registry) over the wire
 * protocol and redraws:
 *
 *   - per cluster: placement, shards, cumulative requests, the QPS
 *     over the last interval (delta of the requests counter), queue
 *     depth summed over shards, shed / failover / ejection counters,
 *     mean batch and the p50/p95/p99/p99.9 latency curve;
 *   - per layer: the kernel variant the last sweep executed, the
 *     measured activation density of its input, and the bytes the
 *     layer's weight streams keep resident;
 *   - process totals from the metrics registry (server requests /
 *     batches / sheds and the process-wide latency histogram).
 *
 * With --gateway, each refresh additionally polls an eie_gateway's
 * /v1/stats endpoint over HTTP and renders the per-tenant panel:
 * admitted QPS over the last interval, in-flight against the
 * concurrency quota (utilization), rate/quota rejections and the
 * per-tenant p99. --gateway also works standalone (without
 * --connect) for gateway-only deployments.
 *
 * --once prints a single snapshot without clearing the screen (for
 * scripts and tests); --iterations N exits after N refreshes.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "gateway/http.hh"
#include "obs/json.hh"
#include "serve/tcp.hh"

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
        "eie_top — live dashboard over a running eie_serve daemon\n"
        "  --connect HOST:PORT  daemon to watch\n"
        "  --gateway HOST:PORT  eie_gateway to watch (per-tenant "
        "panel;\n"
        "                       combines with --connect or stands "
        "alone)\n"
        "  --interval-s S       refresh interval (default 1.0)\n"
        "  --iterations N       exit after N refreshes (0 = until "
        "SIGINT)\n"
        "  --once               one snapshot, no screen clearing\n";
}

struct Args
{
    std::string host;
    std::uint16_t port = 0;
    std::string gateway_host;
    std::uint16_t gateway_port = 0;
    double interval_s = 1.0;
    std::uint64_t iterations = 0;
    bool once = false;
};

/** One cluster's previous requests counter, for QPS deltas. */
struct Baseline
{
    std::string key;
    double requests = 0.0;
};

double
qpsOf(std::vector<Baseline> &baselines, const std::string &key,
      double requests, double elapsed_s)
{
    for (Baseline &b : baselines) {
        if (b.key != key)
            continue;
        const double delta = requests - b.requests;
        b.requests = requests;
        return elapsed_s > 0.0 ? std::max(0.0, delta) / elapsed_s
                               : 0.0;
    }
    baselines.push_back({key, requests});
    return 0.0; // first sample: no interval to rate over
}

void
render(const obs::JsonValue &stats, const obs::JsonValue &metrics,
       std::vector<Baseline> &baselines, double elapsed_s,
       std::ostream &out)
{
    const obs::JsonValue *clusters = stats.find("clusters");

    TextTable table({"Model", "Place", "Shards", "Requests", "QPS",
                     "Queue", "Shed", "Failover", "Ejected", "Batch",
                     "p50us", "p95us", "p99us", "p99.9us"});
    if (clusters != nullptr && clusters->isArray()) {
        for (const obs::JsonValue &cluster : clusters->array) {
            double queue_depth = 0.0;
            if (const obs::JsonValue *shards =
                    cluster.find("shard_stats");
                shards != nullptr && shards->isArray())
                for (const obs::JsonValue &shard : shards->array)
                    queue_depth += shard.numberOr("queue_depth", 0.0);
            const std::string key = cluster.stringOr("model", "?") +
                "@" +
                std::to_string(static_cast<std::uint64_t>(
                    cluster.numberOr("version", 0.0)));
            const double requests =
                cluster.numberOr("requests", 0.0);
            table.row()
                .add(cluster.stringOr("model", "?"))
                .add(cluster.stringOr("placement", "?"))
                .add(static_cast<std::uint64_t>(
                    cluster.numberOr("shards", 0.0)))
                .add(static_cast<std::uint64_t>(requests))
                .add(qpsOf(baselines, key, requests, elapsed_s), 1)
                .add(static_cast<std::uint64_t>(queue_depth))
                .add(static_cast<std::uint64_t>(
                    cluster.numberOr("requests_shed", 0.0)))
                .add(static_cast<std::uint64_t>(
                    cluster.numberOr("failovers", 0.0)))
                .add(static_cast<std::uint64_t>(
                    cluster.numberOr("shards_ejected", 0.0)))
                .add(cluster.numberOr("mean_batch", 0.0), 2)
                .add(cluster.numberOr("p50_latency_us", 0.0), 1)
                .add(cluster.numberOr("p95_latency_us", 0.0), 1)
                .add(cluster.numberOr("p99_latency_us", 0.0), 1)
                .add(cluster.numberOr("p999_latency_us", 0.0), 1);
        }
    }
    table.print(out);

    // Per-layer kernel variant and density mix — the dispatch
    // decisions auto is making right now and the sparsity of the
    // traffic — and what each layer's weights cost to keep resident.
    TextTable layers({"Model", "Layer", "Kernel", "ResKB", "ActDensity",
                      "MeanDensity", "Sweeps"});
    bool any_layers = false;
    if (clusters != nullptr && clusters->isArray()) {
        for (const obs::JsonValue &cluster : clusters->array) {
            const obs::JsonValue *layer_array = cluster.find("layers");
            if (layer_array == nullptr || !layer_array->isArray())
                continue;
            for (const obs::JsonValue &layer : layer_array->array) {
                any_layers = true;
                layers.row()
                    .add(cluster.stringOr("model", "?"))
                    .add(layer.stringOr("layer", "?"))
                    .add(layer.stringOr("kernel", "-"))
                    .add(layer.numberOr("resident_bytes", 0.0) / 1024.0,
                         1)
                    .add(layer.numberOr("act_density", -1.0), 3)
                    .add(layer.numberOr("mean_act_density", 0.0), 3)
                    .add(static_cast<std::uint64_t>(
                        layer.numberOr("sweeps", 0.0)));
            }
        }
    }
    if (any_layers)
        layers.print(out);

    // Process totals from the metrics registry.
    const obs::JsonValue *counters = metrics.find("counters");
    const obs::JsonValue *gauges = metrics.find("gauges");
    const obs::JsonValue *histograms = metrics.find("histograms");
    if (counters != nullptr && counters->isObject()) {
        out << "process: requests="
            << static_cast<std::uint64_t>(counters->numberOr(
                   "eie_server_requests_total", 0.0))
            << " batches="
            << static_cast<std::uint64_t>(counters->numberOr(
                   "eie_server_batches_total", 0.0))
            << " shed="
            << static_cast<std::uint64_t>(counters->numberOr(
                   "eie_server_shed_total", 0.0))
            << " failovers="
            << static_cast<std::uint64_t>(counters->numberOr(
                   "eie_cluster_failovers_total", 0.0));
        if (gauges != nullptr && gauges->isObject())
            out << " resident_kb="
                << static_cast<std::uint64_t>(
                       gauges->numberOr("eie_model_resident_bytes",
                                        0.0) /
                       1024.0);
        if (histograms != nullptr) {
            if (const obs::JsonValue *latency =
                    histograms->find("eie_server_latency_us");
                latency != nullptr)
                out << "  latency p50/p99="
                    << latency->numberOr("p50", 0.0) << "/"
                    << latency->numberOr("p99", 0.0) << "us";
        }
        out << "\n";
    }
}

/** The per-tenant panel from an eie_gateway's /v1/stats document:
 *  admitted QPS (counter delta), in-flight vs. quota, rejections by
 *  cause, bucket level and the per-tenant latency tail. */
void
renderGateway(const obs::JsonValue &stats,
              std::vector<Baseline> &baselines, double elapsed_s,
              std::ostream &out)
{
    if (const obs::JsonValue *gw = stats.find("gateway")) {
        out << "gateway: backend=" << gw->stringOr("backend", "?")
            << " requests="
            << static_cast<std::uint64_t>(
                   gw->numberOr("requests", 0.0))
            << " rejected="
            << static_cast<std::uint64_t>(
                   gw->numberOr("rejected", 0.0))
            << " sessions="
            << static_cast<std::uint64_t>(
                   gw->numberOr("open_sessions", 0.0))
            << " auth="
            << (gw->find("auth_enabled") != nullptr &&
                        gw->find("auth_enabled")->boolean
                    ? "on"
                    : "off")
            << "\n";
    }
    const obs::JsonValue *tenants = stats.find("tenants");
    if (tenants == nullptr || !tenants->isArray() ||
        tenants->array.empty())
        return;
    TextTable table({"Tenant", "Prio", "QPS", "Admitted", "InFlight",
                     "Quota", "Util%", "RejRate", "RejQuota",
                     "Bucket", "p50us", "p99us"});
    for (const obs::JsonValue &tenant : tenants->array) {
        const std::string name = tenant.stringOr("name", "?");
        const double admitted = tenant.numberOr("admitted", 0.0);
        const obs::JsonValue *latency = tenant.find("latency_us");
        table.row()
            .add(name)
            .add(static_cast<std::int64_t>(
                tenant.numberOr("priority", 0.0)))
            .add(qpsOf(baselines, "tenant:" + name, admitted,
                       elapsed_s),
                 1)
            .add(static_cast<std::uint64_t>(admitted))
            .add(static_cast<std::uint64_t>(
                tenant.numberOr("in_flight", 0.0)))
            .add(static_cast<std::uint64_t>(
                tenant.numberOr("max_concurrent", 0.0)))
            .add(tenant.numberOr("quota_utilization", 0.0) * 100.0,
                 1)
            .add(static_cast<std::uint64_t>(
                tenant.numberOr("rejected_rate", 0.0)))
            .add(static_cast<std::uint64_t>(
                tenant.numberOr("rejected_quota", 0.0)))
            .add(tenant.numberOr("bucket_level", 0.0), 1)
            .add(latency != nullptr ? latency->numberOr("p50", 0.0)
                                    : 0.0,
                 1)
            .add(latency != nullptr ? latency->numberOr("p99", 0.0)
                                    : 0.0,
                 1);
    }
    table.print(out);
}

int
run(const Args &args)
{
    std::unique_ptr<serve::TcpClient> client;
    if (!args.host.empty())
        client =
            std::make_unique<serve::TcpClient>(args.host, args.port);
    std::signal(SIGINT, onSignal);

    std::vector<Baseline> baselines;
    auto last = std::chrono::steady_clock::now();
    for (std::uint64_t iteration = 0;; ++iteration) {
        obs::JsonValue stats, metrics;
        if (client) {
            stats = obs::parseJson(client->stats());
            metrics = obs::parseJson(client->metrics().json);
        }
        obs::JsonValue gateway_stats;
        if (!args.gateway_host.empty()) {
            // One fresh connection per poll: the dashboard's rate is
            // human, and a gateway restart between refreshes must
            // not kill the watch.
            gateway::HttpClientConnection http(args.gateway_host,
                                               args.gateway_port);
            const gateway::HttpParsedResponse response =
                http.roundTrip("GET", "/v1/stats", {}, "");
            fatal_if(response.status != 200,
                     "gateway /v1/stats returned HTTP %d",
                     response.status);
            gateway_stats = obs::parseJson(response.body);
        }

        const auto now = std::chrono::steady_clock::now();
        const double elapsed_s =
            std::chrono::duration<double>(now - last).count();
        last = now;

        // Render into a buffer first so a slow poll never leaves a
        // half-drawn screen.
        std::ostringstream frame;
        if (client)
            render(stats, metrics, baselines,
                   iteration == 0 ? 0.0 : elapsed_s, frame);
        if (!args.gateway_host.empty())
            renderGateway(gateway_stats, baselines,
                          iteration == 0 ? 0.0 : elapsed_s, frame);
        if (!args.once)
            std::cout << "\x1b[H\x1b[2J"; // home + clear
        std::cout << "eie_top — ";
        if (client)
            std::cout << args.host << ":" << args.port;
        if (!args.gateway_host.empty())
            std::cout << (client ? " + " : "") << "gateway "
                      << args.gateway_host << ":"
                      << args.gateway_port;
        std::cout << " (interval " << args.interval_s << "s)\n"
                  << frame.str() << std::flush;

        if (args.once ||
            (args.iterations != 0 &&
             iteration + 1 >= args.iterations))
            return 0;

        const auto wake = now +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(args.interval_s));
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
        } else if (arg == "--connect") {
            const std::string target = next();
            const std::size_t colon = target.rfind(':');
            fatal_if(colon == std::string::npos,
                     "--connect needs HOST:PORT");
            args.host = target.substr(0, colon);
            args.port = static_cast<std::uint16_t>(
                std::stoul(target.substr(colon + 1)));
        } else if (arg == "--gateway") {
            std::string target = next();
            // Accept the URL the gateway banner prints verbatim.
            if (target.rfind("http://", 0) == 0)
                target = target.substr(7);
            while (!target.empty() && target.back() == '/')
                target.pop_back();
            const std::size_t colon = target.rfind(':');
            fatal_if(colon == std::string::npos,
                     "--gateway needs HOST:PORT");
            args.gateway_host = target.substr(0, colon);
            args.gateway_port = static_cast<std::uint16_t>(
                std::stoul(target.substr(colon + 1)));
        } else if (arg == "--interval-s") {
            args.interval_s = std::stod(next());
            fatal_if(args.interval_s <= 0.0,
                     "--interval-s must be > 0");
        } else if (arg == "--iterations") {
            args.iterations = std::stoull(next());
        } else if (arg == "--once") {
            args.once = true;
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    fatal_if(args.host.empty() && args.gateway_host.empty(),
             "eie_top needs --connect and/or --gateway HOST:PORT");

    try {
        return run(args);
    } catch (const std::exception &error) {
        fatal("%s", error.what());
    }
}
