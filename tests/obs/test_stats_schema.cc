/**
 * @file
 * Golden-schema pin over the telemetry JSON surfaces. Dashboards
 * (eie_top), --stats-json scripting and the Prometheus-ish JSON
 * exposition all key into these documents, so renaming or dropping a
 * field is a breaking change this suite makes loud: it compares the
 * exact key set of every object level against a checked-in golden
 * list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "client/client.hh"
#include "helpers.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

fs::path
scratchDir(const char *tag)
{
    static int counter = 0;
    return fs::temp_directory_path() /
        ("eie_schema_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
}

void
expectKeys(const obs::JsonValue &object,
           std::vector<std::string> golden, const char *what)
{
    ASSERT_TRUE(object.isObject()) << what;
    std::sort(golden.begin(), golden.end());
    EXPECT_EQ(object.keys(), golden) << what;
}

/** The statsJson document of a ServingDirectory serving one model on
 *  @p shard_count shards: the schema every in-process and tcp://
 *  endpoint reports. */
void
expectClusterStatsSchema(const std::string &json,
                         std::size_t shard_count)
{
    const obs::JsonValue root = obs::parseJson(json);
    expectKeys(root, {"clusters"}, "statsJson root");
    const obs::JsonValue &clusters = *root.find("clusters");
    ASSERT_TRUE(clusters.isArray());
    ASSERT_EQ(clusters.array.size(), 1u);

    const obs::JsonValue &entry = clusters.array[0];
    expectKeys(entry,
               {"model", "version", "placement", "backend", "kernel",
                "residency", "shards", "requests",
                "dropped_deadline", "failed", "requests_shed",
                "failovers", "shards_ejected", "mean_batch",
                "p50_latency_us", "p95_latency_us", "p99_latency_us",
                "p999_latency_us", "layers", "shard_stats"},
               "cluster entry");

    const obs::JsonValue &layers = *entry.find("layers");
    ASSERT_TRUE(layers.isArray());
    ASSERT_FALSE(layers.array.empty());
    expectKeys(layers.array[0],
               {"layer", "kernel", "act_density",
                "mean_act_density", "sweeps", "residency",
                "decoded_bytes", "compressed_bytes", "decode_us"},
               "layer entry");

    const obs::JsonValue &shards = *entry.find("shard_stats");
    ASSERT_TRUE(shards.isArray());
    ASSERT_EQ(shards.array.size(), shard_count);
    expectKeys(shards.array[0],
               {"requests", "queue_depth", "utilization", "shed",
                "forming_delay_us", "health", "failures",
                "col_begin", "col_end"},
               "shard entry");
}

TEST(StatsSchema, ClusterStatsJsonKeySetIsPinned)
{
    const fs::path dir = scratchDir("cluster");
    core::EieConfig config;
    config.n_pe = 4;
    serve::ModelRegistry registry(dir.string(), config);
    registry.publish(
        "fc", 1,
        test::randomCompressedLayer(96, 64, 0.25, 4, 31).storage());

    serve::ClusterOptions options;
    options.shards = 2;
    serve::ServingDirectory directory(registry, options);
    std::string error;
    serve::ClusterEngine *cluster =
        directory.cluster("fc", 0, error);
    ASSERT_NE(cluster, nullptr) << error;
    // One request so layer dispatch stats exist, not just zeros.
    cluster->infer(std::vector<std::int64_t>(64, 1));

    expectClusterStatsSchema(directory.statsJson(), 2);

    directory.stopAll();
    fs::remove_all(dir);
}

TEST(StatsSchema, MetricsRegistryJsonKeySetIsPinned)
{
    obs::MetricsRegistry registry;
    registry.counter("eie_schema_total").add(2);
    registry.gauge("eie_schema_depth").set(1.0);
    registry.histogram("eie_schema_us").record(10.0);

    const obs::JsonValue root =
        obs::parseJson(registry.renderJson());
    expectKeys(root, {"counters", "gauges", "histograms"},
               "metrics root");
    expectKeys(*root.find("counters"), {"eie_schema_total"},
               "counters");
    expectKeys(*root.find("gauges"), {"eie_schema_depth"}, "gauges");
    const obs::JsonValue &histograms = *root.find("histograms");
    expectKeys(histograms, {"eie_schema_us"}, "histograms");
    // The exposition must carry the full percentile curve:
    // p50/p95/p99/p99.9 plus count/mean/max.
    expectKeys(*histograms.find("eie_schema_us"),
               {"count", "mean", "p50", "p95", "p99", "p999", "max"},
               "histogram summary");
}

TEST(StatsSchema, LocalEndpointStatsJsonKeySetIsPinned)
{
    const fs::path dir = scratchDir("local");
    core::EieConfig config;
    config.n_pe = 4;
    serve::ModelRegistry registry(dir.string(), config);
    registry.publish(
        "fc", 1,
        test::randomCompressedLayer(96, 64, 0.25, 4, 32).storage());

    client::ClientOptions options;
    options.config = config;
    auto client = client::Client::connectOrDie(
        "local:compiled,dir=" + dir.string(), options);
    ASSERT_TRUE(client
                    ->inferRaw("fc",
                               std::vector<std::int64_t>(64, 1))
                    .ok());

    client::EndpointStats stats;
    ASSERT_TRUE(client->stats(stats).ok());
    // The structured fields expose the same percentile curve as the
    // JSON document.
    EXPECT_GE(stats.p999_latency_us, stats.p50_latency_us);

    // A local: endpoint is a one-shard in-process cluster, and
    // reports exactly the cluster schema.
    expectClusterStatsSchema(stats.json, 1);

    client->close();
    fs::remove_all(dir);
}

} // namespace
