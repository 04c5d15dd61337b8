/**
 * @file
 * perfbench — the repository's serving benchmark.
 *
 *   perfbench --workload ntwe-burst|lstm-sessions
 *             --seed N --seconds S --trace 0|1
 *             --out RESULT.json --scratch DIR [--commit SHA] [--smoke]
 *
 * Untraced (--trace 0) runs measure the end-to-end metrics through
 * the public Client API; traced runs (--trace 1) climb the workload's
 * layer ladder and read the span ring for the per-layer metrics. Every
 * response is checked bit-exact against the scalar oracle; any
 * mismatch or non-Ok status counts as a failed request and makes the
 * exit status 1.
 *
 * The stamped result (seed, commit and bench::writeBenchJson's
 * compiler/march/kernel_simd/hardware_threads stamps) goes to --out;
 * the last stdout line is the result summary
 * {"correct","attempted","failed","metrics":{name:{"value","unit"}}}.
 * perfbench/run.py builds this binary and runs it.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "common/logging.hh"
#include "harness.hh"

namespace {

using namespace perfbench;

const char *kUsage =
    "usage: perfbench --workload ntwe-burst|lstm-sessions "
    "--seed N --seconds S --trace 0|1 --out FILE --scratch DIR "
    "[--commit SHA] [--smoke]";

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            options.smoke = true;
            continue;
        }
        fatal_if(i + 1 >= argc, "%s needs a value\n%s", flag.c_str(),
                 kUsage);
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::stoull(value);
        else if (flag == "--seconds")
            options.seconds = std::stod(value);
        else if (flag == "--trace")
            options.trace = value != "0";
        else if (flag == "--out")
            options.out = value;
        else if (flag == "--scratch")
            options.scratch = value;
        else if (flag == "--commit")
            options.commit = value;
        else
            fatal("unknown flag %s\n%s", flag.c_str(), kUsage);
    }
    fatal_if(options.workload.empty() || options.out.empty() ||
                 options.scratch.empty(),
             "%s", kUsage);
    fatal_if(!(options.seconds > 0), "--seconds must be positive");
    return options;
}

/** JSON has no infinity: a failed request's infinite latency prints
 *  as the largest double (the run is marked incorrect anyway). */
double
jsonNumber(double value)
{
    return std::isfinite(value) ? value
                                : std::numeric_limits<double>::max();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    std::filesystem::create_directories(options.scratch);

    Report report;
    if (options.workload == "ntwe-burst")
        runNtweBurst(options, report);
    else if (options.workload == "lstm-sessions")
        runLstmSessions(options, report);
    else
        fatal("unknown workload '%s'\n%s", options.workload.c_str(),
              kUsage);

    // Emit exactly the contract's metrics, in contract order: a
    // per-layer metric the workload does not exercise reads 0.
    std::map<std::string, Metric> measured;
    for (const Metric &metric : report.metrics)
        fatal_if(!measured.emplace(metric.name, metric).second,
                 "metric %s reported twice", metric.name.c_str());
    const auto names =
        options.trace ? perLayerMetricNames() : endToEndMetricNames();
    std::vector<Metric> emitted;
    bench::Json not_exercised = bench::Json::array();
    for (const auto &[name, unit] : names) {
        const auto it = measured.find(name);
        if (it == measured.end()) {
            fatal_if(!options.trace, "end-to-end metric %s missing",
                     name.c_str());
            emitted.push_back({name, 0.0, unit});
            not_exercised.push(name);
            continue;
        }
        fatal_if(it->second.unit != unit, "metric %s has unit %s, not %s",
                 name.c_str(), it->second.unit.c_str(), unit.c_str());
        emitted.push_back(it->second);
        measured.erase(it);
    }
    fatal_if(!measured.empty(), "metric %s is not in the contract",
             measured.begin()->first.c_str());

    const std::uint64_t attempted = report.tally.attempted.load();
    const std::uint64_t failed = report.tally.failed.load();
    const bool correct = attempted > 0 && failed == 0;

    bench::Json metrics;
    for (const Metric &metric : emitted) {
        bench::Json entry;
        entry.set("value", jsonNumber(metric.value)).set("unit", metric.unit);
        metrics.set(metric.name, std::move(entry));
    }
    bench::Json root;
    root.set("benchmark", "perfbench")
        .set("workload", options.workload)
        .set("seed", options.seed)
        .set("git_commit", options.commit)
        .set("trace", options.trace)
        .set("seconds", options.seconds)
        .set("smoke", options.smoke)
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("error_rate", attempted ? static_cast<double>(failed) /
                     static_cast<double>(attempted)
                                     : 0.0)
        .set("metrics", std::move(metrics))
        .set("not_exercised", std::move(not_exercised))
        .set("detail", std::move(report.detail));
    bench::writeBenchJson(options.out, std::move(root));

    std::cout << std::setprecision(17) << "{\"correct\": "
              << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < emitted.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << emitted[i].name
                  << "\": {\"value\": " << jsonNumber(emitted[i].value)
                  << ", \"unit\": \"" << emitted[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
