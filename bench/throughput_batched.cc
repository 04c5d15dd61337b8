/**
 * @file
 * Throughput and serving benchmarks of the unified execution engine
 * on a pruned 4096x4096 layer (Alex-7's shape: 9% weight density,
 * 35% activation density, 64 PEs).
 *
 * Part 1 — batched throughput: sweeps batch size x worker threads
 * through the "compiled" ExecutionBackend over a fixed set of frames,
 * checks every configuration bit-exact against the "scalar" oracle
 * backend, and writes BENCH_throughput.json (frames/sec and GOP/s per
 * point) so later PRs have a perf trajectory to regress against.
 * Every thread count runs over its own stack, compiled as CompiledBackend
 * compiles it (engine::compiledStackOptions: one row block per
 * worker). Six same-box gates: vector beats actsparse at batch 64, at
 * batch 4 and at batch 1 on one thread (AVX2 boxes), auto on one
 * thread runs at least 2x the scalar interpreter at every batch, auto
 * on the hardware thread count runs at least as fast as auto on one
 * thread at every batch — each timed in interleaved reps and compared
 * by median, so a slow phase of a shared box hits every side — and
 * the "footprint" object holds the layer's resident stream bytes to
 * at most 5 per nonzero on every stack (byte accounting, so
 * deterministic). The back-to-back best-of-3 series that fills the
 * table and "points" gates nothing.
 *
 * Part 1b — batch-1 latency vs activation density on the NT-We
 * workload: the EIE activation-sparsity story. One frame at a time
 * (the latency-bound serving shape), densities 5%..100%, under auto
 * (one row block, the whole merged stream): the row lanes on an AVX2
 * box, the actsparse loop elsewhere, and both walk only the columns
 * whose activation is nonzero. The densities are timed in interleaved
 * reps and compared by median; the "batch1_density_series" object in
 * BENCH_throughput.json gates the zero skip itself — 35% density must
 * run at least 2x the frames/s of 100% — and stamps the
 * paper-reported NT densities for context.
 *
 * Part 2 — serving latency vs offered load: an engine::InferenceServer
 * (dynamic micro-batcher) under synthetic open-loop arrivals at
 * multiples of the serial single-vector capacity, emitting
 * BENCH_serving.json with achieved throughput and p50/p99 request
 * latency per offered load. At batch-forming load the server must
 * sustain more than the serial request rate — that is the whole point
 * of the micro-batcher.
 *
 * Part 3 — overload with and without load shedding: a batch-1 server
 * driven at 1x and 2x its capacity, the rate it sustains with one
 * request in flight. Without admission control the 2x queue grows without
 * bound and p99 blows up with it; with max_queue set the server
 * sheds the excess and the p99 of the *accepted* requests stays
 * within a small factor of the 1x-load p99. Both series land in the
 * "overload" object of BENCH_serving.json.
 *
 * Run from the build directory:
 *
 *   ./bench_throughput_batched [--act-density D] \
 *       [throughput.json [serving.json]]
 *
 * --act-density overrides the 35% Part-1 activation density so
 * batch-1 numbers can be read at any paper-reported density.
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "compress/compressed_layer.hh"
#include "core/functional.hh"
#include "core/kernel/worker_pool.hh"
#include "core/plan.hh"
#include "engine/backend.hh"
#include "engine/backends.hh"
#include "engine/server.hh"
#include "nn/generate.hh"
#include "workloads/suite.hh"

namespace {

using namespace eie;

constexpr std::size_t kRows = 4096;
constexpr std::size_t kCols = 4096;
constexpr double kWeightDensity = 0.09;
constexpr double kActDensity = 0.35;
constexpr std::size_t kFrames = 64;
constexpr unsigned kRepeats = 3;
constexpr std::size_t kServeRequests = 96;

/** Part 1's batch sizes. */
constexpr std::size_t kBatches[] = {1, 4, 16, 64};

/** Part 1b: frames per density point of the batch-1 sweep, and
 *  interleaved reps per density (odd, so the median is one rep). Auto
 *  at 35% density must run at least kMinZeroSkipSpeedup times its
 *  frames/s at 100%. */
constexpr std::size_t kDensityFrames = 8;
constexpr unsigned kDensityRepeats = 9;
constexpr double kMinZeroSkipSpeedup = 2.0;

/** Part 1's gates: interleaved reps per arm (odd, so the median is
 *  one rep). */
constexpr unsigned kGateRepeats = 9;

/** Part 1 gates: auto on one thread must run at least this multiple
 *  of the scalar interpreter at every batch, and the layer's resident
 *  streams may cost at most this many bytes per nonzero. */
constexpr double kMinAutoSpeedup = 2.0;
constexpr double kMaxBytesPerNonzero = 5.0;

/** One side of an interleaved gate: a name for the divergence fatal,
 *  and a run of every Part 1 frame that returns their outputs. */
struct GateArm
{
    std::string name;
    std::function<std::vector<std::vector<std::int64_t>>()> run;
};

struct Point
{
    std::string kernel;
    std::size_t batch = 0;
    unsigned threads = 0;
    double frames_per_sec = 0.0;
    double gops = 0.0;
    double speedup = 0.0;
    bool bit_exact = false;
    std::uint64_t resident_stream_bytes = 0;
    double bytes_per_nonzero = 0.0;
};

struct ServePoint
{
    double load_factor = 0.0; ///< offered rate / serial capacity
    double offered_rps = 0.0;
    double achieved_rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double mean_batch = 0.0;
    std::size_t max_depth = 0;
};

struct OverloadPoint
{
    std::string label;
    double load_factor = 0.0;
    std::size_t max_queue = 0; ///< 0 = unbounded
    double offered_rps = 0.0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    double achieved_rps = 0.0; ///< accepted requests / wall clock
    double p50_us = 0.0;       ///< accepted requests only
    double p99_us = 0.0;       ///< accepted requests only
    std::size_t max_depth = 0;
};

double
seconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Resident stream bytes across a compiled stack. */
std::uint64_t
stackResidentBytes(const engine::CompiledStack &stack)
{
    std::uint64_t bytes = 0;
    for (const auto &layer : stack)
        bytes += layer.residentStreamBytes();
    return bytes;
}

/** Real (padding-stripped) nonzero entries across a compiled stack. */
std::uint64_t
stackEntries(const engine::CompiledStack &stack)
{
    std::uint64_t entries = 0;
    for (const auto &layer : stack)
        entries += layer.real_entries;
    return entries;
}

/** Resident stream bytes per real nonzero of a compiled stack. */
double
bytesPerNonzero(const engine::CompiledStack &stack)
{
    const std::uint64_t entries = stackEntries(stack);
    return entries > 0 ? static_cast<double>(stackResidentBytes(stack)) /
            static_cast<double>(entries)
                       : 0.0;
}

/** Median of @p samples (odd count: the middle one). */
double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** The layer description both JSON files share. */
bench::Json
layerJson(const core::EieConfig &config, double act_density)
{
    bench::Json json;
    json.set("rows", kRows)
        .set("cols", kCols)
        .set("weight_density", kWeightDensity)
        .set("act_density", act_density)
        .set("n_pe", config.n_pe);
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    double act_density = kActDensity;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--act-density") {
            fatal_if(i + 1 >= argc, "--act-density requires a value");
            act_density = std::stod(argv[++i]);
            fatal_if(act_density < 0.0 || act_density > 1.0,
                     "--act-density must be in [0, 1], got %g",
                     act_density);
        } else {
            positional.push_back(arg);
        }
    }
    const std::string throughput_path =
        !positional.empty() ? positional[0] : "BENCH_throughput.json";
    const std::string serving_path =
        positional.size() > 1 ? positional[1] : "BENCH_serving.json";

    // Build the layer and plan once.
    Rng rng(2016);
    nn::WeightGenOptions wopts;
    wopts.density = kWeightDensity;
    compress::CompressionOptions copts;
    copts.interleave.n_pe = 64;
    const auto layer = compress::CompressedLayer::compress(
        "alex7_shape", nn::makeSparseWeights(kRows, kCols, wopts, rng),
        copts);

    core::EieConfig config;
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const core::FunctionalModel model(config);

    core::kernel::Batch frames;
    for (std::size_t b = 0; b < kFrames; ++b) {
        Rng frame_rng(4096 + 77 * b);
        frames.push_back(model.quantizeInput(
            nn::makeActivations(kCols, act_density, frame_rng)));
    }

    // ---- Part 1: batched throughput ---------------------------------

    // Scalar oracle timing: rep 0 walks the interpreter with work
    // accounting (it doubles as the reference and the GOP/s
    // denominator), further reps go through the scalar backend.
    core::kernel::Batch reference;
    double useful_gops = 0.0;
    double scalar_s = 0.0;
    {
        const auto start = std::chrono::steady_clock::now();
        for (const auto &frame : frames) {
            auto result = model.run(plan, frame);
            useful_gops += result.work.usefulGops();
            reference.push_back(std::move(result.output_raw));
        }
        scalar_s = seconds(start);
    }
    const auto scalar = engine::makeBackend("scalar", config, {&plan});
    for (unsigned rep = 1; rep < kRepeats; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        reference = scalar->runBatch(frames).outputs;
        scalar_s = std::min(scalar_s, seconds(start));
    }
    const double scalar_fps = kFrames / scalar_s;

    const unsigned hw_threads =
        core::kernel::WorkerPool::hardwareThreads();
    std::vector<unsigned> thread_counts{1};
    if (hw_threads > 1)
        thread_counts.push_back(hw_threads);

    // One series per kernel variant: the explicit inner loops plus
    // "auto" (what production callers get). Every point is checked
    // bit-exact against the scalar oracle.
    const std::vector<core::kernel::KernelVariant> variants{
        core::kernel::KernelVariant::Vector,
        core::kernel::KernelVariant::ActSparse,
        core::kernel::KernelVariant::Auto,
    };

    // One pre-decoded stack per thread count, cut as CompiledBackend
    // cuts it (one row block per worker) and shared by every variant
    // on that count: the variant only picks the inner loop.
    const std::vector<const core::LayerPlan *> plan_stack{&plan};
    std::vector<std::shared_ptr<const engine::CompiledStack>> stacks;
    for (const unsigned threads : thread_counts)
        stacks.push_back(engine::compileLayerStack(
            config, plan_stack,
            engine::compiledStackOptions(
                threads, core::kernel::KernelVariant::Auto)));

    // Every frame through @p compiled, @p batch frames per call.
    auto runChunked = [&](const engine::CompiledBackend &compiled,
                          std::size_t batch) {
        core::kernel::Batch outputs;
        for (std::size_t at = 0; at < kFrames; at += batch) {
            const core::kernel::Batch chunk(
                frames.begin() + at,
                frames.begin() + std::min(at + batch, kFrames));
            for (auto &frame_out : compiled.runBatch(chunk).outputs)
                outputs.push_back(std::move(frame_out));
        }
        return outputs;
    };

    std::vector<Point> points;
    auto measureSeries = [&](const engine::CompiledBackend &compiled,
                             const char *kernel_name,
                             const engine::CompiledStack &stack,
                             unsigned threads) {
        for (const std::size_t batch : kBatches) {
            core::kernel::Batch outputs;
            double batched_s = 0.0;
            for (unsigned rep = 0; rep < kRepeats; ++rep) {
                const auto start = std::chrono::steady_clock::now();
                outputs = runChunked(compiled, batch);
                const double elapsed = seconds(start);
                batched_s = rep == 0 ? elapsed
                                     : std::min(batched_s, elapsed);
            }

            Point p;
            p.kernel = kernel_name;
            p.batch = batch;
            p.threads = threads;
            p.frames_per_sec = kFrames / batched_s;
            p.gops = useful_gops / batched_s;
            p.speedup = scalar_s / batched_s;
            p.bit_exact = outputs == reference;
            p.resident_stream_bytes = stackResidentBytes(stack);
            p.bytes_per_nonzero = bytesPerNonzero(stack);
            fatal_if(!p.bit_exact,
                     "kernel '%s', batch %zu x %u threads diverged "
                     "from the scalar oracle",
                     p.kernel.c_str(), batch, threads);
            points.push_back(p);
        }
    };

    for (const core::kernel::KernelVariant kernel : variants) {
        for (std::size_t i = 0; i < thread_counts.size(); ++i) {
            const engine::CompiledBackend compiled(
                plan_stack, stacks[i], thread_counts[i], kernel);
            measureSeries(compiled,
                          core::kernel::kernelVariantName(kernel),
                          *stacks[i], thread_counts[i]);
        }
    }

    TextTable table({"Kernel", "Batch", "Threads", "Frames/s", "GOP/s",
                     "Speedup", "B/nz", "Exact"});
    table.row()
        .add("scalar")
        .add("-")
        .add(std::uint64_t{1})
        .add(scalar_fps, 1)
        .add(useful_gops / scalar_s, 3)
        .add(1.0, 2)
        .add("-")
        .add("ref");
    for (const Point &p : points) {
        table.row()
            .add(p.kernel)
            .add(static_cast<std::uint64_t>(p.batch))
            .add(static_cast<std::uint64_t>(p.threads))
            .add(p.frames_per_sec, 1)
            .add(p.gops, 3)
            .add(p.speedup, 2)
            .add(p.bytes_per_nonzero, 2)
            .add(p.bit_exact ? "yes" : "NO");
    }
    std::cout << "4096x4096, 9% weights, " << 100.0 * act_density
              << "% activations, 64 PEs, " << kFrames << " frames\n";
    table.print(std::cout);

    double best = 0.0;
    for (const Point &p : points)
        best = std::max(best, p.speedup);
    std::cout << "best speedup over scalar interpreter: " << best
              << "x\n";

    // The same-box gates time their arms in interleaved reps, rotating
    // which arm goes first, and compare medians, so a slow phase of a
    // shared box hits every arm. Every rep is checked bit-exact.
    auto interleavedFps = [&](const std::vector<GateArm> &arms) {
        std::vector<std::vector<double>> rep_s(arms.size());
        for (unsigned rep = 0; rep < kGateRepeats; ++rep) {
            for (std::size_t i = 0; i < arms.size(); ++i) {
                const std::size_t k = (i + rep) % arms.size();
                const auto start = std::chrono::steady_clock::now();
                const auto outputs = arms[k].run();
                rep_s[k].push_back(seconds(start));
                fatal_if(outputs != reference,
                         "%s diverged from the scalar oracle",
                         arms[k].name.c_str());
            }
        }
        std::vector<double> fps;
        for (const auto &samples : rep_s)
            fps.push_back(kFrames / median(samples));
        return fps;
    };
    auto chunkedArm = [&](const engine::CompiledBackend &compiled,
                          const char *kernel, std::size_t batch,
                          unsigned threads) {
        return GateArm{std::string("kernel '") + kernel + "', batch " +
                           std::to_string(batch) + " x " +
                           std::to_string(threads) + " thread(s)",
                       [&compiled, batch, &runChunked] {
                           return runChunked(compiled, batch);
                       }};
    };

    // The headline regression gates: on one thread, the SIMD loops
    // must out-run the int64 scalar loop at the serving batch size, at
    // batch 4 (frame lanes) and at batch 1 (row lanes).
    struct GatePair
    {
        std::size_t batch;
        double actsparse_fps = 0.0;
        double vector_fps = 0.0;
    };
    GatePair gates[] = {{64}, {4}, {1}};
    const engine::CompiledBackend serial_actsparse(
        plan_stack, stacks.front(), 1,
        core::kernel::KernelVariant::ActSparse);
    const engine::CompiledBackend serial_vector(
        plan_stack, stacks.front(), 1, core::kernel::KernelVariant::Vector);
    for (GatePair &gate : gates) {
        const auto fps = interleavedFps(
            {chunkedArm(serial_actsparse, "actsparse", gate.batch, 1),
             chunkedArm(serial_vector, "vector", gate.batch, 1)});
        gate.actsparse_fps = fps[0];
        gate.vector_fps = fps[1];
        std::cout << "batch " << gate.batch << ", 1 thread: actsparse "
                  << gate.actsparse_fps << " f/s, vector "
                  << gate.vector_fps << " f/s\n";
    }
    // A CPU without AVX2 runs both sides on the actsparse loop, so
    // there is nothing to gate.
    const bool have_simd =
        std::string(core::kernel::simdIsaName()) != "none";
    for (const GatePair &gate : gates)
        fatal_if(have_simd && gate.vector_fps <= gate.actsparse_fps,
                 "vector did not beat actsparse at batch %zu on 1 thread "
                 "despite %s lanes",
                 gate.batch, core::kernel::simdIsaName());

    // The auto gates, one interleaved set: the scalar interpreter, and
    // auto at every Part 1 batch on one thread and on every hardware
    // thread. What production callers get on one thread must clearly
    // out-run the interpreter, and a stack cut for the box's thread
    // count must pay for its workers.
    const engine::CompiledBackend auto_serial(
        plan_stack, stacks.front(), 1, core::kernel::KernelVariant::Auto);
    const engine::CompiledBackend auto_pooled(
        plan_stack, stacks.back(), thread_counts.back(),
        core::kernel::KernelVariant::Auto);
    std::vector<GateArm> auto_arms{
        {"the scalar interpreter",
         [&] { return scalar->runBatch(frames).outputs; }}};
    std::vector<std::size_t> serial_arm;
    std::vector<std::size_t> pooled_arm;
    for (const std::size_t batch : kBatches) {
        serial_arm.push_back(auto_arms.size());
        auto_arms.push_back(chunkedArm(auto_serial, "auto", batch, 1));
        if (hw_threads == 1)
            continue;
        pooled_arm.push_back(auto_arms.size());
        auto_arms.push_back(
            chunkedArm(auto_pooled, "auto", batch, hw_threads));
    }
    const auto auto_fps = interleavedFps(auto_arms);
    bench::Json auto_json = bench::Json::array();
    bench::Json pooled_json = bench::Json::array();
    for (std::size_t i = 0; i < std::size(kBatches); ++i) {
        const std::size_t batch = kBatches[i];
        const double serial_fps = auto_fps[serial_arm[i]];
        const double over_scalar = serial_fps / auto_fps[0];
        std::cout << "auto, batch " << batch << ", 1 thread: "
                  << over_scalar << "x the scalar interpreter\n";
        fatal_if(over_scalar < kMinAutoSpeedup,
                 "auto ran %.2fx the scalar interpreter at batch %zu "
                 "on 1 thread (< %.1fx)",
                 over_scalar, batch, kMinAutoSpeedup);
        bench::Json point;
        point.set("batch", batch)
            .set("scalar_fps", auto_fps[0])
            .set("auto_fps", serial_fps)
            .set("auto_over_scalar", over_scalar);
        auto_json.push(std::move(point));
        if (hw_threads == 1)
            continue;
        const double pooled_fps = auto_fps[pooled_arm[i]];
        const double ratio = pooled_fps / serial_fps;
        std::cout << "auto, batch " << batch << ": " << hw_threads
                  << " threads over 1 thread " << ratio << "x\n";
        fatal_if(ratio < 1.0,
                 "auto on %u threads ran %.2fx auto on 1 thread "
                 "at batch %zu (< 1x)",
                 hw_threads, ratio, batch);
        bench::Json pooled;
        pooled.set("batch", batch)
            .set("threads", hw_threads)
            .set("serial_fps", serial_fps)
            .set("pooled_fps", pooled_fps)
            .set("pooled_over_serial", ratio);
        pooled_json.push(std::move(pooled));
    }

    bench::Json throughput_points = bench::Json::array();
    for (const Point &p : points) {
        bench::Json point;
        point.set("kernel", p.kernel)
            .set("batch", p.batch)
            .set("threads", p.threads)
            .set("frames_per_sec", p.frames_per_sec)
            .set("gops", p.gops)
            .set("speedup", p.speedup)
            .set("bit_exact", p.bit_exact)
            .set("resident_stream_bytes", p.resident_stream_bytes)
            .set("bytes_per_nonzero", p.bytes_per_nonzero);
        throughput_points.push(std::move(point));
    }
    bench::Json scalar_json;
    scalar_json.set("frames_per_sec", scalar_fps)
        .set("gops", useful_gops / scalar_s);
    auto gateJson = [](const GatePair &gate) {
        bench::Json json;
        json.set("threads", 1u)
            .set("actsparse_fps", gate.actsparse_fps)
            .set("vector_fps", gate.vector_fps)
            .set("vector_over_actsparse",
                 gate.actsparse_fps > 0.0
                     ? gate.vector_fps / gate.actsparse_fps
                     : 0.0);
        return json;
    };

    // The footprint story: one (row, codebook index) entry per
    // nonzero, column pointers per row block, and the table. Pure byte
    // accounting — deterministic, so a hard gate on every box and
    // every stack. The JSON records the serial stack.
    for (std::size_t i = 0; i < stacks.size(); ++i) {
        const double per_nonzero = bytesPerNonzero(*stacks[i]);
        std::cout << "resident streams, " << thread_counts[i]
                  << " thread(s): " << stackResidentBytes(*stacks[i])
                  << " B (" << per_nonzero << " B/nonzero)\n";
        fatal_if(per_nonzero > kMaxBytesPerNonzero,
                 "the %u-thread stack's resident streams cost %.2f B "
                 "per nonzero (> %.0f) on the paper FC shape",
                 thread_counts[i], per_nonzero, kMaxBytesPerNonzero);
    }

    bench::Json footprint_json;
    footprint_json
        .set("resident_stream_bytes", stackResidentBytes(*stacks.front()))
        .set("nonzero_entries", stackEntries(*stacks.front()))
        .set("bytes_per_nonzero", bytesPerNonzero(*stacks.front()));

    bench::Json throughput_json;
    throughput_json.set("layer", layerJson(config, act_density))
        .set("frames", kFrames)
        .set("scalar", std::move(scalar_json))
        .set("points", std::move(throughput_points))
        .set("best_speedup", best)
        .set("batch64_by_kernel", gateJson(gates[0]))
        .set("batch4_by_kernel", gateJson(gates[1]))
        .set("batch1_by_kernel", gateJson(gates[2]))
        .set("auto_over_scalar", std::move(auto_json))
        .set("auto_pooled_over_serial", std::move(pooled_json))
        .set("footprint", std::move(footprint_json));

    // ---- Part 1b: batch-1 latency vs activation density (NT-We) -----

    // The paper's activation-sparsity win is a batch-1 latency story:
    // one frame at a time, the loop auto picks touching only the
    // nonzero columns. Sweep density 5%..100% on the NT-We shape and
    // time a single frame at a time.
    workloads::SuiteRunner suite_runner(2016);
    const workloads::Benchmark &ntwe = workloads::findBenchmark("NT-We");
    const auto ntwe_plan = suite_runner.plan(ntwe, config);
    const std::vector<const core::LayerPlan *> ntwe_stack{&ntwe_plan};
    const auto ntwe_compiled =
        engine::compileLayerStack(config, ntwe_stack);
    const auto ntwe_scalar =
        engine::makeBackend("scalar", config, {&ntwe_plan});
    const engine::CompiledBackend ntwe_auto(
        ntwe_stack, ntwe_compiled, 1, core::kernel::KernelVariant::Auto);

    struct DensityPoint
    {
        double density = 0.0;
        double mean_us = 0.0;
        double frames_per_sec = 0.0;
    };
    const std::vector<double> densities{0.05, 0.15, 0.25, 0.35,
                                        0.50, 0.75, 1.00};

    // Fresh frames at each exact density, plus one oracle pass.
    std::vector<std::vector<core::kernel::Batch>> singles(
        densities.size());
    std::vector<std::vector<core::kernel::Batch>> oracle(densities.size());
    for (std::size_t d = 0; d < densities.size(); ++d) {
        for (std::size_t b = 0; b < kDensityFrames; ++b) {
            Rng frame_rng(31000 + 101 * b +
                          static_cast<std::uint64_t>(1000 * densities[d]));
            singles[d].push_back({model.quantizeInput(nn::makeActivations(
                ntwe.input, densities[d], frame_rng))});
            oracle[d].push_back(
                ntwe_scalar->runBatch(singles[d].back()).outputs);
        }
    }

    // The loop auto runs a single frame on: the row lanes (vector) on
    // an AVX2 box, actsparse elsewhere.
    const std::string ntwe_kernel =
        ntwe_auto.runBatch(singles.front().front()).dispatch.at(0).kernel;

    // Interleaved reps: each rep times every density, rotating which
    // goes first, so a slow phase of the box hits all of them.
    std::vector<std::vector<double>> rep_s(densities.size());
    for (unsigned rep = 0; rep < kDensityRepeats; ++rep) {
        for (std::size_t i = 0; i < densities.size(); ++i) {
            const std::size_t d = (i + rep) % densities.size();
            std::vector<core::kernel::Batch> outputs;
            outputs.reserve(kDensityFrames);
            const auto start = std::chrono::steady_clock::now();
            for (const auto &single : singles[d])
                outputs.push_back(ntwe_auto.runBatch(single).outputs);
            rep_s[d].push_back(seconds(start));
            fatal_if(outputs != oracle[d],
                     "auto diverged from the scalar oracle at "
                     "%.0f%% activation density",
                     100.0 * densities[d]);
        }
    }
    std::vector<DensityPoint> density_points;
    double fps_at_35 = 0.0;
    double fps_at_100 = 0.0;
    for (std::size_t d = 0; d < densities.size(); ++d) {
        const double median_s = median(rep_s[d]);
        DensityPoint p;
        p.density = densities[d];
        p.mean_us = 1e6 * median_s / kDensityFrames;
        p.frames_per_sec = kDensityFrames / median_s;
        if (p.density == 0.35)
            fps_at_35 = p.frames_per_sec;
        if (p.density == 1.00)
            fps_at_100 = p.frames_per_sec;
        density_points.push_back(p);
    }

    TextTable density_table({"Density", "Mean us/frame", "Frames/s"});
    for (const DensityPoint &p : density_points) {
        density_table.row()
            .add(100.0 * p.density, 0)
            .add(p.mean_us, 1)
            .add(p.frames_per_sec, 1);
    }
    std::cout << "\nNT-We (" << ntwe.input << "x" << ntwe.output
              << ", 10% weights), auto (" << ntwe_kernel
              << "), batch 1, 1 thread, " << kDensityFrames
              << " frames per density\n";
    density_table.print(std::cout);
    const double zero_skip_speedup =
        fps_at_100 > 0.0 ? fps_at_35 / fps_at_100 : 0.0;
    std::cout << "auto at 35% over 100% density: " << zero_skip_speedup
              << "x\n";
    // The zero-skip gate: a zero activation costs the batch-1 loop
    // nothing — the row lanes and actsparse both walk only the LNZD's
    // list of nonzero columns — so at the paper's 35% density a frame
    // must run well ahead of a dense one, on every box.
    fatal_if(zero_skip_speedup < kMinZeroSkipSpeedup,
             "auto (%s) at 35%% activation density ran %.2fx its "
             "frames/s at 100%% (< %.1fx)",
             ntwe_kernel.c_str(), zero_skip_speedup, kMinZeroSkipSpeedup);

    bench::Json density_series = bench::Json::array();
    for (const DensityPoint &p : density_points) {
        bench::Json point;
        point.set("act_density", p.density)
            .set("mean_us_per_frame", p.mean_us)
            .set("frames_per_sec", p.frames_per_sec);
        density_series.push(std::move(point));
    }
    // Paper Table III activation densities for the NeuralTalk rows,
    // stamped so the series can be read against the published numbers.
    bench::Json paper_density;
    for (const char *name : {"NT-We", "NT-Wd", "NT-LSTM"})
        paper_density.set(name,
                          workloads::findBenchmark(name).act_density);
    bench::Json density_json;
    density_json.set("workload", "NT-We")
        .set("input", ntwe.input)
        .set("output", ntwe.output)
        .set("weight_density", ntwe.weight_density)
        .set("frames", kDensityFrames)
        .set("threads", 1u)
        .set("batch", std::uint64_t{1})
        .set("points", std::move(density_series))
        .set("kernel", "auto")
        .set("executed_kernel", ntwe_kernel)
        .set("speedup_35pct_over_100pct", zero_skip_speedup)
        .set("paper_act_density", std::move(paper_density));
    throughput_json.set("batch1_density_series",
                        std::move(density_json));

    bench::writeBenchJson(throughput_path, throughput_json);

    // ---- Part 2: serving latency vs offered load --------------------

    // Serial single-vector baseline: the latency-optimal (batch 1)
    // path a server without a micro-batcher would run.
    const auto serial =
        engine::makeBackend("compiled", config, {&plan});
    double serial_s = 0.0;
    for (unsigned rep = 0; rep < kRepeats; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < 16; ++i)
            serial->run(frames[i % kFrames]);
        const double elapsed = seconds(start);
        serial_s = rep == 0 ? elapsed : std::min(serial_s, elapsed);
    }
    const double serial_rps = 16.0 / serial_s;

    engine::ServerOptions server_options;
    server_options.max_batch = 16;
    server_options.max_delay = std::chrono::microseconds(500);

    std::vector<ServePoint> serve_points;
    for (const double load : {0.5, 1.0, 2.0, 4.0}) {
        engine::InferenceServer server(
            engine::makeBackend("compiled", config, {&plan},
                                hw_threads),
            server_options);

        const double offered_rps = load * serial_rps;
        Rng arrival_rng(7000 + static_cast<std::uint64_t>(10 * load));
        const std::vector<double> arrival_s =
            engine::openLoopArrivals(kServeRequests, offered_rps,
                                     arrival_rng);

        const auto start = std::chrono::steady_clock::now();
        std::vector<std::future<std::vector<std::int64_t>>> futures;
        futures.reserve(kServeRequests);
        for (std::size_t i = 0; i < kServeRequests; ++i) {
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(arrival_s[i]));
            futures.push_back(server.submit(frames[i % kFrames]));
        }
        for (std::size_t i = 0; i < kServeRequests; ++i)
            fatal_if(futures[i].get() != reference[i % kFrames],
                     "served request %zu diverged from the scalar "
                     "oracle", i);
        const double wall_s = seconds(start);
        server.stop();

        const engine::ServerStats stats = server.stats();
        ServePoint p;
        p.load_factor = load;
        p.offered_rps = offered_rps;
        p.achieved_rps = static_cast<double>(stats.requests) / wall_s;
        p.p50_us = stats.p50_latency_us;
        p.p99_us = stats.p99_latency_us;
        p.mean_batch = stats.mean_batch;
        p.max_depth = stats.max_queue_depth;
        serve_points.push_back(p);
    }

    TextTable serve_table({"Load", "Offered r/s", "Achieved r/s",
                           "p50 us", "p99 us", "Mean batch",
                           "Max depth"});
    for (const ServePoint &p : serve_points) {
        serve_table.row()
            .add(p.load_factor, 1)
            .add(p.offered_rps, 1)
            .add(p.achieved_rps, 1)
            .add(p.p50_us, 1)
            .add(p.p99_us, 1)
            .add(p.mean_batch, 2)
            .add(static_cast<std::uint64_t>(p.max_depth));
    }
    std::cout << "\nInferenceServer, open-loop arrivals, max batch "
              << server_options.max_batch << ", forming deadline "
              << server_options.max_delay.count() << " us; serial "
              << "single-vector capacity " << serial_rps << " r/s\n";
    serve_table.print(std::cout);

    const double peak_served = serve_points.back().achieved_rps;
    std::cout << "served throughput at " << serve_points.back().load_factor
              << "x load: " << peak_served << " r/s ("
              << peak_served / serial_rps << "x serial)\n";

    bench::Json serving_points = bench::Json::array();
    for (const ServePoint &p : serve_points) {
        bench::Json point;
        point.set("load_factor", p.load_factor)
            .set("offered_rps", p.offered_rps)
            .set("achieved_rps", p.achieved_rps)
            .set("p50_latency_us", p.p50_us)
            .set("p99_latency_us", p.p99_us)
            .set("mean_batch", p.mean_batch)
            .set("max_queue_depth", p.max_depth);
        serving_points.push(std::move(point));
    }
    bench::Json server_json;
    server_json.set("backend", "compiled")
        .set("kernel", "auto")
        .set("threads", hw_threads)
        .set("max_batch", server_options.max_batch)
        .set("max_delay_us",
             static_cast<std::uint64_t>(
                 server_options.max_delay.count()));
    bench::Json serving_json;
    serving_json.set("layer", layerJson(config, act_density))
        .set("requests", kServeRequests)
        .set("serial_rps", serial_rps)
        .set("server", std::move(server_json))
        .set("points", std::move(serving_points))
        .set("peak_served_rps", peak_served)
        .set("peak_over_serial", peak_served / serial_rps);
    // ---- Part 3: overload with and without shedding -----------------

    // A batch-1 server pins capacity at one request at a time, so
    // "2x load" is genuine overload rather than more batching
    // headroom. Three runs: 1x load unbounded (the reference p99), 2x
    // load unbounded (the queue blowup), 2x load with admission
    // control (the shed series the resilience layer exists for).
    const auto batch1Options = [](std::size_t max_queue) {
        engine::ServerOptions options;
        options.max_batch = 1;
        options.max_delay = std::chrono::microseconds(50);
        options.max_queue = max_queue;
        options.shed_policy = engine::ShedPolicy::RejectNew;
        return options;
    };

    // 1x is the rate the batch-1 server sustains with one request in
    // flight, best of kRepeats: each request pays the server's handoff
    // on top of the kernel, so the back-to-back serial rate above
    // would start the 1x series already overloaded.
    double capacity_rps = 0.0;
    {
        engine::InferenceServer server(
            engine::makeBackend("compiled", config, {&plan}),
            batch1Options(0));
        for (unsigned rep = 0; rep < kRepeats; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < 16; ++i)
                fatal_if(server.submit(frames[i % kFrames]).get() !=
                             reference[i % kFrames],
                         "batch-1 request %zu diverged from the scalar "
                         "oracle", i);
            capacity_rps = std::max(capacity_rps, 16.0 / seconds(start));
        }
        server.stop();
    }

    struct OverloadConfig
    {
        const char *label;
        double load;
        std::size_t max_queue;
    };
    const std::vector<OverloadConfig> overload_configs{
        {"1x unbounded", 1.0, 0},
        {"2x unbounded", 2.0, 0},
        {"2x shedding", 2.0, 4},
    };

    std::vector<OverloadPoint> overload_points;
    for (const OverloadConfig &config_point : overload_configs) {
        engine::InferenceServer server(
            engine::makeBackend("compiled", config, {&plan}),
            batch1Options(config_point.max_queue));

        const double offered_rps = config_point.load * capacity_rps;
        Rng arrival_rng(9000 +
                        static_cast<std::uint64_t>(
                            10 * config_point.load +
                            config_point.max_queue));
        const std::vector<double> arrival_s =
            engine::openLoopArrivals(kServeRequests, offered_rps,
                                     arrival_rng);

        const auto start = std::chrono::steady_clock::now();
        std::vector<std::future<std::vector<std::int64_t>>> futures;
        futures.reserve(kServeRequests);
        for (std::size_t i = 0; i < kServeRequests; ++i) {
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(arrival_s[i]));
            futures.push_back(server.submit(frames[i % kFrames]));
        }
        std::uint64_t accepted = 0;
        std::uint64_t shed = 0;
        for (std::size_t i = 0; i < kServeRequests; ++i) {
            try {
                fatal_if(futures[i].get() != reference[i % kFrames],
                         "overloaded request %zu diverged from the "
                         "scalar oracle", i);
                ++accepted;
            } catch (const engine::ServerOverloaded &) {
                ++shed;
            }
        }
        const double wall_s = seconds(start);
        server.stop();

        const engine::ServerStats stats = server.stats();
        fatal_if(stats.requests_shed != shed,
                 "server counted %llu shed requests but %llu futures "
                 "failed with ServerOverloaded",
                 static_cast<unsigned long long>(stats.requests_shed),
                 static_cast<unsigned long long>(shed));
        fatal_if(config_point.max_queue == 0 && shed != 0,
                 "unbounded server shed %llu requests",
                 static_cast<unsigned long long>(shed));

        OverloadPoint p;
        p.label = config_point.label;
        p.load_factor = config_point.load;
        p.max_queue = config_point.max_queue;
        p.offered_rps = offered_rps;
        p.accepted = accepted;
        p.shed = shed;
        p.achieved_rps = static_cast<double>(accepted) / wall_s;
        p.p50_us = stats.p50_latency_us;
        p.p99_us = stats.p99_latency_us;
        p.max_depth = stats.max_queue_depth;
        overload_points.push_back(p);
    }

    TextTable overload_table({"Series", "Load", "Max queue",
                              "Accepted", "Shed", "Achieved r/s",
                              "p50 us", "p99 us", "Max depth"});
    for (const OverloadPoint &p : overload_points) {
        overload_table.row()
            .add(p.label)
            .add(p.load_factor, 1)
            .add(static_cast<std::uint64_t>(p.max_queue))
            .add(p.accepted)
            .add(p.shed)
            .add(p.achieved_rps, 1)
            .add(p.p50_us, 1)
            .add(p.p99_us, 1)
            .add(static_cast<std::uint64_t>(p.max_depth));
    }
    std::cout << "\nOverload (batch-1 server, 1x = its one-in-flight "
              << "rate " << capacity_rps << " r/s, " << kServeRequests
              << " requests):\n";
    overload_table.print(std::cout);

    const double baseline_p99 = overload_points[0].p99_us;
    const double blowup_p99 = overload_points[1].p99_us;
    const double shed_p99 = overload_points[2].p99_us;
    const double blowup_ratio =
        baseline_p99 > 0.0 ? blowup_p99 / baseline_p99 : 0.0;
    const double shed_ratio =
        baseline_p99 > 0.0 ? shed_p99 / baseline_p99 : 0.0;
    std::cout << "2x-load p99 over 1x-load p99: unbounded "
              << blowup_ratio << "x, with shedding " << shed_ratio
              << "x (" << overload_points[2].shed << " of "
              << kServeRequests << " requests shed)\n";
    if (shed_ratio > 3.0)
        std::cout << "WARNING: accepted-request p99 under shedding "
                     "exceeded 3x the 1x-load p99\n";

    bench::Json overload_series = bench::Json::array();
    for (const OverloadPoint &p : overload_points) {
        bench::Json point;
        point.set("series", p.label)
            .set("load_factor", p.load_factor)
            .set("max_queue", p.max_queue)
            .set("offered_rps", p.offered_rps)
            .set("accepted", p.accepted)
            .set("shed", p.shed)
            .set("achieved_rps", p.achieved_rps)
            .set("p50_latency_us", p.p50_us)
            .set("p99_latency_us", p.p99_us)
            .set("max_queue_depth", p.max_depth);
        overload_series.push(std::move(point));
    }
    bench::Json overload_json;
    overload_json.set("max_batch", std::uint64_t{1})
        .set("capacity_rps", capacity_rps)
        .set("shed_policy", "reject_new")
        .set("points", std::move(overload_series))
        .set("p99_blowup_unbounded", blowup_ratio)
        .set("p99_ratio_with_shedding", shed_ratio);
    serving_json.set("overload", std::move(overload_json));
    bench::writeBenchJson(serving_path, serving_json);
    return 0;
}
