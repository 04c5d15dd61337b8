#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include <sys/resource.h>

#include "common/random.hh"
#include "core/functional.hh"
#include "core/kernel/variant.hh"
#include "nn/generate.hh"
#include "obs/metrics.hh"

namespace perfbench {

using namespace eie;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

// ------------------------------------------------------ LatencySample

void
LatencySample::fail()
{
    entries_.push_back({Clock::now(), std::numeric_limits<double>::infinity()});
    ++failed_;
}

void
LatencySample::merge(const LatencySample &other)
{
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
    failed_ += other.failed_;
}

double
LatencySample::quantile(double q) const
{
    if (entries_.empty())
        return 0.0;
    std::vector<double> sorted;
    sorted.reserve(entries_.size());
    for (const Entry &entry : entries_)
        sorted.push_back(entry.us);
    std::sort(sorted.begin(), sorted.end());
    return sorted[obs::nearestRankIndex(sorted.size(), q)];
}

double
LatencySample::mean() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const Entry &entry : entries_)
        if (std::isfinite(entry.us)) {
            sum += entry.us;
            ++n;
        }
    return n ? sum / static_cast<double>(n) : 0.0;
}

LatencySample
LatencySample::window(Clock::time_point begin, Clock::time_point end) const
{
    LatencySample part;
    for (const Entry &entry : entries_)
        if (entry.done >= begin && entry.done < end) {
            part.entries_.push_back(entry);
            part.failed_ += std::isfinite(entry.us) ? 0 : 1;
        }
    return part;
}

// ------------------------------------------------------------- Report

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

// ------------------------------------------------------ metric names

const std::vector<std::string> &
kernelLayerNames()
{
    static const std::vector<std::string> names = {
        "NT-We", "NT-LSTM"};
    return names;
}

const std::vector<std::string> &
ladderRungNames()
{
    static const std::vector<std::string> names = {
        "kernel", "lstm_session", "cluster_submit", "cluster", "tcp",
        "http"};
    return names;
}

std::vector<std::pair<std::string, std::string>>
perLayerMetricNames()
{
    std::vector<std::pair<std::string, std::string>> names;
    for (const std::string &layer : kernelLayerNames()) {
        const std::string prefix = "kernel." + layer + ".";
        names.emplace_back(prefix + "us_per_call", "us");
        names.emplace_back(prefix + "gop_per_s", "GOP/s");
        names.emplace_back(prefix + "gb_per_s", "GB/s");
        names.emplace_back(prefix + "variant", "id");
        names.emplace_back(prefix + "decode_us", "us");
    }
    names.insert(names.end(),
                 {{"backend.us_per_call", "us"},
                  {"backend.overhead_us", "us"},
                  {"server.queue_wait_us", "us"},
                  {"server.batch_form_us", "us"},
                  {"server.kernel_run_us", "us"},
                  {"server.mean_batch", "count"},
                  {"server.batch_fill", "ratio"},
                  {"server.forming_delay_us", "us"},
                  {"server.requests_shed", "count"},
                  {"server.dropped_deadline", "count"},
                  {"cluster.shard0.busy_frac", "ratio"},
                  {"cluster.shard1.busy_frac", "ratio"},
                  {"cluster.shard2.busy_frac", "ratio"},
                  {"cluster.shard3.busy_frac", "ratio"},
                  {"cluster.shard_share_max", "ratio"},
                  {"cluster.failovers", "count"},
                  {"tcp.overhead_us", "us"},
                  {"tcp.step_overhead_us", "us"},
                  {"wire.encode_us", "us"},
                  {"wire.decode_us", "us"},
                  {"client.overhead_us", "us"},
                  {"client.submit_us", "us"},
                  {"client.retries", "count"},
                  {"lstm.host_us_per_step", "us"},
                  {"gateway.step_overhead_us", "us"},
                  {"gateway.session_open_us", "us"},
                  {"obs.spans_per_request", "count"}});
    for (const std::string &rung : ladderRungNames())
        names.emplace_back("ladder." + rung + ".self_us", "us");
    names.insert(names.end(), {{"ladder.sum_us", "us"},
                               {"ladder.untraced_p50_us", "us"},
                               {"ladder.gap_frac", "ratio"},
                               {"trace.overhead_us", "us"}});
    return names;
}

std::vector<std::pair<std::string, std::string>>
endToEndMetricNames()
{
    return {{"throughput_rps", "1/s"},
            {"latency_p50_us", "us"},
            {"setup_s", "s"},
            {"peak_rss_mb", "MB"}};
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// --------------------------------------------------------- SpanDigest

bool
SpanDigest::add(const std::vector<obs::Span> &spans)
{
    // One request's view: when it was enqueued, which batch (batcher
    // thread + kernel_run start) it rode in, and on which shard.
    struct Request
    {
        unsigned enqueues = 0;
        double enqueued_us = 0.0;
        bool ran = false;
        std::uint64_t tid = 0;
        double kernel_start_us = 0.0;
        double kernel_us = 0.0;
        int shard = 0;
    };
    std::map<std::uint64_t, Request> requests;
    for (const obs::Span &span : spans) {
        Request &request = requests[span.trace_id];
        if (span.name == "enqueue") {
            ++request.enqueues;
            request.enqueued_us = span.start_us;
        } else if (span.name == "kernel_run") {
            request.ran = true;
            request.tid = span.tid;
            request.kernel_start_us = span.start_us;
            request.kernel_us = span.dur_us;
        } else if (span.name == "shard_submit" &&
                   span.arg.rfind("shard=", 0) == 0) {
            request.shard = std::stoi(span.arg.substr(6));
        }
    }

    struct Batch
    {
        double newest_enqueue_us = 0.0;
        double kernel_us = 0.0;
        int shard = 0;
        std::uint64_t requests = 0;
    };
    std::map<std::pair<std::uint64_t, double>, Batch> batches;
    for (const auto &[trace_id, request] : requests) {
        (void)trace_id;
        if (request.enqueues > 1)
            retries_ += request.enqueues - 1;
        if (!request.ran)
            continue;
        queue_wait_.ok(request.kernel_start_us - request.enqueued_us);
        Batch &batch = batches[{request.tid, request.kernel_start_us}];
        batch.newest_enqueue_us =
            std::max(batch.newest_enqueue_us, request.enqueued_us);
        batch.kernel_us = request.kernel_us;
        batch.shard = request.shard;
        ++batch.requests;
    }
    for (const auto &[key, batch] : batches) {
        form_tail_.ok(key.second - batch.newest_enqueue_us);
        kernel_run_.ok(batch.kernel_us);
        shard_kernel_us_[batch.shard] += batch.kernel_us;
        shard_requests_[batch.shard] += batch.requests;
    }
    batches_ += batches.size();
    spans_ += spans.size();
    return spans.size() < obs::SpanRing::kDefaultCapacity;
}

bool
SpanDigest::drainProcessRing()
{
    obs::SpanRing &ring = obs::processTraceRing();
    const bool complete = add(ring.snapshot());
    ring.clear();
    return complete;
}

// -------------------------------------------------------- LayerKernel

LayerKernel::LayerKernel(std::string name,
                         const core::kernel::CompiledLayer &layer)
    : name_(std::move(name)), layer_(&layer)
{}

core::kernel::Batch
LayerKernel::run(const core::kernel::Batch &inputs)
{
    core::kernel::DispatchInfo info;
    const auto start = Clock::now();
    core::kernel::Batch outputs = core::kernel::runBatch(
        *layer_, inputs, nullptr, core::kernel::KernelVariant::Auto,
        &info);
    record(microsSince(start), inputs, info);
    return outputs;
}

void
LayerKernel::record(double us, const core::kernel::Batch &inputs,
                    const core::kernel::DispatchInfo &info)
{
    call_us_.push_back(us);
    std::uint64_t nonzero = 0, total = 0;
    for (const Frame &frame : inputs) {
        total += frame.size();
        nonzero += static_cast<std::uint64_t>(std::count_if(
            frame.begin(), frame.end(),
            [](std::int64_t v) { return v != 0; }));
    }
    frames_ += inputs.size();
    density_sum_ += total ? static_cast<double>(nonzero) /
            static_cast<double>(total)
                          : 0.0;
    decode_us_sum_ += info.decode_us;
    ++variants_[info.variant];
}

void
LayerKernel::merge(const LayerKernel &other)
{
    call_us_.insert(call_us_.end(), other.call_us_.begin(),
                    other.call_us_.end());
    frames_ += other.frames_;
    density_sum_ += other.density_sum_;
    decode_us_sum_ += other.decode_us_sum_;
    for (const auto &[variant, count] : other.variants_)
        variants_[variant] += count;
}

double
LayerKernel::p50Us() const
{
    LatencySample sample;
    for (double us : call_us_)
        sample.ok(us);
    return sample.quantile(0.5);
}

void
LayerKernel::report(Report &report) const
{
    const double calls = static_cast<double>(call_us_.size());
    const double us = p50Us();
    const double batch = calls > 0 ? static_cast<double>(frames_) / calls
                                   : 0.0;
    const double density = calls > 0 ? density_sum_ / calls : 0.0;

    core::kernel::KernelVariant variant = core::kernel::KernelVariant::Auto;
    std::uint64_t most = 0;
    for (const auto &[candidate, count] : variants_)
        if (count > most) {
            most = count;
            variant = candidate;
        }
    const std::string variant_name = core::kernel::kernelVariantName(variant);
    const auto &names = core::kernel::kernelVariantNames();
    const double variant_id = static_cast<double>(
        std::find(names.begin(), names.end(), variant_name) -
        names.begin());

    // Computed traffic: the activation-queue walk touches only the
    // columns of nonzero activations, once per frame; the other
    // variants sweep the whole stream once per call.
    const double nnz = static_cast<double>(layer_->real_entries);
    const double bytes_per_nnz = nnz > 0
        ? static_cast<double>(layer_->residentStreamBytes()) / nnz
        : 0.0;
    const bool per_frame_walk =
        variant == core::kernel::KernelVariant::ActSparse;
    const double walked = per_frame_walk ? nnz * density * batch : nnz;
    const double activation_bytes = batch * 8.0 *
        static_cast<double>(layer_->input_size + layer_->output_size);
    const double bytes = bytes_per_nnz * walked + activation_bytes;
    const double ops = 2.0 * nnz * density * batch;

    const std::string prefix = "kernel." + name_ + ".";
    report.add(prefix + "us_per_call", us, "us");
    report.add(prefix + "gop_per_s", us > 0 ? ops / (us * 1e3) : 0.0,
               "GOP/s");
    report.add(prefix + "gb_per_s", us > 0 ? bytes / (us * 1e3) : 0.0,
               "GB/s");
    report.add(prefix + "variant", variant_id, "id");
    report.add(prefix + "decode_us", calls > 0 ? decode_us_sum_ / calls
                                               : 0.0,
               "us");

    bench::Json row;
    row.set("layer", name_)
        .set("calls", static_cast<std::uint64_t>(call_us_.size()))
        .set("batch", batch)
        .set("act_density", density)
        .set("nnz", static_cast<std::uint64_t>(layer_->real_entries))
        .set("resident_bytes", layer_->residentStreamBytes())
        .set("residency", core::kernel::residencyName(layer_->residency))
        .set("variant", variant_name)
        .set("us_per_call_p50", us)
        .set("computed_bytes_per_call", bytes)
        .set("ops_per_call", ops);
    report.detail.set("kernel." + name_, std::move(row));
}

// ----------------------------------------------------- serving phase

ServingCounters
ServingCounters::now()
{
    obs::MetricsRegistry &registry = obs::processRegistry();
    ServingCounters counters;
    counters.requests =
        registry.counter("eie_server_requests_total").value();
    counters.batches = registry.counter("eie_server_batches_total").value();
    counters.shed = registry.counter("eie_server_shed_total").value();
    counters.dropped_deadline =
        registry.counter("eie_server_dropped_deadline_total").value();
    counters.failovers =
        registry.counter("eie_cluster_failovers_total").value();
    return counters;
}

ServingCounters
ServingCounters::operator-(const ServingCounters &before) const
{
    ServingCounters delta;
    delta.requests = requests - before.requests;
    delta.batches = batches - before.batches;
    delta.shed = shed - before.shed;
    delta.dropped_deadline = dropped_deadline - before.dropped_deadline;
    delta.failovers = failovers - before.failovers;
    return delta;
}

bool
TracedPhase::drain()
{
    forming_delay_us.push_back(
        obs::processRegistry().gauge("eie_server_forming_delay_us").value());
    return digest.drainProcessRing();
}

void
reportServing(Report &report, const TracedPhase &phase,
              std::size_t max_batch, unsigned shards)
{
    const SpanDigest &digest = phase.digest;
    const double mean_batch = phase.counters.batches
        ? static_cast<double>(phase.counters.requests) /
            static_cast<double>(phase.counters.batches)
        : 0.0;
    double forming = 0.0;
    for (double us : phase.forming_delay_us)
        forming += us;
    if (!phase.forming_delay_us.empty())
        forming /= static_cast<double>(phase.forming_delay_us.size());

    report.add("server.queue_wait_us", digest.queueWait().quantile(0.5),
               "us");
    report.add("server.batch_form_us", digest.formTail().quantile(0.5),
               "us");
    report.add("server.kernel_run_us", digest.kernelRun().quantile(0.5),
               "us");
    report.add("server.mean_batch", mean_batch, "count");
    report.add("server.batch_fill",
               max_batch ? mean_batch / static_cast<double>(max_batch) : 0.0,
               "ratio");
    report.add("server.forming_delay_us", forming, "us");
    report.add("server.requests_shed",
               static_cast<double>(phase.counters.shed), "count");
    report.add("server.dropped_deadline",
               static_cast<double>(phase.counters.dropped_deadline),
               "count");
    report.add("obs.spans_per_request",
               phase.completed ? static_cast<double>(digest.spans()) /
                       static_cast<double>(phase.completed)
                               : 0.0,
               "count");
    report.add("client.retries", static_cast<double>(digest.retries()),
               "count");

    bench::Json detail;
    detail.set("completed", phase.completed)
        .set("spans", digest.spans())
        .set("batches", digest.batches())
        .set("wall_s", phase.wall_s)
        .set("server_requests", phase.counters.requests)
        .set("server_batches", phase.counters.batches);
    if (shards > 0) {
        std::uint64_t served = 0, most = 0;
        for (const auto &[shard, count] : digest.shardRequests()) {
            (void)shard;
            served += count;
            most = std::max(most, count);
        }
        bench::Json busy = bench::Json::array();
        for (unsigned shard = 0; shard < shards; ++shard) {
            const auto it = digest.shardKernelUs().find(static_cast<int>(shard));
            const double kernel_us =
                it == digest.shardKernelUs().end() ? 0.0 : it->second;
            const double frac = phase.wall_s > 0
                ? kernel_us / (phase.wall_s * 1e6)
                : 0.0;
            report.add("cluster.shard" + std::to_string(shard) +
                           ".busy_frac",
                       frac, "ratio");
            busy.push(frac);
        }
        report.add("cluster.shard_share_max",
                   served ? static_cast<double>(most) /
                           static_cast<double>(served)
                          : 0.0,
                   "ratio");
        report.add("cluster.failovers",
                   static_cast<double>(phase.counters.failovers), "count");
        detail.set("shard_busy_frac", std::move(busy));
    }
    report.detail.set("traced_phase", std::move(detail));
}

// ------------------------------------------------------------- Ladder

void
Ladder::rung(const std::string &name, double p50_us)
{
    rungs_.emplace_back(name, p50_us);
}

void
Ladder::report(Report &report, double untraced_p50_us,
               double margin) const
{
    std::map<std::string, double> self;
    bench::Json table = bench::Json::array();
    double below = 0.0;
    for (const auto &[name, p50] : rungs_) {
        self[name] = p50 - below;
        bench::Json row;
        row.set("rung", name).set("p50_us", p50).set("self_us",
                                                      p50 - below);
        table.push(std::move(row));
        below = p50;
    }
    for (const std::string &rung : ladderRungNames())
        report.add("ladder." + rung + ".self_us",
                   self.count(rung) ? self[rung] : 0.0, "us");

    double sum = 0.0;
    for (const auto &[name, value] : self) {
        (void)name;
        sum += value;
    }
    const double gap = untraced_p50_us > 0
        ? std::abs(sum - untraced_p50_us) / untraced_p50_us
        : 0.0;
    report.add("ladder.sum_us", sum, "us");
    report.add("ladder.untraced_p50_us", untraced_p50_us, "us");
    report.add("ladder.gap_frac", gap, "ratio");
    report.add("trace.overhead_us", sum - untraced_p50_us, "us");

    bench::Json ladder;
    ladder.set("rungs", std::move(table))
        .set("sum_us", sum)
        .set("untraced_p50_us", untraced_p50_us)
        .set("margin", margin)
        .set("within_margin", gap <= margin);
    report.detail.set("ladder", std::move(ladder));
}

// ------------------------------------------------------------ inputs

std::vector<Frame>
makeFrames(const core::EieConfig &config, std::size_t count,
           std::size_t size, double density, std::uint64_t seed)
{
    const core::FunctionalModel functional(config);
    std::vector<Frame> frames;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Rng rng(seed * 0x9E3779B97F4A7C15ull + i + 1);
        frames.push_back(functional.quantizeInput(
            nn::makeActivations(size, density, rng)));
    }
    return frames;
}

void
reportEndToEnd(Report &report, const LatencySample &latency,
               Clock::time_point start, double seconds,
               const std::vector<double> &setup_s)
{
    const double window_s = seconds / kWindows;
    const auto length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(window_s));
    std::vector<double> rates, p50s;
    bench::Json windows = bench::Json::array();
    LatencySample measured;
    for (int w = 0; w < kWindows; ++w) {
        const LatencySample part =
            latency.window(start + w * length, start + (w + 1) * length);
        measured.merge(part);
        rates.push_back(static_cast<double>(part.count() - part.failed()) /
                        window_s);
        p50s.push_back(part.quantile(0.5));
        bench::Json row;
        row.set("rps", rates.back())
            .set("p50_us", p50s.back())
            .set("samples", part.count());
        windows.push(std::move(row));
    }
    report.add("throughput_rps", median(rates), "1/s");
    report.add("latency_p50_us", median(p50s), "us");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");

    bench::Json setups = bench::Json::array();
    for (double s : setup_s)
        setups.push(s);
    report.detail.set("latency_samples", measured.count())
        .set("latency_failed", measured.failed())
        .set("p50_us_whole_run", measured.quantile(0.50))
        .set("p99_us_whole_run", measured.quantile(0.99))
        .set("windows", std::move(windows))
        .set("setup_samples_s", std::move(setups));
}

} // namespace perfbench
