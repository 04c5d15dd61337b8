/**
 * @file
 * lstm-sessions — stateful streaming through the front door. Four
 * client threads each hold an `http://` connection to an HttpGateway
 * with one bearer-token tenant whose limits sit above the load (a 429
 * counts as a failure). The gateway proxies to `tcp://`, then to a
 * 4-shard replicated cluster serving NT-LSTM. Each thread repeatedly
 * opens a session, runs a 20-step "caption" and closes it: sequential
 * batch-1 steps, session state, the adaptive forming window and the
 * host gate math.
 *
 * Ladder (four threads of captions throughout): core::kernel::runBatch
 * on the packed gate layer -> engine::LstmSession::step over it ->
 * sessions on a `cluster:` endpoint -> on a `tcp://` endpoint to the
 * daemon -> on the `http://` gateway.
 */

#include <filesystem>
#include <memory>
#include <thread>

#include "client/client.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "engine/backend.hh"
#include "engine/backends.hh"
#include "engine/lstm_session.hh"
#include "gateway/gateway.hh"
#include "harness.hh"
#include "nn/generate.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace eie;

constexpr const char *kModel = "nt-lstm";
constexpr const char *kToken = "perfbench-token";
constexpr unsigned kShards = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kSteps = 20; ///< steps per caption

/** The captions' inputs and their oracle trajectories. */
struct Captions
{
    engine::LstmShape shape;
    std::vector<std::vector<nn::Vector>> x;    ///< [caption][step]
    std::vector<std::vector<nn::Vector>> h;    ///< oracle hidden state
    std::vector<std::vector<Frame>> packed;    ///< [x; h; 1] raw
    std::vector<std::vector<Frame>> gates;     ///< raw pre-activations
};

/** The serving stack, torn down clients -> gateway -> listener ->
 *  shards. */
struct Stack
{
    std::string dir;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::ServingDirectory> directory;
    std::unique_ptr<serve::TcpServer> server;
    std::unique_ptr<gateway::HttpGateway> gateway;
    std::vector<std::unique_ptr<client::Client>> clients;

    std::string
    tcpEndpoint() const
    {
        return "tcp://127.0.0.1:" + std::to_string(server->port());
    }

    ~Stack()
    {
        for (auto &client : clients)
            client->close();
        if (gateway)
            gateway->stop();
        if (server)
            server->stop();
        if (directory)
            directory->stopAll();
    }
};

/** Set-up: publish, open the registry, start the shards' directory,
 *  the listener and the gateway, connect the four clients and run
 *  one session step (which loads, plans, compiles and shards). */
std::unique_ptr<Stack>
setUp(const std::string &dir, const compress::CompressedLayer &layer,
      const core::EieConfig &config, const nn::Vector &warm_x)
{
    auto stack = std::make_unique<Stack>();
    stack->dir = dir;
    std::filesystem::remove_all(dir);
    stack->registry = std::make_unique<serve::ModelRegistry>(dir, config);
    stack->registry->publish(kModel, 1, layer.storage());
    serve::ClusterOptions cluster;
    cluster.shards = kShards;
    stack->directory =
        std::make_unique<serve::ServingDirectory>(*stack->registry, cluster);
    stack->server = std::make_unique<serve::TcpServer>(*stack->directory);
    stack->server->start();

    gateway::GatewayOptions gateway_options;
    gateway_options.client.config = config;
    client::Status status;
    stack->gateway = gateway::HttpGateway::create(
        stack->tcpEndpoint(), gateway_options, status);
    fatal_if(!stack->gateway, "gateway: %s", status.toString().c_str());
    // One tenant, limits well above four sequential streams.
    stack->gateway->tenants().load(gateway::loadTenantConfigs(
        std::string(R"({"tenants":[{"name":"perfbench","token":")") +
        kToken +
        R"(","rate_qps":1000000,"burst":1000000,"max_concurrent":64}]})"));

    client::ClientOptions options;
    options.config = config;
    const std::string endpoint = "http://127.0.0.1:" +
        std::to_string(stack->gateway->port()) + ",token=" + kToken;
    for (std::size_t k = 0; k < kClients; ++k) {
        stack->clients.push_back(
            client::Client::connect(endpoint, options, status));
        fatal_if(!stack->clients.back(), "http endpoint: %s",
                 status.toString().c_str());
    }
    const auto session =
        stack->clients.front()->openSession(kModel, 0, status);
    fatal_if(!session, "warm-up session: %s", status.toString().c_str());
    const client::Session::StepResult warm = session->step(warm_x);
    fatal_if(!warm.ok(), "warm-up step failed: %s",
             warm.status.toString().c_str());
    session->close();
    return stack;
}

/** The oracle: every caption's trajectory through an LstmSession over
 *  the scalar interpreter, recording each step's packed input and gate
 *  pre-activations for the kernel rung. */
Captions
makeCaptions(const core::EieConfig &config, const core::LayerPlan &plan,
             std::size_t count, std::uint64_t seed)
{
    Captions captions;
    std::string error;
    fatal_if(!engine::LstmShape::derive(plan.input_size, plan.output_size,
                                        captions.shape, error),
             "%s", error.c_str());
    const auto scalar = engine::makeBackend("scalar", config, {&plan});
    engine::LstmSession session(config, captions.shape);
    const double density =
        workloads::findBenchmark("NT-LSTM").act_density;
    for (std::size_t c = 0; c < count; ++c) {
        session.reset();
        captions.x.emplace_back();
        captions.h.emplace_back();
        captions.packed.emplace_back();
        captions.gates.emplace_back();
        for (std::size_t t = 0; t < kSteps; ++t) {
            Rng rng(seed * 0x9E3779B97F4A7C15ull + c * kSteps + t + 1);
            captions.x[c].push_back(nn::makeActivations(
                captions.shape.input_size, density, rng));
            captions.h[c].push_back(session.step(
                captions.x[c][t], [&](Frame packed) {
                    captions.packed[c].push_back(packed);
                    Frame gates =
                        std::move(scalar->run(packed).outputs.front());
                    captions.gates[c].push_back(gates);
                    return gates;
                }));
        }
    }
    return captions;
}

/** One client thread's view of a rung. */
class SessionDriver
{
  public:
    virtual ~SessionDriver() = default;
    /** Begin a caption; false if the session could not be opened. */
    virtual bool open() = 0;
    /** Step @p t of caption @p c, checked against the oracle. */
    virtual bool step(std::size_t c, std::size_t t) = 0;
    virtual void close() {}

    /** Session-open latencies (client rungs only; one driver per
     *  thread, so no sharing). */
    LatencySample opens;
};

/** Kernel rung: the packed gate M×V alone. */
class KernelDriver final : public SessionDriver
{
  public:
    KernelDriver(const core::kernel::CompiledLayer &layer,
                 const Captions &captions)
        : kernel_("NT-LSTM", layer), captions_(captions)
    {}
    bool open() override { return true; }
    bool
    step(std::size_t c, std::size_t t) override
    {
        return kernel_.run({captions_.packed[c][t]}).front() ==
            captions_.gates[c][t];
    }
    const LayerKernel &kernel() const { return kernel_; }

  private:
    LayerKernel kernel_;
    const Captions &captions_;
};

/** lstm_session rung: the host gate math around the same M×V. */
class HostDriver final : public SessionDriver
{
  public:
    HostDriver(const core::EieConfig &config,
               const core::kernel::CompiledLayer &layer,
               const Captions &captions)
        : layer_(layer), captions_(captions),
          session_(config, captions.shape)
    {}
    bool
    open() override
    {
        session_.reset();
        return true;
    }
    bool
    step(std::size_t c, std::size_t t) override
    {
        const nn::Vector h =
            session_.step(captions_.x[c][t], [&](Frame packed) {
                return core::kernel::runBatch(layer_, {std::move(packed)})
                    .front();
            });
        return h == captions_.h[c][t];
    }

  private:
    const core::kernel::CompiledLayer &layer_;
    const Captions &captions_;
    engine::LstmSession session_;
};

/** Client rungs: a client::Session per caption on any endpoint. */
class ClientDriver final : public SessionDriver
{
  public:
    ClientDriver(client::Client &client, const Captions &captions)
        : client_(client), captions_(captions)
    {}
    bool
    open() override
    {
        client::Status status;
        const auto start = Clock::now();
        session_ = client_.openSession(kModel, 0, status);
        opens.record(session_ != nullptr, microsSince(start));
        return session_ != nullptr;
    }
    bool
    step(std::size_t c, std::size_t t) override
    {
        const client::Session::StepResult result =
            session_->step(captions_.x[c][t]);
        return result.ok() && result.h == captions_.h[c][t];
    }
    void
    close() override
    {
        session_->close();
        session_.reset();
    }

  private:
    client::Client &client_;
    const Captions &captions_;
    std::unique_ptr<client::Session> session_;
};

/**
 * Run captions on every driver in parallel (one thread each) until
 * @p until or until @p budget steps have started; a thread checks the
 * clock only between captions. A failed open or step fails the
 * request and abandons the caption. @p next_caption rotates each
 * thread's captions across calls. Returns the steps attempted.
 */
std::uint64_t
runCaptions(std::vector<std::unique_ptr<SessionDriver>> &drivers,
            std::size_t captions, Clock::time_point until,
            std::uint64_t budget, std::vector<std::size_t> &next_caption,
            LatencySample &latency, Tally &tally)
{
    std::atomic<std::uint64_t> started{0};
    std::vector<LatencySample> per_thread(drivers.size());
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < drivers.size(); ++k)
        threads.emplace_back([&, k] {
            SessionDriver &driver = *drivers[k];
            while (Clock::now() < until &&
                   started.fetch_add(kSteps) + kSteps <= budget) {
                const std::size_t c =
                    (k + drivers.size() * next_caption[k]++) % captions;
                if (!driver.open()) {
                    per_thread[k].fail();
                    tally.record(false);
                    continue;
                }
                for (std::size_t t = 0; t < kSteps; ++t) {
                    const auto start = Clock::now();
                    const bool ok = driver.step(c, t);
                    per_thread[k].record(ok, microsSince(start));
                    tally.record(ok);
                    if (!ok)
                        break;
                }
                driver.close();
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    std::uint64_t attempted = 0;
    for (const LatencySample &sample : per_thread) {
        attempted += sample.count();
        latency.merge(sample);
    }
    return attempted;
}

/** The four http:// drivers of the workload itself. */
std::vector<std::unique_ptr<SessionDriver>>
httpDrivers(Stack &stack, const Captions &captions)
{
    std::vector<std::unique_ptr<SessionDriver>> drivers;
    for (auto &client : stack.clients)
        drivers.push_back(std::make_unique<ClientDriver>(*client, captions));
    return drivers;
}

/** Session-open latencies of every driver. */
LatencySample
openLatencies(const std::vector<std::unique_ptr<SessionDriver>> &drivers)
{
    LatencySample opens;
    for (const auto &driver : drivers)
        opens.merge(driver->opens);
    return opens;
}

/** One shared client for all four threads (as the gateway shares its
 *  backend connection), each thread its own sessions. */
double
clientRung(client::Client &client, const Captions &captions,
           Clock::time_point until, Report &report)
{
    LatencySample steps;
    std::vector<std::unique_ptr<SessionDriver>> drivers;
    for (std::size_t k = 0; k < kClients; ++k)
        drivers.push_back(std::make_unique<ClientDriver>(client, captions));
    std::vector<std::size_t> next(kClients, 0);
    runCaptions(drivers, captions.x.size(), until, UINT64_MAX, next, steps,
                report.tally);
    return steps.quantile(0.5);
}

void
traced(const Options &options, const core::EieConfig &config, Stack &stack,
       const Captions &captions, Report &report)
{
    const double s = options.seconds;
    std::vector<std::size_t> next(kClients, 0);
    LatencySample untraced;
    {
        auto drivers = httpDrivers(stack, captions);
        runCaptions(drivers, captions.x.size(),
                    RunClock::forSeconds(0.25 * s).until, UINT64_MAX, next,
                    untraced, report.tally);
    }

    // Kernel and host rungs over one compiled gate layer, compiled the
    // way the shards compile it.
    const auto loaded = stack.registry->load(kModel, 0, nn::Nonlinearity::None);
    const auto compiled = engine::compileLayerStack(
        config, {&loaded->plan()},
        engine::compiledStackOptions(1, core::kernel::KernelVariant::Auto));
    const core::kernel::CompiledLayer &layer = compiled->front();

    std::vector<std::unique_ptr<SessionDriver>> kernel_drivers, host_drivers;
    for (std::size_t k = 0; k < kClients; ++k) {
        kernel_drivers.push_back(
            std::make_unique<KernelDriver>(layer, captions));
        host_drivers.push_back(
            std::make_unique<HostDriver>(config, layer, captions));
    }
    LatencySample kernel_rung, host_rung;
    runCaptions(kernel_drivers, captions.x.size(),
                RunClock::forSeconds(0.1 * s).until, UINT64_MAX, next,
                kernel_rung, report.tally);
    runCaptions(host_drivers, captions.x.size(),
                RunClock::forSeconds(0.1 * s).until, UINT64_MAX, next,
                host_rung, report.tally);

    client::ClientOptions client_options;
    client_options.config = config;
    auto in_process = client::Client::connectOrDie(
        "cluster:" + stack.dir + ",shards=" + std::to_string(kShards),
        client_options);
    const double cluster_p50 = clientRung(
        *in_process, captions, RunClock::forSeconds(0.1 * s).until, report);
    in_process->close();
    auto wire = client::Client::connectOrDie(stack.tcpEndpoint(),
                                             client_options);
    const double tcp_p50 = clientRung(
        *wire, captions, RunClock::forSeconds(0.1 * s).until, report);
    wire->close();

    // Top rung: the workload itself, spans drained between segments.
    TracedPhase phase;
    LatencySample top;
    auto drivers = httpDrivers(stack, captions);
    const bool complete = runTraced(
        phase, RunClock::forSeconds(0.35 * s).until, kTracedSegment,
        [&](Clock::time_point until, std::uint64_t budget) {
            return runCaptions(drivers, captions.x.size(), until, budget,
                               next, top, report.tally);
        });
    fatal_if(!complete, "span ring filled during a traced segment");

    LayerKernel kernel("NT-LSTM", layer);
    for (const auto &driver : kernel_drivers)
        kernel.merge(static_cast<const KernelDriver &>(*driver).kernel());
    kernel.report(report);
    reportServing(report, phase, engine::ServerOptions{}.max_batch, kShards);

    const double kernel_p50 = kernel_rung.quantile(0.5);
    const double host_p50 = host_rung.quantile(0.5);
    const double http_p50 = top.quantile(0.5);
    report.add("lstm.host_us_per_step", host_p50 - kernel_p50, "us");
    report.add("tcp.step_overhead_us", tcp_p50 - cluster_p50, "us");
    report.add("gateway.step_overhead_us", http_p50 - tcp_p50, "us");
    report.add("gateway.session_open_us",
               openLatencies(drivers).quantile(0.5), "us");

    Ladder ladder;
    ladder.rung("kernel", kernel_p50);
    ladder.rung("lstm_session", host_p50);
    ladder.rung("cluster", cluster_p50);
    ladder.rung("tcp", tcp_p50);
    ladder.rung("http", http_p50);
    ladder.report(report, untraced.quantile(0.5), kLadderMargin);
}

} // namespace

void
runLstmSessions(const Options &options, Report &report)
{
    const core::EieConfig config; // 64 PEs
    workloads::SuiteRunner runner; // the paper's fixed layer
    const compress::CompressedLayer &layer =
        runner.layer(workloads::findBenchmark("NT-LSTM"));

    // The oracle plans the published image the way the registry does,
    // with the M×V's drain non-linearity off (gates run on the host).
    const auto model = serve::LoadedModel::fromStorage(
        kModel, 1, layer.storage(), nn::Nonlinearity::None, config);
    const Captions captions = makeCaptions(
        config, model->plan(), options.smoke ? 2 : 8, options.seed);

    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    for (unsigned i = 0; i < options.setupRepeats(); ++i) {
        stack.reset();
        const auto start = Clock::now();
        stack = setUp(options.scratch + "/lstm-registry-" +
                          std::to_string(i),
                      layer, config, captions.x[0][0]);
        setup_s.push_back(secondsSince(start));
    }

    report.detail.set("captions", static_cast<std::uint64_t>(captions.x.size()))
        .set("steps_per_caption", static_cast<std::uint64_t>(kSteps))
        .set("clients", static_cast<std::uint64_t>(kClients))
        .set("shards", static_cast<std::uint64_t>(kShards));
    if (options.trace) {
        traced(options, config, *stack, captions, report);
        return;
    }

    LatencySample warmup, latency;
    auto drivers = httpDrivers(*stack, captions);
    std::vector<std::size_t> next(kClients, 0);
    runCaptions(drivers, captions.x.size(),
                RunClock::forSeconds(options.warmupSeconds()).until,
                UINT64_MAX, next, warmup, report.tally);
    const RunClock clock = RunClock::forSeconds(options.seconds);
    runCaptions(drivers, captions.x.size(), clock.until, UINT64_MAX, next,
                latency, report.tally);
    reportEndToEnd(report, latency, clock.start, options.seconds, setup_s);
    report.detail.set("session_open_p50_us",
                      openLatencies(drivers).quantile(0.5));
}

} // namespace perfbench
