#include "serve/tcp.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/faultpoint.hh"
#include "common/logging.hh"
#include "engine/lstm_session.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace eie::serve {

namespace {

/** Receive exactly @p size bytes; false on EOF/error/shutdown. */
bool
recvExact(int fd, void *out, std::size_t size)
{
    auto *p = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        const ssize_t got = ::recv(fd, p, size, 0);
        if (got == 0)
            return false; // orderly EOF
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += got;
        size -= static_cast<std::size_t>(got);
    }
    return true;
}

/** Send all of @p data; false on error/shutdown. */
bool
sendAll(int fd, const std::uint8_t *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t sent =
            ::send(fd, data, size, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += sent;
        size -= static_cast<std::size_t>(sent);
    }
    return true;
}

/** Read one whole frame body; empty vector on EOF/close. Throws
 *  WireError on an oversized frame. */
std::vector<std::uint8_t>
recvFrameBody(int fd)
{
    std::uint32_t body_len = 0;
    if (!recvExact(fd, &body_len, sizeof(body_len)))
        return {};
    if (body_len == 0 || body_len > wire::kMaxBodyBytes)
        throw wire::WireError("frame body length " +
                              std::to_string(body_len) +
                              " out of range");
    std::vector<std::uint8_t> body(body_len);
    if (!recvExact(fd, body.data(), body.size()))
        return {};
    return body;
}

void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/**
 * Remove and return the pending entry registered under @p key, if
 * still present — the one correlate/reclaim primitive shared by the
 * client's reader (response arrived) and its submitters (send
 * failed): whoever extracts the entry owns resolving its promise,
 * so the two sides can never double-resolve.
 */
template <typename Map>
std::optional<typename Map::mapped_type>
takePending(std::mutex &mutex, Map &map, std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = map.find(key);
    if (it == map.end())
        return std::nullopt;
    typename Map::mapped_type value = std::move(it->second);
    map.erase(it);
    return value;
}

/**
 * Resolve the oldest promise of a FIFO-correlated response queue
 * (stats/info/metrics/trace — the server answers each type in
 * order). An empty queue is tolerated: failAllPending() already
 * claimed the promise on a racing connection loss.
 */
template <typename Response>
void
resolveFifo(std::mutex &mutex,
            std::deque<std::promise<Response>> &queue,
            Response response)
{
    std::promise<Response> promise;
    bool found = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!queue.empty()) {
            promise = std::move(queue.front());
            queue.pop_front();
            found = true;
        }
    }
    if (found)
        promise.set_value(std::move(response));
}

/** Map a ServingDirectory lookup failure onto the wire taxonomy: a
 *  missing model is the client's NotFound; a policy rejection (e.g.
 *  the partitioned-shards preflight) is a server deployment problem,
 *  hence Internal. */
wire::ErrorCode
clusterErrorCode(ServingDirectory::LookupStatus status)
{
    return status == ServingDirectory::LookupStatus::NotFound
        ? wire::ErrorCode::NotFound
        : wire::ErrorCode::Internal;
}

/** Map the exception a request or session step failed with onto the
 *  wire taxonomy. A shed is "not now", not "broken": Unavailable, so
 *  clients know a backoff-retry can succeed. */
wire::ErrorCode
wireErrorCode(const std::exception &error)
{
    if (dynamic_cast<const std::invalid_argument *>(&error))
        return wire::ErrorCode::InvalidArgument;
    if (dynamic_cast<const engine::DeadlineExpired *>(&error))
        return wire::ErrorCode::DeadlineExpired;
    if (dynamic_cast<const engine::ServerOverloaded *>(&error) ||
        dynamic_cast<const engine::ServerStopped *>(&error))
        return wire::ErrorCode::Unavailable;
    return wire::ErrorCode::Internal;
}

} // namespace

// ------------------------------------------------------------ TcpServer

/** One open streaming LSTM session. The reader packs steps and the
 *  writer commits them; in_flight hands the state from one to the
 *  other, so the two never touch it at once. */
struct TcpServer::LiveSession
{
    LiveSession(const core::EieConfig &config,
                const engine::LstmShape &shape, ClusterEngine *engine)
        : session(config, shape), cluster(engine)
    {}

    engine::LstmSession session;
    /** The None-nonlinearity cluster running the gate M×V; owned by
     *  the ServingDirectory, which outlives the server. */
    ClusterEngine *cluster;
    /** A step is submitted and not yet committed by the writer
     *  (guarded by Connection::mutex). */
    bool in_flight = false;
};

TcpServer::TcpServer(ServingDirectory &directory,
                     const TcpServerOptions &options)
    : directory_(directory), options_(options)
{}

TcpServer::~TcpServer()
{
    stop();
}

void
TcpServer::start()
{
    fatal_if(started_, "TcpServer::start() called twice");
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    fatal_if(listen_fd_ < 0, "socket(): %s", std::strerror(errno));

    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    fatal_if(::inet_pton(AF_INET, options_.bind_address.c_str(),
                         &addr.sin_addr) != 1,
             "invalid bind address '%s'",
             options_.bind_address.c_str());
    fatal_if(::bind(listen_fd_,
                    reinterpret_cast<const sockaddr *>(&addr),
                    sizeof(addr)) != 0,
             "bind(%s:%u): %s", options_.bind_address.c_str(),
             options_.port, std::strerror(errno));
    fatal_if(::listen(listen_fd_, options_.backlog) != 0,
             "listen(): %s", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    fatal_if(::getsockname(listen_fd_,
                           reinterpret_cast<sockaddr *>(&bound),
                           &bound_len) != 0,
             "getsockname(): %s", std::strerror(errno));
    port_ = ntohs(bound.sin_port);

    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
}

void
TcpServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            // Transient failures (peer reset before accept, momentary
            // fd exhaustion) must not kill the accept loop — only a
            // stop() (which closes the listener) ends it.
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            {
                std::lock_guard<std::mutex> lock(connections_mutex_);
                if (stopping_)
                    return;
            }
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOBUFS || errno == ENOMEM) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            inform("accept(): %s; no longer accepting",
                   std::strerror(errno));
            return;
        }
        setNoDelay(fd);
        std::lock_guard<std::mutex> lock(connections_mutex_);
        if (stopping_) {
            ::close(fd);
            return;
        }
        reapFinishedLocked();
        ++accepted_;
        auto connection = std::make_unique<Connection>();
        connection->fd = fd;
        Connection &ref = *connection;
        connection->reader =
            std::thread([this, &ref] { readerLoop(ref); });
        connection->writer =
            std::thread([this, &ref] { writerLoop(ref); });
        connections_.push_back(std::move(connection));
    }
}

void
TcpServer::reapFinishedLocked()
{
    // Join and release connections whose both threads have exited, so
    // a long-lived daemon under connection churn does not accumulate
    // fds and thread handles until stop(). Caller holds
    // connections_mutex_.
    std::erase_if(connections_, [](const std::unique_ptr<Connection>
                                       &connection) {
        if (connection->live_threads.load() != 0)
            return false;
        if (connection->reader.joinable())
            connection->reader.join();
        if (connection->writer.joinable())
            connection->writer.join();
        ::close(connection->fd);
        return true;
    });
}

void
TcpServer::enqueue(Connection &connection, Outbound outbound)
{
    {
        std::lock_guard<std::mutex> lock(connection.mutex);
        if (outbound.session != nullptr)
            outbound.session->in_flight = true;
        connection.outbox.push_back(std::move(outbound));
    }
    connection.cv.notify_all();
}

void
TcpServer::handleSessionOpen(Connection &connection,
                             const wire::SessionOpen &open)
{
    wire::SessionAck ack;
    ack.session_id = open.session_id;

    std::string error;
    ServingDirectory::LookupStatus lookup;
    // Sessions run the gate M×V with no drain non-linearity: the
    // pre-activations feed the host-side sigmoids/tanh.
    ClusterEngine *cluster =
        directory_.cluster(open.model, open.version, error,
                           nn::Nonlinearity::None, &lookup);
    engine::LstmShape shape;
    if (cluster == nullptr) {
        ack.code = clusterErrorCode(lookup);
        ack.error = std::move(error);
    } else if (!engine::LstmShape::derive(cluster->inputSize(),
                                          cluster->outputSize(), shape,
                                          error)) {
        ack.code = wire::ErrorCode::InvalidArgument;
        ack.error = std::move(error);
    } else if (connection.sessions.count(open.session_id) != 0) {
        ack.code = wire::ErrorCode::InvalidArgument;
        ack.error = "session id " + std::to_string(open.session_id) +
            " is already open on this connection";
    } else if (connection.sessions.size() >=
               options_.max_sessions_per_connection) {
        ack.code = wire::ErrorCode::Unavailable;
        ack.error = "session limit (" +
            std::to_string(options_.max_sessions_per_connection) +
            " per connection) reached; close a session first";
    } else {
        connection.sessions.emplace(
            open.session_id,
            std::make_shared<LiveSession>(cluster->model().config(),
                                          shape, cluster));
        ack.ok = true;
        ack.input_size = shape.input_size;
        ack.hidden_size = shape.hidden_size;
    }

    Outbound out;
    out.ready = std::move(ack);
    enqueue(connection, std::move(out));
}

bool
TcpServer::handleSessionStep(Connection &connection,
                             const wire::SessionStep &step)
{
    Outbound out;
    wire::SessionState state;
    state.session_id = step.session_id;
    state.id = step.id;

    const auto it = connection.sessions.find(step.session_id);
    if (it == connection.sessions.end()) {
        state.code = wire::ErrorCode::NotFound;
        state.error = "session " + std::to_string(step.session_id) +
            " is not open on this connection";
    } else {
        const std::shared_ptr<LiveSession> &live = it->second;
        {
            // A step consumes the previous step's state: wait for the
            // writer to commit it. A writer that exits first sets
            // closing, which ends the wait and this connection.
            std::unique_lock<std::mutex> lock(connection.mutex);
            connection.cv.wait(lock, [&] {
                return !live->in_flight || connection.closing;
            });
            if (connection.closing)
                return false;
        }
        try {
            std::vector<std::int64_t> packed = live->session.pack(
                nn::Vector(step.x.begin(), step.x.end()));
            engine::SubmitOptions submit;
            submit.priority = step.priority;
            submit.deadline =
                std::chrono::microseconds(step.deadline_us);
            submit.trace_id = step.trace_id;
            out.pending =
                live->cluster->submit(std::move(packed), submit);
            out.id = step.id;
            out.session_id = step.session_id;
            out.session = live;
        } catch (const std::exception &error) {
            state.code = wireErrorCode(error);
            state.error = error.what();
        }
    }
    if (out.session == nullptr)
        out.ready = std::move(state);
    enqueue(connection, std::move(out));
    return true;
}

wire::SessionState
TcpServer::commitSessionStep(Connection &connection, Outbound &outbound)
{
    wire::SessionState state;
    state.session_id = outbound.session_id;
    state.id = outbound.id;
    // A failed M×V leaves the session state unchanged (the client
    // may retry the step).
    try {
        state.h = outbound.session->session.commit(outbound.pending.get());
        state.ok = true;
    } catch (const std::exception &error) {
        state.code = wireErrorCode(error);
        state.error = error.what();
    }
    {
        std::lock_guard<std::mutex> lock(connection.mutex);
        outbound.session->in_flight = false;
    }
    connection.cv.notify_all();
    return state;
}

void
TcpServer::readerLoop(Connection &connection)
{
    bool greeted = false;
    try {
        for (;;) {
            const std::vector<std::uint8_t> body =
                recvFrameBody(connection.fd);
            if (body.empty())
                break; // client closed (or stop() shut us down)
            wire::Message message = wire::decodeBody(body);

            if (!greeted) {
                const auto *hello =
                    std::get_if<wire::Hello>(&message);
                if (hello == nullptr)
                    break; // not a handshake: drop
                wire::HelloAck ack;
                // Answer in the layout the client can decode — a v1
                // peer gets the protocol-only ack its own handshake
                // check rejects cleanly.
                ack.wire_layout = std::min(hello->protocol,
                                           wire::kProtocolVersion);
                if (hello->protocol < wire::kMinProtocolVersion) {
                    ack.ok = false;
                    ack.error = "unsupported protocol version " +
                        std::to_string(hello->protocol) +
                        " (server speaks " +
                        std::to_string(wire::kMinProtocolVersion) +
                        ".." +
                        std::to_string(wire::kProtocolVersion) + ")";
                    Outbound nack;
                    nack.ready = std::move(ack);
                    enqueue(connection, std::move(nack));
                    break; // writer flushes the rejection, then closes
                }
                // Both sides proceed at min(client, server); the ack
                // carries the negotiated version so the client pins
                // the same number.
                ack.protocol = std::min(hello->protocol,
                                        wire::kProtocolVersion);
                greeted = true;
                Outbound out;
                out.ready = std::move(ack);
                enqueue(connection, std::move(out));
                continue;
            }

            if (auto *request =
                    std::get_if<wire::InferRequest>(&message)) {
                std::string error;
                wire::ErrorCode code = wire::ErrorCode::Internal;
                ServingDirectory::LookupStatus lookup;
                ClusterEngine *cluster = directory_.cluster(
                    request->model, request->version, error,
                    nn::Nonlinearity::ReLU, &lookup);
                if (cluster == nullptr) {
                    code = clusterErrorCode(lookup);
                } else if (request->input.size() !=
                           cluster->inputSize()) {
                    code = wire::ErrorCode::InvalidArgument;
                    error = "input length " +
                        std::to_string(request->input.size()) +
                        " != model input size " +
                        std::to_string(cluster->inputSize());
                }
                if (cluster == nullptr || !error.empty()) {
                    wire::InferResponse response;
                    response.id = request->id;
                    response.ok = false;
                    response.code = code;
                    response.error = std::move(error);
                    Outbound out;
                    out.ready = std::move(response);
                    enqueue(connection, std::move(out));
                    continue;
                }
                engine::SubmitOptions submit;
                submit.priority = request->priority;
                submit.deadline =
                    std::chrono::microseconds(request->deadline_us);
                submit.trace_id = request->trace_id;
                Outbound out;
                out.id = request->id;
                out.pending = cluster->submit(
                    std::move(request->input), submit);
                enqueue(connection, std::move(out));
            } else if (std::holds_alternative<wire::StatsRequest>(
                           message)) {
                Outbound out;
                out.ready =
                    wire::StatsResponse{directory_.statsJson()};
                enqueue(connection, std::move(out));
            } else if (std::holds_alternative<wire::MetricsRequest>(
                           message)) {
                obs::MetricsRegistry &registry =
                    obs::processRegistry();
                Outbound out;
                out.ready = wire::MetricsResponse{
                    registry.renderText(), registry.renderJson()};
                enqueue(connection, std::move(out));
            } else if (std::holds_alternative<wire::TraceRequest>(
                           message)) {
                Outbound out;
                out.ready = wire::TraceResponse{obs::renderChromeTrace(
                    obs::processTraceRing().snapshot())};
                enqueue(connection, std::move(out));
            } else if (const auto *info =
                           std::get_if<wire::InfoRequest>(&message)) {
                wire::InfoResponse response;
                std::string error;
                const ClusterEngine *cluster = directory_.cluster(
                    info->model, info->version, error);
                if (cluster == nullptr) {
                    response.error = error;
                } else {
                    response.ok = true;
                    response.model = cluster->model().name();
                    response.version = cluster->model().version();
                    response.input_size = cluster->inputSize();
                    response.output_size = cluster->outputSize();
                    response.shards = cluster->shardCount();
                    response.placement = placementName(
                        cluster->options().placement);
                }
                Outbound out;
                out.ready = std::move(response);
                enqueue(connection, std::move(out));
            } else if (const auto *open =
                           std::get_if<wire::SessionOpen>(&message)) {
                handleSessionOpen(connection, *open);
            } else if (const auto *step =
                           std::get_if<wire::SessionStep>(&message)) {
                if (!handleSessionStep(connection, *step))
                    break; // the connection is closing
            } else if (const auto *session_close =
                           std::get_if<wire::SessionClose>(
                               &message)) {
                connection.sessions.erase(session_close->session_id);
            } else {
                break; // client sent a server-to-client frame: drop
            }
        }
    } catch (const wire::WireError &error) {
        if (!Logger::quiet())
            inform("dropping connection: %s", error.what());
    }

    {
        std::lock_guard<std::mutex> lock(connection.mutex);
        connection.closing = true;
    }
    connection.cv.notify_all();
    // Wake a writer blocked in send() and prevent further reads.
    ::shutdown(connection.fd, SHUT_RD);
    connection.live_threads.fetch_sub(1);
}

void
TcpServer::writerLoop(Connection &connection)
{
    for (;;) {
        Outbound outbound;
        {
            std::unique_lock<std::mutex> lock(connection.mutex);
            connection.cv.wait(lock, [&connection] {
                return connection.closing ||
                    !connection.outbox.empty();
            });
            if (connection.outbox.empty())
                break; // closing and fully flushed
            outbound = std::move(connection.outbox.front());
            connection.outbox.pop_front();
        }

        wire::Message message;
        if (outbound.session != nullptr) {
            message = commitSessionStep(connection, outbound);
        } else if (outbound.pending.valid()) {
            wire::InferResponse response;
            response.id = outbound.id;
            try {
                response.output = outbound.pending.get();
                response.ok = true;
            } catch (const std::exception &error) {
                response.code = wireErrorCode(error);
                response.error = error.what();
            }
            message = std::move(response);
        } else {
            message = std::move(outbound.ready);
        }
        const std::vector<std::uint8_t> frame =
            wire::encodeFrame(message);
        if (!sendAll(connection.fd, frame.data(), frame.size()))
            break; // peer gone; pending futures still complete above
        if (fault::fire("tcp.drop_after_write")) {
            // Injected connection loss: the response went out, then
            // the link died — the worst case for clients, which must
            // treat the next request's failure as retryable.
            ::shutdown(connection.fd, SHUT_RDWR);
            break;
        }
    }
    // Flushed (or the peer is gone): FIN the socket so the client's
    // reads terminate, and unblock a reader still in recv() — or
    // waiting on a step this writer will never commit — when the
    // writer is the one bailing out.
    ::shutdown(connection.fd, SHUT_RDWR);
    {
        std::lock_guard<std::mutex> lock(connection.mutex);
        connection.closing = true;
    }
    connection.cv.notify_all();
    connection.live_threads.fetch_sub(1);
}

void
TcpServer::stop()
{
    if (!started_)
        return;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        stopping_ = true;
    }
    std::call_once(join_once_, [this] {
        // Closing the listener pops acceptLoop out of accept().
        ::shutdown(listen_fd_, SHUT_RDWR);
        ::close(listen_fd_);
        if (acceptor_.joinable())
            acceptor_.join();

        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto &connection : connections_) {
            ::shutdown(connection->fd, SHUT_RDWR);
            {
                std::lock_guard<std::mutex> conn_lock(
                    connection->mutex);
                connection->closing = true;
            }
            connection->cv.notify_all();
        }
        for (auto &connection : connections_) {
            if (connection->reader.joinable())
                connection->reader.join();
            if (connection->writer.joinable())
                connection->writer.join();
            ::close(connection->fd);
        }
        connections_.clear();
    });
}

std::uint64_t
TcpServer::connectionsAccepted() const
{
    std::lock_guard<std::mutex> lock(connections_mutex_);
    return accepted_;
}

std::size_t
TcpServer::trackedConnections() const
{
    std::lock_guard<std::mutex> lock(connections_mutex_);
    return connections_.size();
}

// ------------------------------------------------------------ TcpClient

TcpClient::TcpClient(const std::string &host, std::uint16_t port)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *results = nullptr;
    const int rc = ::getaddrinfo(
        host.c_str(), std::to_string(port).c_str(), &hints, &results);
    if (rc != 0)
        throw std::runtime_error("cannot resolve '" + host +
                                 "': " + ::gai_strerror(rc));

    int fd = -1;
    for (const addrinfo *ai = results; ai != nullptr;
         ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(results);
    if (fd < 0)
        throw std::runtime_error("cannot connect to " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    setNoDelay(fd);
    fd_ = fd;

    // Handshake synchronously (the reader thread starts only after a
    // successful negotiation, so a rejected connection never has
    // in-flight state to fail).
    try {
        const std::vector<std::uint8_t> hello =
            wire::encodeFrame(wire::Hello{});
        if (!sendAll(fd_, hello.data(), hello.size()))
            throw wire::WireError(
                "connection lost while sending Hello");
        const std::vector<std::uint8_t> body = recvFrameBody(fd_);
        if (body.empty())
            throw wire::WireError(
                "handshake failed: server closed the connection "
                "without a HelloAck (protocol version mismatch with "
                "a pre-v2 server?)");
        const wire::Message message = wire::decodeBody(body);
        const auto *ack = std::get_if<wire::HelloAck>(&message);
        if (ack == nullptr)
            throw wire::WireError(
                "handshake failed: expected a HelloAck frame");
        if (!ack->ok)
            throw wire::WireError("handshake rejected by server: " +
                                  ack->error);
        if (ack->protocol < wire::kMinProtocolVersion ||
            ack->protocol > wire::kProtocolVersion)
            throw wire::WireError(
                "protocol version mismatch: client speaks " +
                std::to_string(wire::kMinProtocolVersion) + ".." +
                std::to_string(wire::kProtocolVersion) +
                ", server negotiated " +
                std::to_string(ack->protocol));
        // min(client, server): an older server pins us to its
        // revision — trace ids stay off the wire and metrics/trace
        // queries are refused locally.
        negotiated_protocol_ = ack->protocol;
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }

    connected_.store(true);
    reader_ = std::thread([this] { readerLoop(); });
}

TcpClient::~TcpClient()
{
    close();
    if (fd_ >= 0)
        ::close(fd_);
}

bool
TcpClient::connected() const
{
    return connected_.load();
}

void
TcpClient::close()
{
    // Shut the socket down (unblocking a reader in recv — it then
    // fails all in-flight futures) and join exactly once; the fd is
    // released by the destructor so concurrent senders never race a
    // reused descriptor.
    std::call_once(join_once_, [this] {
        connected_.store(false);
        if (fd_ >= 0)
            ::shutdown(fd_, SHUT_RDWR);
        if (reader_.joinable())
            reader_.join();
    });
}

void
TcpClient::failAllPending(wire::ErrorCode code,
                          const std::string &reason)
{
    connected_.store(false);

    std::map<std::uint64_t, std::promise<wire::InferResponse>> infers;
    std::map<std::uint64_t,
             std::pair<std::uint64_t, std::promise<wire::SessionState>>>
        steps;
    std::map<std::uint64_t, std::promise<wire::SessionAck>> opens;
    std::deque<std::promise<wire::StatsResponse>> stats;
    std::deque<std::promise<wire::InfoResponse>> infos;
    std::deque<std::promise<wire::MetricsResponse>> metrics;
    std::deque<std::promise<wire::TraceResponse>> traces;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        infers.swap(pending_infer_);
        steps.swap(pending_steps_);
        opens.swap(pending_session_opens_);
        stats.swap(pending_stats_);
        infos.swap(pending_info_);
        metrics.swap(pending_metrics_);
        traces.swap(pending_trace_);
    }

    for (auto &[id, promise] : infers) {
        wire::InferResponse response;
        response.id = id;
        response.code = code;
        response.error = reason;
        promise.set_value(std::move(response));
    }
    for (auto &[id, step] : steps) {
        wire::SessionState state;
        state.session_id = step.first;
        state.id = id;
        state.code = code;
        state.error = reason;
        step.second.set_value(std::move(state));
    }
    for (auto &[session_id, promise] : opens) {
        wire::SessionAck ack;
        ack.session_id = session_id;
        ack.code = code;
        ack.error = reason;
        promise.set_value(std::move(ack));
    }
    const auto lost =
        std::make_exception_ptr(wire::WireError(reason));
    for (auto &promise : stats)
        promise.set_exception(lost);
    for (auto &promise : infos)
        promise.set_exception(lost);
    for (auto &promise : metrics)
        promise.set_exception(lost);
    for (auto &promise : traces)
        promise.set_exception(lost);
}

void
TcpClient::readerLoop()
{
    std::string reason = "connection closed by server";
    wire::ErrorCode code = wire::ErrorCode::Unavailable;
    try {
        for (;;) {
            const std::vector<std::uint8_t> body =
                recvFrameBody(fd_);
            if (body.empty())
                break;
            wire::Message message = wire::decodeBody(body);

            if (auto *response =
                    std::get_if<wire::InferResponse>(&message)) {
                if (auto promise = takePending(
                        pending_mutex_, pending_infer_,
                        response->id))
                    promise->set_value(std::move(*response));
                // An unknown id is tolerated: the submitter may have
                // failed its promise on a send error already.
            } else if (auto *state =
                           std::get_if<wire::SessionState>(
                               &message)) {
                if (auto step = takePending(pending_mutex_,
                                            pending_steps_,
                                            state->id))
                    step->second.set_value(std::move(*state));
            } else if (auto *ack = std::get_if<wire::SessionAck>(
                           &message)) {
                if (auto promise = takePending(
                        pending_mutex_, pending_session_opens_,
                        ack->session_id))
                    promise->set_value(std::move(*ack));
            } else if (auto *stats_response =
                           std::get_if<wire::StatsResponse>(
                               &message)) {
                resolveFifo(pending_mutex_, pending_stats_,
                            std::move(*stats_response));
            } else if (auto *info_response =
                           std::get_if<wire::InfoResponse>(
                               &message)) {
                resolveFifo(pending_mutex_, pending_info_,
                            std::move(*info_response));
            } else if (auto *metrics_response =
                           std::get_if<wire::MetricsResponse>(
                               &message)) {
                resolveFifo(pending_mutex_, pending_metrics_,
                            std::move(*metrics_response));
            } else if (auto *trace_response =
                           std::get_if<wire::TraceResponse>(
                               &message)) {
                resolveFifo(pending_mutex_, pending_trace_,
                            std::move(*trace_response));
            } else {
                reason = "protocol violation: unexpected frame type "
                         "from server";
                code = wire::ErrorCode::ProtocolError;
                break;
            }
        }
    } catch (const wire::WireError &error) {
        reason = error.what();
        code = wire::ErrorCode::ProtocolError;
    }

    ::shutdown(fd_, SHUT_RDWR);
    failAllPending(code, reason);
}

void
TcpClient::sendFrameLocked(const wire::Message &message)
{
    if (!connected_.load())
        throw wire::WireError("client connection is closed");
    const std::vector<std::uint8_t> frame =
        wire::encodeFrame(message);
    if (!sendAll(fd_, frame.data(), frame.size())) {
        connected_.store(false);
        throw wire::WireError("connection lost while sending");
    }
}

void
TcpClient::sendFrame(const wire::Message &message)
{
    std::lock_guard<std::mutex> lock(send_mutex_);
    sendFrameLocked(message);
}

std::future<wire::InferResponse>
TcpClient::submitInfer(const std::string &model,
                       std::uint32_t version,
                       std::vector<std::int64_t> input,
                       std::int32_t priority,
                       std::uint32_t deadline_us,
                       std::uint64_t trace_id)
{
    wire::InferRequest request;
    request.id = next_id_.fetch_add(1);
    request.model = model;
    request.version = version;
    request.priority = priority;
    request.deadline_us = deadline_us;
    request.input = std::move(input);
    // A pre-v3 server would choke on the trailing extension — the
    // request simply travels untraced.
    if (negotiated_protocol_ >= 3)
        request.trace_id = trace_id;

    std::future<wire::InferResponse> future;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        future = pending_infer_[request.id].get_future();
    }
    try {
        sendFrame(request);
    } catch (const wire::WireError &error) {
        // Resolve the promise ourselves unless the reader's
        // failAllPending() already claimed it.
        if (auto promise = takePending(pending_mutex_,
                                       pending_infer_, request.id)) {
            wire::InferResponse response;
            response.id = request.id;
            response.code = wire::ErrorCode::Unavailable;
            response.error = error.what();
            promise->set_value(std::move(response));
        }
    }
    return future;
}

std::vector<std::int64_t>
TcpClient::infer(const std::string &model,
                 const std::vector<std::int64_t> &input,
                 std::uint32_t version)
{
    wire::InferResponse response =
        submitInfer(model, version, input).get();
    if (!response.ok)
        throw std::runtime_error("server error: " + response.error);
    return std::move(response.output);
}

std::future<wire::SessionAck>
TcpClient::openSession(std::uint64_t session_id,
                       const std::string &model,
                       std::uint32_t version)
{
    wire::SessionOpen open;
    open.session_id = session_id;
    open.model = model;
    open.version = version;

    std::future<wire::SessionAck> future;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        future = pending_session_opens_[session_id].get_future();
    }
    try {
        sendFrame(open);
    } catch (const wire::WireError &error) {
        if (auto promise = takePending(pending_mutex_,
                                       pending_session_opens_,
                                       session_id)) {
            wire::SessionAck ack;
            ack.session_id = session_id;
            ack.code = wire::ErrorCode::Unavailable;
            ack.error = error.what();
            promise->set_value(std::move(ack));
        }
    }
    return future;
}

std::future<wire::SessionState>
TcpClient::submitStep(std::uint64_t session_id, std::vector<float> x,
                      std::int32_t priority,
                      std::uint32_t deadline_us,
                      std::uint64_t trace_id)
{
    wire::SessionStep step;
    step.session_id = session_id;
    step.id = next_id_.fetch_add(1);
    step.priority = priority;
    step.deadline_us = deadline_us;
    step.x = std::move(x);
    if (negotiated_protocol_ >= 3)
        step.trace_id = trace_id;

    std::future<wire::SessionState> future;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        auto &pending = pending_steps_[step.id];
        pending.first = session_id;
        future = pending.second.get_future();
    }
    try {
        sendFrame(step);
    } catch (const wire::WireError &error) {
        if (auto pending = takePending(pending_mutex_,
                                       pending_steps_, step.id)) {
            wire::SessionState state;
            state.session_id = session_id;
            state.id = step.id;
            state.code = wire::ErrorCode::Unavailable;
            state.error = error.what();
            pending->second.set_value(std::move(state));
        }
    }
    return future;
}

void
TcpClient::closeSession(std::uint64_t session_id)
{
    try {
        wire::SessionClose close_msg;
        close_msg.session_id = session_id;
        sendFrame(close_msg);
    } catch (const wire::WireError &) {
        // Fire-and-forget: a lost connection discards the state
        // server-side anyway.
    }
}

std::uint64_t
TcpClient::nextSessionId()
{
    return next_session_id_.fetch_add(1);
}

std::string
TcpClient::stats()
{
    // Register + send under send_mutex_: StatsResponses are matched
    // FIFO, so the promise queue must mirror the wire order exactly.
    std::future<wire::StatsResponse> future;
    {
        std::lock_guard<std::mutex> send_lock(send_mutex_);
        {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            pending_stats_.emplace_back();
            future = pending_stats_.back().get_future();
        }
        try {
            sendFrameLocked(wire::StatsRequest{});
        } catch (const wire::WireError &) {
            // Unless the reader's failAllPending() beat us to it,
            // the back is still our promise (send_mutex_ excludes
            // other registrars).
            std::promise<wire::StatsResponse> promise;
            bool mine = false;
            {
                std::lock_guard<std::mutex> lock(pending_mutex_);
                if (!pending_stats_.empty()) {
                    promise = std::move(pending_stats_.back());
                    pending_stats_.pop_back();
                    mine = true;
                }
            }
            if (mine)
                promise.set_exception(std::current_exception());
        }
    }
    return future.get().json;
}

wire::InfoResponse
TcpClient::info(const std::string &model, std::uint32_t version)
{
    wire::InfoRequest request;
    request.model = model;
    request.version = version;

    std::future<wire::InfoResponse> future;
    {
        std::lock_guard<std::mutex> send_lock(send_mutex_);
        {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            pending_info_.emplace_back();
            future = pending_info_.back().get_future();
        }
        try {
            sendFrameLocked(request);
        } catch (const wire::WireError &) {
            std::promise<wire::InfoResponse> promise;
            bool mine = false;
            {
                std::lock_guard<std::mutex> lock(pending_mutex_);
                if (!pending_info_.empty()) {
                    promise = std::move(pending_info_.back());
                    pending_info_.pop_back();
                    mine = true;
                }
            }
            if (mine)
                promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

wire::MetricsResponse
TcpClient::metrics()
{
    if (negotiated_protocol_ < 3)
        throw wire::WireError(
            "server speaks protocol v" +
            std::to_string(negotiated_protocol_) +
            "; Metrics queries need v3");
    // Same register-then-send critical section as stats(): the
    // MetricsResponses are matched FIFO.
    std::future<wire::MetricsResponse> future;
    {
        std::lock_guard<std::mutex> send_lock(send_mutex_);
        {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            pending_metrics_.emplace_back();
            future = pending_metrics_.back().get_future();
        }
        try {
            sendFrameLocked(wire::MetricsRequest{});
        } catch (const wire::WireError &) {
            std::promise<wire::MetricsResponse> promise;
            bool mine = false;
            {
                std::lock_guard<std::mutex> lock(pending_mutex_);
                if (!pending_metrics_.empty()) {
                    promise = std::move(pending_metrics_.back());
                    pending_metrics_.pop_back();
                    mine = true;
                }
            }
            if (mine)
                promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::string
TcpClient::traceDump()
{
    if (negotiated_protocol_ < 3)
        throw wire::WireError(
            "server speaks protocol v" +
            std::to_string(negotiated_protocol_) +
            "; Trace queries need v3");
    std::future<wire::TraceResponse> future;
    {
        std::lock_guard<std::mutex> send_lock(send_mutex_);
        {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            pending_trace_.emplace_back();
            future = pending_trace_.back().get_future();
        }
        try {
            sendFrameLocked(wire::TraceRequest{});
        } catch (const wire::WireError &) {
            std::promise<wire::TraceResponse> promise;
            bool mine = false;
            {
                std::lock_guard<std::mutex> lock(pending_mutex_);
                if (!pending_trace_.empty()) {
                    promise = std::move(pending_trace_.back());
                    pending_trace_.pop_back();
                    mine = true;
                }
            }
            if (mine)
                promise.set_exception(std::current_exception());
        }
    }
    return future.get().json;
}

} // namespace eie::serve
