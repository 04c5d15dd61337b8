#include "serve/tcp.hh"

#include <cerrno>
#include <cstring>

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
                greeted = hello->protocol == wire::kProtocolVersion;
                if (!greeted) {
                    ack.ok = false;
                    ack.error = "unsupported protocol version " +
                        std::to_string(hello->protocol) +
                        " (server speaks " +
                        std::to_string(wire::kProtocolVersion) + ")";
                }
                Outbound out;
                out.ready = std::move(ack);
                enqueue(connection, std::move(out));
                if (!greeted)
                    break; // writer flushes the rejection, then closes
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
            } else if (const auto *stats =
                           std::get_if<wire::StatsRequest>(&message)) {
                Outbound out;
                out.ready = wire::StatsResponse{stats->id,
                                                directory_.statsJson()};
                enqueue(connection, std::move(out));
            } else if (const auto *metrics =
                           std::get_if<wire::MetricsRequest>(
                               &message)) {
                obs::MetricsRegistry &registry =
                    obs::processRegistry();
                Outbound out;
                out.ready = wire::MetricsResponse{
                    metrics->id, registry.renderText(),
                    registry.renderJson()};
                enqueue(connection, std::move(out));
            } else if (const auto *trace =
                           std::get_if<wire::TraceRequest>(&message)) {
                Outbound out;
                out.ready = wire::TraceResponse{
                    trace->id, obs::renderChromeTrace(
                                   obs::processTraceRing().snapshot())};
                enqueue(connection, std::move(out));
            } else if (const auto *info =
                           std::get_if<wire::InfoRequest>(&message)) {
                wire::InfoResponse response;
                response.id = info->id;
                std::string error;
                ServingDirectory::LookupStatus lookup;
                const ClusterEngine *cluster = directory_.cluster(
                    info->model, info->version, error,
                    nn::Nonlinearity::ReLU, &lookup);
                if (cluster == nullptr) {
                    response.code = clusterErrorCode(lookup);
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

namespace {

/** The request a reply answers: a SessionAck names the session its
 *  open asked for, every other reply the request id. */
template <typename Reply>
std::uint64_t &
replyId(Reply &reply)
{
    if constexpr (std::is_same_v<Reply, wire::SessionAck>)
        return reply.session_id;
    else
        return reply.id;
}

/** Resolve @p pending unanswered: infer, step and open requests get a
 *  failed response carrying @p code, the blocking queries (stats,
 *  info, metrics, trace) a WireError. */
template <typename Pending>
void
fail(Pending &pending, std::uint64_t id, wire::ErrorCode code,
     const std::string &reason)
{
    std::visit(
        [&]<typename Response>(std::promise<Response> &promise) {
            if constexpr (std::is_same_v<Response, wire::InferResponse> ||
                          std::is_same_v<Response, wire::SessionState> ||
                          std::is_same_v<Response, wire::SessionAck>) {
                Response response;
                replyId(response) = id;
                response.code = code;
                response.error = reason;
                promise.set_value(std::move(response));
            } else {
                promise.set_exception(
                    std::make_exception_ptr(wire::WireError(reason)));
            }
        },
        pending);
}

} // namespace

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
    // successful handshake, so a rejected connection never has
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
                "without a HelloAck (protocol version mismatch?)");
        const wire::Message message = wire::decodeBody(body);
        const auto *ack = std::get_if<wire::HelloAck>(&message);
        if (ack == nullptr)
            throw wire::WireError(
                "handshake failed: expected a HelloAck frame");
        if (!ack->ok)
            throw wire::WireError("handshake rejected by server: " +
                                  ack->error);
        if (ack->protocol != wire::kProtocolVersion)
            throw wire::WireError(
                "protocol version mismatch: client speaks " +
                std::to_string(wire::kProtocolVersion) +
                ", server acked " + std::to_string(ack->protocol));
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

TcpClient::PendingTable::node_type
TcpClient::takePending(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(pending_mutex_);
    return pending_.extract(id);
}

void
TcpClient::failAllPending(wire::ErrorCode code,
                          const std::string &reason)
{
    connected_.store(false);
    PendingTable pending;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        pending.swap(pending_);
    }
    for (auto &[id, entry] : pending)
        fail(entry, id, code, reason);
}

std::string
TcpClient::deliver(wire::Message reply)
{
    return std::visit(
        [this]<typename Reply>(Reply &frame) -> std::string {
            if constexpr (!std::is_constructible_v<
                              Pending, std::promise<Reply>>) {
                return "protocol violation: unexpected frame type "
                       "from server";
            } else {
                const std::uint64_t id = replyId(frame);
                PendingTable::node_type entry;
                {
                    std::lock_guard<std::mutex> lock(pending_mutex_);
                    const auto it = pending_.find(id);
                    // An unknown id is tolerated: the submitter may
                    // have failed its promise on a send error
                    // already.
                    if (it == pending_.end())
                        return {};
                    // A mismatched entry stays in the table, so
                    // failAllPending() fails it with the rest.
                    if (!std::holds_alternative<std::promise<Reply>>(
                            it->second))
                        return "protocol violation: reply to request " +
                            std::to_string(id) + " has the wrong type";
                    entry = pending_.extract(it);
                }
                std::get<std::promise<Reply>>(entry.mapped())
                    .set_value(std::move(frame));
                return {};
            }
        },
        reply);
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
            std::string violation = deliver(wire::decodeBody(body));
            if (!violation.empty()) {
                reason = std::move(violation);
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
TcpClient::sendFrame(const wire::Message &message)
{
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (!connected_.load())
        throw wire::WireError("client connection is closed");
    const std::vector<std::uint8_t> frame =
        wire::encodeFrame(message);
    if (!sendAll(fd_, frame.data(), frame.size())) {
        connected_.store(false);
        throw wire::WireError("connection lost while sending");
    }
}

template <typename Response>
std::future<Response>
TcpClient::call(std::uint64_t id, wire::Message request)
{
    std::future<Response> future;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        const auto it =
            pending_.emplace(id, std::promise<Response>()).first;
        future = std::get<std::promise<Response>>(it->second)
                     .get_future();
    }
    try {
        sendFrame(request);
    } catch (const wire::WireError &error) {
        // Resolve the request ourselves unless the reader's
        // failAllPending() already took it.
        if (auto entry = takePending(id))
            fail(entry.mapped(), id, wire::ErrorCode::Unavailable,
                 error.what());
    }
    return future;
}

std::future<wire::InferResponse>
TcpClient::submitInfer(const std::string &model,
                       std::uint32_t version,
                       std::vector<std::int64_t> input,
                       std::int32_t priority,
                       std::uint32_t deadline_us,
                       std::uint64_t trace_id)
{
    const std::uint64_t id = next_id_.fetch_add(1);
    return call<wire::InferResponse>(
        id, wire::InferRequest{.id = id,
                               .model = model,
                               .version = version,
                               .priority = priority,
                               .deadline_us = deadline_us,
                               .input = std::move(input),
                               .trace_id = trace_id});
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
TcpClient::openSession(const std::string &model, std::uint32_t version)
{
    // A session id is a request id, so it never collides with another
    // request in flight.
    const std::uint64_t id = next_id_.fetch_add(1);
    return call<wire::SessionAck>(
        id, wire::SessionOpen{
                .session_id = id, .model = model, .version = version});
}

std::future<wire::SessionState>
TcpClient::submitStep(std::uint64_t session_id, std::vector<float> x,
                      std::int32_t priority,
                      std::uint32_t deadline_us,
                      std::uint64_t trace_id)
{
    const std::uint64_t id = next_id_.fetch_add(1);
    return call<wire::SessionState>(
        id, wire::SessionStep{.session_id = session_id,
                              .id = id,
                              .priority = priority,
                              .deadline_us = deadline_us,
                              .x = std::move(x),
                              .trace_id = trace_id});
}

void
TcpClient::closeSession(std::uint64_t session_id)
{
    try {
        sendFrame(wire::SessionClose{session_id});
    } catch (const wire::WireError &) {
        // Fire-and-forget: a lost connection discards the state
        // server-side anyway.
    }
}

std::string
TcpClient::stats()
{
    const std::uint64_t id = next_id_.fetch_add(1);
    return call<wire::StatsResponse>(id, wire::StatsRequest{id})
        .get()
        .json;
}

wire::InfoResponse
TcpClient::info(const std::string &model, std::uint32_t version)
{
    const std::uint64_t id = next_id_.fetch_add(1);
    return call<wire::InfoResponse>(
               id, wire::InfoRequest{
                       .id = id, .model = model, .version = version})
        .get();
}

wire::MetricsResponse
TcpClient::metrics()
{
    const std::uint64_t id = next_id_.fetch_add(1);
    return call<wire::MetricsResponse>(id, wire::MetricsRequest{id})
        .get();
}

std::string
TcpClient::traceDump()
{
    const std::uint64_t id = next_id_.fetch_add(1);
    return call<wire::TraceResponse>(id, wire::TraceRequest{id})
        .get()
        .json;
}

} // namespace eie::serve
