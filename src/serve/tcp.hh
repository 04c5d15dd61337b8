/**
 * @file
 * Loopback/LAN TCP transport for the serving cluster: a TcpServer
 * that dispatches wire-protocol frames (serve/wire.hh) onto a
 * ServingDirectory's ClusterEngines, and an asynchronous TcpClient
 * that speaks the same frames. This is the `tools/eie_serve` daemon's
 * front door and the transport behind `eie::client::Client`'s
 * `tcp://` endpoints.
 *
 * Connection model (server): one reader thread and one writer thread
 * per accepted connection. The reader decodes frames and submits
 * infer requests to the routed cluster immediately (so the cluster's
 * micro-batchers see the full pipeline depth); the writer completes
 * the per-request futures and streams the responses back in request
 * order, so a client may pipeline arbitrarily many requests.
 * Streaming LSTM session steps take the same route: the reader packs
 * [x; h; 1] and submits the gate M×V, and the writer commits the
 * result into the session and replies with the new hidden state, so
 * steps of different sessions on one connection reach the cluster
 * together (side by side on its shards, or in one micro-batch). A
 * step consumes the previous step's recurrent state, so a step that
 * arrives while its own session's previous step is still in flight
 * waits in the reader until the writer has committed that one. Both
 * ends speak exactly wire::kProtocolVersion: a Hello naming any other
 * version gets a HelloAck with ok = 0 and the reason (see wire.hh),
 * and the connection closes. Malformed frames, handshake violations
 * and oversized bodies close the connection — they never take the
 * daemon down.
 *
 * Connection model (client): every request registers one promise in
 * a table keyed by its id before it is sent, and one background
 * reader hands each reply to the entry registered under the id the
 * reply carries. Requests may be submitted from any thread and
 * replies may arrive in any order. A reply whose type differs from
 * what its entry awaits is a protocol violation. Transport loss
 * resolves every in-flight inference/session future with an
 * Unavailable error response instead of throwing, and fails the
 * blocking queries with wire::WireError.
 *
 * Lifecycle: TcpServer::stop() closes the listener and all accepted
 * sockets and joins the per-connection threads; pending responses
 * complete first (shard servers guarantee every submitted future
 * resolves). Stop the TcpServer before stopping the directory's
 * clusters.
 */

#ifndef EIE_SERVE_TCP_HH
#define EIE_SERVE_TCP_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "serve/cluster.hh"
#include "serve/wire.hh"

namespace eie::engine {
class LstmSession;
} // namespace eie::engine

namespace eie::serve {

/** Listening parameters of a TcpServer. */
struct TcpServerOptions
{
    /** TCP port; 0 binds an ephemeral port (read it via port()). */
    std::uint16_t port = 0;

    /** Bind address; loopback by default — exposing an unauthenticated
     *  inference socket beyond the host is an operator decision. */
    std::string bind_address = "127.0.0.1";

    int backlog = 64;

    /** Open LSTM sessions one connection may hold; an open beyond
     *  the cap is rejected with an Unavailable ack. Bounds the
     *  memory a client can pin server-side (each session holds the
     *  recurrent state plus the host gate math) the same way
     *  kMaxBodyBytes bounds per-frame allocations. */
    std::size_t max_sessions_per_connection = 64;
};

/** Frame-dispatching TCP front end over a ServingDirectory. */
class TcpServer
{
  public:
    TcpServer(ServingDirectory &directory,
              const TcpServerOptions &options = {});

    /** Stops and joins (see stop()). */
    ~TcpServer();

    TcpServer(const TcpServer &) = delete;
    TcpServer &operator=(const TcpServer &) = delete;

    /** Bind, listen and start accepting. Fatal on bind failure. */
    void start();

    /** The bound port (valid after start(); resolves port 0). */
    std::uint16_t port() const { return port_; }

    /** Close the listener and every connection, join all threads.
     *  Idempotent. */
    void stop();

    /** Connections accepted since start (diagnostics). */
    std::uint64_t connectionsAccepted() const;

    /** Connections currently tracked (live plus finished ones not
     *  yet reaped; reaping happens on accept). */
    std::size_t trackedConnections() const;

  private:
    /** One open streaming LSTM session. */
    struct LiveSession;

    /** One queued outbound response: either already materialised or
     *  an in-flight M×V future completed by the writer — an
     *  inference, or a session step when @c session is set. */
    struct Outbound
    {
        wire::Message ready;  ///< used when !pending.valid()
        std::uint64_t id = 0; ///< request id for pending responses
        std::future<std::vector<std::int64_t>> pending;
        /** The session a pending step commits into; shared with
         *  Connection::sessions so a SessionClose mid-step is safe. */
        std::shared_ptr<LiveSession> session;
        std::uint64_t session_id = 0; ///< with @c session
    };

    struct Connection
    {
        int fd = -1;
        std::thread reader;
        std::thread writer;
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Outbound> outbox;
        /** Set by the reader, the writer or stop() when the
         *  connection winds down; also releases a reader waiting on
         *  a step the writer will no longer commit. */
        bool closing = false;
        /** Open LSTM sessions by id. The map is touched by the reader
         *  only; an in-flight step's Outbound co-owns its session. */
        std::map<std::uint64_t, std::shared_ptr<LiveSession>> sessions;
        /** Reader + writer still running; 0 = reapable. */
        std::atomic<int> live_threads{2};
    };

    void acceptLoop();
    void readerLoop(Connection &connection);
    void writerLoop(Connection &connection);
    void handleSessionOpen(Connection &connection,
                           const wire::SessionOpen &open);
    /** Submit one step's M×V; false once the connection is closing. */
    bool handleSessionStep(Connection &connection,
                           const wire::SessionStep &step);
    /** Writer half of a step: complete its M×V and commit. */
    wire::SessionState commitSessionStep(Connection &connection,
                                         Outbound &outbound);
    void enqueue(Connection &connection, Outbound outbound);
    void reapFinishedLocked(); ///< caller holds connections_mutex_

    ServingDirectory &directory_;
    TcpServerOptions options_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread acceptor_;
    bool started_ = false;

    mutable std::mutex connections_mutex_;
    std::vector<std::unique_ptr<Connection>> connections_;
    std::uint64_t accepted_ = 0;
    bool stopping_ = false;
    std::once_flag join_once_;
};

/**
 * Asynchronous wire-protocol client: pipelined submissions from any
 * thread, responses correlated by id on a background reader.
 */
class TcpClient
{
  public:
    /** Connect to @p host:@p port and handshake. Throws
     *  wire::WireError on a protocol or version mismatch and
     *  std::runtime_error on connection failure. */
    TcpClient(const std::string &host, std::uint16_t port);

    /** Closes and joins the reader. */
    ~TcpClient();

    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;

    /**
     * Submit one inference request; the future resolves with the
     * server's InferResponse once it arrives, in any order relative
     * to other in-flight requests. The future never throws: server
     * errors arrive as ok = false responses with an ErrorCode, and a
     * lost connection resolves every in-flight future with
     * ErrorCode::Unavailable.
     */
    std::future<wire::InferResponse>
    submitInfer(const std::string &model, std::uint32_t version,
                std::vector<std::int64_t> input,
                std::int32_t priority = 0,
                std::uint32_t deadline_us = 0,
                std::uint64_t trace_id = 0);

    /** Synchronous convenience: submit one request, wait for its
     *  response, return the output. Throws std::runtime_error with
     *  the server's message on an error response. */
    std::vector<std::int64_t>
    infer(const std::string &model,
          const std::vector<std::int64_t> &input,
          std::uint32_t version = 0);

    /** Open a streaming LSTM session on @p model; the ack carries
     *  the session id this client picked and the (X, H) shape. Same
     *  no-throw future semantics as submitInfer(). */
    std::future<wire::SessionAck>
    openSession(const std::string &model, std::uint32_t version = 0);

    /** Submit one session step (x only; the state lives server
     *  side). Steps of one session may be pipelined: the server runs
     *  them in submission order, each on the state the previous one
     *  committed. */
    std::future<wire::SessionState>
    submitStep(std::uint64_t session_id, std::vector<float> x,
               std::int32_t priority = 0,
               std::uint32_t deadline_us = 0,
               std::uint64_t trace_id = 0);

    /** Discard a session's server-side state (fire-and-forget). */
    void closeSession(std::uint64_t session_id);

    /** Fetch the server's aggregated stats JSON (blocking). Throws
     *  wire::WireError on a lost connection. */
    std::string stats();

    /** Describe a served model (sizes, shard layout; builds its
     *  cluster on first touch). Blocking; throws wire::WireError on
     *  a lost connection. */
    wire::InfoResponse info(const std::string &model,
                            std::uint32_t version = 0);

    /** Fetch the server's metrics registry exposition (blocking).
     *  Throws wire::WireError on a lost connection. */
    wire::MetricsResponse metrics();

    /** Fetch the server's span ring as a chrome://tracing JSON
     *  document (blocking). Throws wire::WireError on a lost
     *  connection. */
    std::string traceDump();

    /** Whether the connection is still up (in-flight futures after a
     *  loss resolve with Unavailable). */
    bool connected() const;

    /** Close the connection and join the reader; idempotent. Every
     *  in-flight future resolves with Unavailable. */
    void close();

  private:
    /** The promise of one in-flight request, by the reply it awaits. */
    using Pending = std::variant<std::promise<wire::InferResponse>,
                                 std::promise<wire::SessionAck>,
                                 std::promise<wire::SessionState>,
                                 std::promise<wire::StatsResponse>,
                                 std::promise<wire::InfoResponse>,
                                 std::promise<wire::MetricsResponse>,
                                 std::promise<wire::TraceResponse>>;
    using PendingTable = std::map<std::uint64_t, Pending>;

    /** Register @p request under @p id, then send it. A failed send
     *  resolves the request unanswered with Unavailable. */
    template <typename Response>
    std::future<Response> call(std::uint64_t id, wire::Message request);
    /** Remove and return the entry under @p id (an empty node if it
     *  is gone): whoever takes an entry resolves it, so the reader
     *  and a failed sender never both do. */
    PendingTable::node_type takePending(std::uint64_t id);
    void sendFrame(const wire::Message &message); ///< locks send_mutex_
    /** Hand one reply to the entry its id names; the violation's
     *  description if it is no reply or answers another type. */
    std::string deliver(wire::Message reply);
    void readerLoop();
    /** Resolve every in-flight request unanswered with @p code
     *  (Unavailable on a lost connection, ProtocolError on a wire
     *  violation) and mark the client disconnected. */
    void failAllPending(wire::ErrorCode code,
                        const std::string &reason);

    int fd_ = -1;
    std::mutex send_mutex_;
    std::atomic<bool> connected_{false};
    std::once_flag join_once_;

    /** Request ids, session ids included. */
    std::atomic<std::uint64_t> next_id_{1};
    std::mutex pending_mutex_;
    PendingTable pending_; ///< guarded by pending_mutex_

    std::thread reader_;
};

} // namespace eie::serve

#endif // EIE_SERVE_TCP_HH
