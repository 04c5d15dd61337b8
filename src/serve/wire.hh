/**
 * @file
 * The serving cluster's wire protocol: length-prefixed binary frames
 * carrying inference requests/responses, streaming LSTM session
 * traffic and stats queries between a TcpClient and a TcpServer
 * (serve/tcp.hh).
 *
 * Frame layout (little-endian scalars):
 *
 *   u32 body_len | body
 *   body = u8 type | payload
 *
 * Payloads by type:
 *   Hello            : u32 protocol version (first frame the client
 *                      sends)
 *   HelloAck         : u32 protocol version, u8 ok, str error. A
 *                      client whose Hello names another version gets
 *                      ok = 0 plus the reason, and the connection
 *                      closes. This layout is the same in every
 *                      revision since v2, so older clients decode the
 *                      rejection too.
 *   InferRequest     : u64 id, str model, u32 version (0 = latest),
 *                      i32 priority, u32 deadline_us (0 = none),
 *                      vec<i64> input (raw fixed-point activations),
 *                      u64 trace_id (0 = untraced)
 *   InferResponse    : u64 id, u8 ok, then vec<i64> output (ok = 1)
 *                      or u8 code + str error (ok = 0)
 *   StatsRequest     : u64 id
 *   StatsResponse    : u64 id, str json (ServingDirectory::statsJson)
 *   InfoRequest      : u64 id, str model, u32 version (0 = latest)
 *   InfoResponse     : u64 id, u8 ok, u8 code, str error, str model,
 *                      u32 version, u64 input_size, u64 output_size,
 *                      u32 shards, str placement
 *   SessionOpen      : u64 session_id, str model, u32 version
 *   SessionAck       : u64 session_id, u8 ok, u8 code, str error,
 *                      u64 input_size (X), u64 hidden_size (H)
 *   SessionStep      : u64 session_id, u64 id, i32 priority,
 *                      u32 deadline_us, vec<f32> x, u64 trace_id
 *   SessionState     : u64 session_id, u64 id, u8 ok, u8 code,
 *                      str error, vec<f32> h (the new hidden state)
 *   SessionClose     : u64 session_id (one-way; no reply)
 *   MetricsRequest   : u64 id
 *   MetricsResponse  : u64 id, str text (Prometheus exposition),
 *                      str json (MetricsRegistry::renderJson)
 *   TraceRequest     : u64 id
 *   TraceResponse    : u64 id, str json (chrome://tracing traceEvents)
 *
 * Every reply carries the id of the request it answers (a SessionAck
 * its SessionOpen's session_id), so a client matches replies to
 * requests by id alone, in whatever order they arrive.
 *
 * str is u32 length + bytes; vec<i64> is u32 count + count x i64;
 * vec<f32> is u32 count + count x f32 (IEEE-754 bit patterns, so a
 * session's recurrent state round-trips bit-exactly). Decoding is
 * defensive — a malformed or oversized frame throws WireError (the
 * transport drops the connection) instead of killing the daemon,
 * unlike the fatal()-on-corruption model-file loader whose inputs are
 * operator-owned files.
 */

#ifndef EIE_SERVE_WIRE_HH
#define EIE_SERVE_WIRE_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace eie::serve::wire {

/** Protocol revision; bumped on any frame-layout change. Both ends
 *  speak exactly this one. */
inline constexpr std::uint32_t kProtocolVersion = 4;

/** Upper bound on one frame's body, guarding decoder allocations. */
inline constexpr std::size_t kMaxBodyBytes = std::size_t{1} << 28;

/** Longest accepted model name (matches the registry's limit). */
inline constexpr std::size_t kMaxModelName = 128;

/** Frame type tags (the body's leading byte): each is its Message
 *  alternative's index plus one. */
enum class MsgType : std::uint8_t
{
    Hello = 1,
    HelloAck = 2,
    InferRequest = 3,
    InferResponse = 4,
    StatsRequest = 5,
    StatsResponse = 6,
    InfoRequest = 7,
    InfoResponse = 8,
    SessionOpen = 9,
    SessionAck = 10,
    SessionStep = 11,
    SessionState = 12,
    SessionClose = 13,
    MetricsRequest = 14,
    MetricsResponse = 15,
    TraceRequest = 16,
    TraceResponse = 17,
};

/**
 * Failure taxonomy carried on error responses, one byte on the wire.
 * Mirrored (and extended with client-local codes) by
 * client::StatusCode so every transport reports the same failure the
 * same way.
 */
enum class ErrorCode : std::uint8_t
{
    Internal = 0,        ///< unclassified server-side failure
    InvalidArgument = 1, ///< wrong input size / not LSTM-shaped / ...
    NotFound = 2,        ///< unknown model, version or session
    DeadlineExpired = 3, ///< dropped in a queue past its deadline
    Unavailable = 4,     ///< server stopped / shutting down
    /** Synthesized by TcpClient for responses it fails after a wire
     *  violation; a server never sends it (decoding maps the byte to
     *  Internal like any unknown code). */
    ProtocolError = 5,
};

struct Hello
{
    std::uint32_t protocol = kProtocolVersion;
};

struct HelloAck
{
    std::uint32_t protocol = kProtocolVersion;
    bool ok = true;
    std::string error; ///< set when !ok
};

struct InferRequest
{
    std::uint64_t id = 0;
    std::string model;
    std::uint32_t version = 0;   ///< 0 = latest published
    std::int32_t priority = 0;   ///< engine::SubmitOptions::priority
    std::uint32_t deadline_us = 0; ///< 0 = no deadline
    std::vector<std::int64_t> input;
    std::uint64_t trace_id = 0; ///< 0 = untraced
};

struct InferResponse
{
    std::uint64_t id = 0;
    bool ok = false;
    ErrorCode code = ErrorCode::Internal; ///< meaningful when !ok
    std::string error;                 ///< set when !ok
    std::vector<std::int64_t> output;  ///< set when ok
};

struct StatsRequest
{
    std::uint64_t id = 0;
};

struct StatsResponse
{
    std::uint64_t id = 0;
    std::string json;
};

struct InfoRequest
{
    std::uint64_t id = 0;
    std::string model;
    std::uint32_t version = 0; ///< 0 = latest published
};

struct InfoResponse
{
    std::uint64_t id = 0;
    bool ok = false;
    ErrorCode code = ErrorCode::Internal; ///< meaningful when !ok
    std::string error; ///< set when !ok
    std::string model;
    std::uint32_t version = 0; ///< resolved (never 0 when ok)
    std::uint64_t input_size = 0;
    std::uint64_t output_size = 0;
    std::uint32_t shards = 0;
    std::string placement;
};

/** Open a streaming LSTM session on @p model (state lives server
 *  side, one session per @p session_id per connection). */
struct SessionOpen
{
    /** Client-chosen from its request ids; the ack echoes it. */
    std::uint64_t session_id = 0;
    std::string model;
    std::uint32_t version = 0; ///< 0 = latest published
};

struct SessionAck
{
    std::uint64_t session_id = 0;
    bool ok = false;
    ErrorCode code = ErrorCode::Internal; ///< meaningful when !ok
    std::string error;
    std::uint64_t input_size = 0;  ///< X (per-step input length)
    std::uint64_t hidden_size = 0; ///< H (hidden/cell state length)
};

/** One LSTM time step: x only — the server packs [x; h; 1] with the
 *  session's recurrent state and runs the M×V. */
struct SessionStep
{
    std::uint64_t session_id = 0;
    std::uint64_t id = 0; ///< step id (shared id space with infer)
    std::int32_t priority = 0;
    std::uint32_t deadline_us = 0; ///< 0 = no deadline
    std::vector<float> x;
    std::uint64_t trace_id = 0; ///< 0 = untraced
};

/** The state half of the session pair: the new hidden state after
 *  one committed step (the cell state stays server-side). */
struct SessionState
{
    std::uint64_t session_id = 0;
    std::uint64_t id = 0;
    bool ok = false;
    ErrorCode code = ErrorCode::Internal; ///< meaningful when !ok
    std::string error;
    std::vector<float> h;
};

/** Discard a session's state (one-way; unknown ids are ignored). */
struct SessionClose
{
    std::uint64_t session_id = 0;
};

/** Ask the server for its process metrics registry. */
struct MetricsRequest
{
    std::uint64_t id = 0;
};

struct MetricsResponse
{
    std::uint64_t id = 0;
    std::string text; ///< Prometheus-style plaintext exposition
    std::string json; ///< MetricsRegistry::renderJson
};

/** Ask the server for its span ring as a chrome trace. */
struct TraceRequest
{
    std::uint64_t id = 0;
};

struct TraceResponse
{
    std::uint64_t id = 0;
    std::string json; ///< chrome://tracing traceEvents document
};

using Message = std::variant<Hello, HelloAck, InferRequest,
                             InferResponse, StatsRequest,
                             StatsResponse, InfoRequest,
                             InfoResponse, SessionOpen, SessionAck,
                             SessionStep, SessionState, SessionClose,
                             MetricsRequest, MetricsResponse,
                             TraceRequest, TraceResponse>;

static_assert(std::variant_size_v<Message> ==
              static_cast<std::size_t>(MsgType::TraceResponse));

/** Thrown on any malformed, truncated or oversized frame. */
class WireError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Serialise @p message as one whole frame (length prefix included). */
std::vector<std::uint8_t> encodeFrame(const Message &message);

/**
 * Decode one frame body (the bytes after the length prefix: type tag
 * plus payload). Throws WireError on unknown types, truncation,
 * trailing garbage or limit violations.
 */
Message decodeBody(std::span<const std::uint8_t> body);

/** The type tag @p message would carry on the wire. */
inline MsgType
messageType(const Message &message)
{
    return static_cast<MsgType>(message.index() + 1);
}

} // namespace eie::serve::wire

#endif // EIE_SERVE_WIRE_HH
