#include "serve/wire.hh"

#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>

namespace eie::serve::wire {

namespace {

/** A model-name string field: the reader caps it at kMaxModelName
 *  rather than kMaxBodyBytes. */
template <typename S>
struct ModelName
{
    S &text;
};

/** Appends fields to one frame, leaving room for the length prefix
 *  that frame() patches in at the end. */
class BodyWriter
{
  public:
    BodyWriter()
    {
        // A small frame's fields then append without reallocating,
        // and GCC 12 no longer misreads the first append as out of
        // bounds (-Warray-bounds).
        bytes_.reserve(64);
        bytes_.resize(4);
    }

    template <typename... Fields>
    void
    operator()(Fields &&...fields)
    {
        (put(fields), ...);
    }

    std::vector<std::uint8_t>
    frame() &&
    {
        const auto body_len =
            static_cast<std::uint32_t>(bytes_.size() - 4);
        std::memcpy(bytes_.data(), &body_len, 4);
        return std::move(bytes_);
    }

  private:
    template <typename T>
        requires std::is_arithmetic_v<T>
    void
    put(T value)
    {
        append(&value, sizeof(T));
    }

    void put(bool value) { put<std::uint8_t>(value ? 1 : 0); }

    void put(ErrorCode code) { put(static_cast<std::uint8_t>(code)); }

    void
    put(const std::string &text)
    {
        put(static_cast<std::uint32_t>(text.size()));
        append(text.data(), text.size());
    }

    template <typename S>
    void
    put(ModelName<S> name)
    {
        put(name.text);
    }

    template <typename T>
    void
    put(const std::vector<T> &values)
    {
        put(static_cast<std::uint32_t>(values.size()));
        append(values.data(), values.size() * sizeof(T));
    }

    void
    append(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        bytes_.insert(bytes_.end(), p, p + size);
    }

    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked reader over one frame body. */
class BodyReader
{
  public:
    explicit BodyReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {}

    template <typename... Fields>
    void
    operator()(Fields &&...fields)
    {
        (get(fields), ...);
    }

    void
    done() const
    {
        if (pos_ != bytes_.size())
            throw WireError("trailing bytes after frame payload");
    }

  private:
    template <typename T>
        requires std::is_arithmetic_v<T>
    void
    get(T &value)
    {
        take(&value, sizeof(T));
    }

    void
    get(bool &value)
    {
        std::uint8_t byte = 0;
        get(byte);
        value = byte != 0;
    }

    void
    get(ErrorCode &code)
    {
        std::uint8_t byte = 0;
        get(byte);
        // Unknown codes from a newer peer degrade to Internal instead
        // of rejecting the frame: the error string still travels.
        code = byte > static_cast<std::uint8_t>(ErrorCode::Unavailable)
            ? ErrorCode::Internal
            : static_cast<ErrorCode>(byte);
    }

    void get(std::string &text) { string(text, kMaxBodyBytes); }

    void
    get(ModelName<std::string> name)
    {
        string(name.text, kMaxModelName);
    }

    template <typename T>
    void
    get(std::vector<T> &values)
    {
        std::uint32_t count = 0;
        get(count);
        if (static_cast<std::size_t>(count) * sizeof(T) >
            bytes_.size() - pos_)
            throw WireError("vector field exceeds frame");
        values.resize(count);
        take(values.data(), values.size() * sizeof(T));
    }

    void
    string(std::string &text, std::size_t max_len)
    {
        std::uint32_t len = 0;
        get(len);
        if (len > max_len)
            throw WireError("string field exceeds limit");
        if (len > bytes_.size() - pos_)
            throw WireError("frame truncated");
        text.assign(reinterpret_cast<const char *>(bytes_.data() + pos_),
                    len);
        pos_ += len;
    }

    void
    take(void *out, std::size_t size)
    {
        if (size > bytes_.size() - pos_)
            throw WireError("frame truncated");
        if (size != 0)
            std::memcpy(out, bytes_.data() + pos_, size);
        pos_ += size;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

/** @p M is message type @p T, const (encoding) or not (decoding). */
template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

// Each message's fields in wire order. BodyWriter walks a list over a
// const message to encode it, BodyReader over a default-constructed
// one to decode it.

void fields(auto &io, Is<Hello> auto &m) { io(m.protocol); }

void
fields(auto &io, Is<HelloAck> auto &m)
{
    io(m.protocol, m.ok, m.error);
}

void
fields(auto &io, Is<InferRequest> auto &m)
{
    io(m.id, ModelName{m.model}, m.version, m.priority, m.deadline_us,
       m.input, m.trace_id);
}

void
fields(auto &io, Is<InferResponse> auto &m)
{
    // The reader has filled ok by the time it branches.
    io(m.id, m.ok);
    if (m.ok)
        io(m.output);
    else
        io(m.code, m.error);
}

void fields(auto &io, Is<StatsRequest> auto &m) { io(m.id); }

void fields(auto &io, Is<StatsResponse> auto &m) { io(m.id, m.json); }

void
fields(auto &io, Is<InfoRequest> auto &m)
{
    io(m.id, ModelName{m.model}, m.version);
}

void
fields(auto &io, Is<InfoResponse> auto &m)
{
    io(m.id, m.ok, m.code, m.error, ModelName{m.model}, m.version,
       m.input_size, m.output_size, m.shards, m.placement);
}

void
fields(auto &io, Is<SessionOpen> auto &m)
{
    io(m.session_id, ModelName{m.model}, m.version);
}

void
fields(auto &io, Is<SessionAck> auto &m)
{
    io(m.session_id, m.ok, m.code, m.error, m.input_size,
       m.hidden_size);
}

void
fields(auto &io, Is<SessionStep> auto &m)
{
    io(m.session_id, m.id, m.priority, m.deadline_us, m.x, m.trace_id);
}

void
fields(auto &io, Is<SessionState> auto &m)
{
    io(m.session_id, m.id, m.ok, m.code, m.error, m.h);
}

void fields(auto &io, Is<SessionClose> auto &m) { io(m.session_id); }

void fields(auto &io, Is<MetricsRequest> auto &m) { io(m.id); }

void
fields(auto &io, Is<MetricsResponse> auto &m)
{
    io(m.id, m.text, m.json);
}

void fields(auto &io, Is<TraceRequest> auto &m) { io(m.id); }

void fields(auto &io, Is<TraceResponse> auto &m) { io(m.id, m.json); }

} // namespace

std::vector<std::uint8_t>
encodeFrame(const Message &message)
{
    BodyWriter writer;
    writer(static_cast<std::uint8_t>(messageType(message)));
    std::visit([&writer](const auto &m) { fields(writer, m); }, message);
    return std::move(writer).frame();
}

Message
decodeBody(std::span<const std::uint8_t> body)
{
    if (body.empty())
        throw WireError("empty frame body");
    if (body.size() > kMaxBodyBytes)
        throw WireError("frame body exceeds limit");

    const std::size_t tag = body[0];
    if (tag == 0 || tag > std::variant_size_v<Message>)
        throw WireError("unknown frame type " + std::to_string(tag));
    // Default-construct the alternative the tag names, then fill it.
    Message message;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (void)((I + 1 == tag && (message.emplace<I>(), true)) || ...);
    }(std::make_index_sequence<std::variant_size_v<Message>>{});

    BodyReader reader(body.subspan(1));
    std::visit([&reader](auto &m) { fields(reader, m); }, message);
    reader.done();
    return message;
}

} // namespace eie::serve::wire
