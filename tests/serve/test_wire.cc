/**
 * @file
 * Wire-protocol codec tests: every message type round-trips through
 * encodeFrame/decodeBody, and malformed frames (truncation, trailing
 * garbage, unknown types, oversized fields) throw WireError instead
 * of crashing — the daemon's survival property against byte-level
 * garbage from the network.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <span>

#include "serve/wire.hh"

namespace {

using namespace eie::serve;

/** Strip the length prefix, returning the frame body. */
std::vector<std::uint8_t>
body(const std::vector<std::uint8_t> &frame)
{
    EXPECT_GE(frame.size(), 5u);
    std::uint32_t body_len = 0;
    std::memcpy(&body_len, frame.data(), 4);
    EXPECT_EQ(body_len, frame.size() - 4);
    return {frame.begin() + 4, frame.end()};
}

/** Encode, frame-check, decode. */
wire::Message
roundTrip(const wire::Message &message)
{
    return wire::decodeBody(body(wire::encodeFrame(message)));
}

TEST(Wire, HelloRoundTrip)
{
    const auto decoded = roundTrip(wire::Hello{});
    const auto *hello = std::get_if<wire::Hello>(&decoded);
    ASSERT_NE(hello, nullptr);
    EXPECT_EQ(hello->protocol, wire::kProtocolVersion);

    const auto ack = roundTrip(wire::HelloAck{});
    EXPECT_TRUE(std::holds_alternative<wire::HelloAck>(ack));
}

TEST(Wire, InferRequestRoundTrip)
{
    wire::InferRequest request;
    request.id = 0x1122334455667788ull;
    request.model = "alex-7";
    request.version = 3;
    request.priority = -2;
    request.deadline_us = 1500;
    request.input = {0, -5, 127, -32768, 32767, 42};
    request.trace_id = 0xfeedfacecafebeefull;

    const auto decoded = roundTrip(request);
    const auto *out = std::get_if<wire::InferRequest>(&decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->id, request.id);
    EXPECT_EQ(out->model, request.model);
    EXPECT_EQ(out->version, request.version);
    EXPECT_EQ(out->priority, request.priority);
    EXPECT_EQ(out->deadline_us, request.deadline_us);
    EXPECT_EQ(out->input, request.input);
    EXPECT_EQ(out->trace_id, request.trace_id);
}

TEST(Wire, InferResponseRoundTripsBothArms)
{
    wire::InferResponse ok;
    ok.id = 7;
    ok.ok = true;
    ok.output = {1, 2, 3, -9000000000ll};
    const auto decoded_ok = roundTrip(ok);
    const auto *out = std::get_if<wire::InferResponse>(&decoded_ok);
    ASSERT_NE(out, nullptr);
    EXPECT_TRUE(out->ok);
    EXPECT_EQ(out->output, ok.output);
    EXPECT_TRUE(out->error.empty());

    wire::InferResponse failed;
    failed.id = 8;
    failed.ok = false;
    failed.code = wire::ErrorCode::DeadlineExpired;
    failed.error = "deadline expired";
    const auto decoded_err = roundTrip(failed);
    const auto *err = std::get_if<wire::InferResponse>(&decoded_err);
    ASSERT_NE(err, nullptr);
    EXPECT_FALSE(err->ok);
    EXPECT_EQ(err->code, wire::ErrorCode::DeadlineExpired);
    EXPECT_EQ(err->error, failed.error);
    EXPECT_TRUE(err->output.empty());
}

TEST(Wire, HelloAckCarriesTheRejectionReason)
{
    // ok/error travel, so a mismatched client gets the reason.
    wire::HelloAck rejection;
    rejection.ok = false;
    rejection.error = "unsupported protocol version 7";
    const auto decoded = roundTrip(rejection);
    const auto *ack = std::get_if<wire::HelloAck>(&decoded);
    ASSERT_NE(ack, nullptr);
    EXPECT_FALSE(ack->ok);
    EXPECT_EQ(ack->protocol, wire::kProtocolVersion);
    EXPECT_EQ(ack->error, rejection.error);
}

TEST(Wire, SessionMessagesRoundTrip)
{
    wire::SessionOpen open;
    open.session_id = 11;
    open.model = "nt-lstm";
    open.version = 2;
    const auto decoded_open = roundTrip(open);
    const auto *open_out = std::get_if<wire::SessionOpen>(&decoded_open);
    ASSERT_NE(open_out, nullptr);
    EXPECT_EQ(open_out->session_id, 11u);
    EXPECT_EQ(open_out->model, "nt-lstm");
    EXPECT_EQ(open_out->version, 2u);

    wire::SessionAck ack;
    ack.session_id = 11;
    ack.ok = true;
    ack.input_size = 600;
    ack.hidden_size = 600;
    const auto decoded_ack = roundTrip(ack);
    const auto *ack_out = std::get_if<wire::SessionAck>(&decoded_ack);
    ASSERT_NE(ack_out, nullptr);
    EXPECT_TRUE(ack_out->ok);
    EXPECT_EQ(ack_out->input_size, 600u);
    EXPECT_EQ(ack_out->hidden_size, 600u);

    wire::SessionAck nack;
    nack.session_id = 12;
    nack.code = wire::ErrorCode::InvalidArgument;
    nack.error = "model 64 -> 96 is not LSTM-shaped";
    const auto decoded_nack = roundTrip(nack);
    const auto *nack_out = std::get_if<wire::SessionAck>(&decoded_nack);
    ASSERT_NE(nack_out, nullptr);
    EXPECT_FALSE(nack_out->ok);
    EXPECT_EQ(nack_out->code, wire::ErrorCode::InvalidArgument);
    EXPECT_EQ(nack_out->error, nack.error);

    // Step/state: float payloads must round-trip bit-exactly (they
    // carry the recurrent trajectory).
    wire::SessionStep step;
    step.session_id = 11;
    step.id = 99;
    step.priority = 3;
    step.deadline_us = 250;
    step.x = {0.0f, -1.5f, 3.25e-7f, 1024.5f};
    step.trace_id = 0x0123456789abcdefull;
    const auto decoded_step = roundTrip(step);
    const auto *step_out = std::get_if<wire::SessionStep>(&decoded_step);
    ASSERT_NE(step_out, nullptr);
    EXPECT_EQ(step_out->session_id, 11u);
    EXPECT_EQ(step_out->id, 99u);
    EXPECT_EQ(step_out->priority, 3);
    EXPECT_EQ(step_out->deadline_us, 250u);
    EXPECT_EQ(step_out->x, step.x);
    EXPECT_EQ(step_out->trace_id, step.trace_id);

    wire::SessionState state;
    state.session_id = 11;
    state.id = 99;
    state.ok = true;
    state.h = {0.5f, -0.25f, 0.0f};
    const auto decoded_state = roundTrip(state);
    const auto *state_out =
        std::get_if<wire::SessionState>(&decoded_state);
    ASSERT_NE(state_out, nullptr);
    EXPECT_TRUE(state_out->ok);
    EXPECT_EQ(state_out->session_id, 11u);
    EXPECT_EQ(state_out->id, 99u);
    EXPECT_EQ(state_out->h, state.h);

    wire::SessionClose close_msg;
    close_msg.session_id = 11;
    const auto decoded_close = roundTrip(close_msg);
    const auto *close_out =
        std::get_if<wire::SessionClose>(&decoded_close);
    ASSERT_NE(close_out, nullptr);
    EXPECT_EQ(close_out->session_id, 11u);
}

TEST(Wire, StatsAndInfoRoundTrip)
{
    const auto decoded_stats_req = roundTrip(wire::StatsRequest{21});
    const auto *stats_req =
        std::get_if<wire::StatsRequest>(&decoded_stats_req);
    ASSERT_NE(stats_req, nullptr);
    EXPECT_EQ(stats_req->id, 21u);

    wire::StatsResponse stats;
    stats.id = 21;
    stats.json = "{\"clusters\":[]}";
    const auto decoded = roundTrip(stats);
    const auto *out = std::get_if<wire::StatsResponse>(&decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->id, 21u);
    EXPECT_EQ(out->json, stats.json);

    wire::InfoRequest info_request;
    info_request.id = 22;
    info_request.model = "m";
    info_request.version = 9;
    const auto decoded_req = roundTrip(info_request);
    const auto *req = std::get_if<wire::InfoRequest>(&decoded_req);
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->id, 22u);
    EXPECT_EQ(req->model, "m");
    EXPECT_EQ(req->version, 9u);

    wire::InfoResponse info;
    info.id = 22;
    info.ok = true;
    info.model = "m";
    info.version = 9;
    info.input_size = 4096;
    info.output_size = 4096;
    info.shards = 4;
    info.placement = "partitioned";
    const auto decoded_info = roundTrip(info);
    const auto *out_info = std::get_if<wire::InfoResponse>(&decoded_info);
    ASSERT_NE(out_info, nullptr);
    EXPECT_EQ(out_info->id, 22u);
    EXPECT_TRUE(out_info->ok);
    EXPECT_EQ(out_info->input_size, 4096u);
    EXPECT_EQ(out_info->shards, 4u);
    EXPECT_EQ(out_info->placement, "partitioned");

    // A failed lookup carries its code, so a model the daemon cannot
    // load is not reported as a missing one.
    wire::InfoResponse failed;
    failed.id = 23;
    failed.code = wire::ErrorCode::NotFound;
    failed.error = "model 'm' not found";
    const auto decoded_failed = roundTrip(failed);
    const auto *out_failed =
        std::get_if<wire::InfoResponse>(&decoded_failed);
    ASSERT_NE(out_failed, nullptr);
    EXPECT_EQ(out_failed->id, 23u);
    EXPECT_FALSE(out_failed->ok);
    EXPECT_EQ(out_failed->code, wire::ErrorCode::NotFound);
    EXPECT_EQ(out_failed->error, failed.error);
}

TEST(Wire, MetricsAndTraceRoundTrip)
{
    const auto decoded_metrics_req = roundTrip(wire::MetricsRequest{31});
    const auto *metrics_req =
        std::get_if<wire::MetricsRequest>(&decoded_metrics_req);
    ASSERT_NE(metrics_req, nullptr);
    EXPECT_EQ(metrics_req->id, 31u);

    const wire::MetricsResponse metrics{
        31, "eie_server_requests_total 7\n",
        "{\"counters\":{\"eie_server_requests_total\":7}}"};
    const auto decoded_metrics = roundTrip(metrics);
    const auto *out_metrics =
        std::get_if<wire::MetricsResponse>(&decoded_metrics);
    ASSERT_NE(out_metrics, nullptr);
    EXPECT_EQ(out_metrics->id, 31u);
    EXPECT_EQ(out_metrics->text, metrics.text);
    EXPECT_EQ(out_metrics->json, metrics.json);

    const auto decoded_trace_req = roundTrip(wire::TraceRequest{32});
    const auto *trace_req =
        std::get_if<wire::TraceRequest>(&decoded_trace_req);
    ASSERT_NE(trace_req, nullptr);
    EXPECT_EQ(trace_req->id, 32u);

    const wire::TraceResponse trace{32, "{\"traceEvents\":[]}"};
    const auto decoded_trace = roundTrip(trace);
    const auto *out_trace =
        std::get_if<wire::TraceResponse>(&decoded_trace);
    ASSERT_NE(out_trace, nullptr);
    EXPECT_EQ(out_trace->id, 32u);
    EXPECT_EQ(out_trace->json, trace.json);
}

TEST(Wire, MalformedFramesThrowInsteadOfCrashing)
{
    // Empty body.
    EXPECT_THROW(wire::decodeBody({}), wire::WireError);

    // Unknown type tag.
    const std::vector<std::uint8_t> unknown{0xff, 0, 0, 0, 0};
    EXPECT_THROW(wire::decodeBody(unknown), wire::WireError);

    // Truncations at every prefix length of a valid frame.
    wire::InferRequest request;
    request.model = "m";
    request.input = {1, 2, 3};
    const auto frame_body = body(wire::encodeFrame(request));
    for (std::size_t len = 1; len < frame_body.size(); ++len) {
        const std::span<const std::uint8_t> prefix(frame_body.data(),
                                                   len);
        EXPECT_THROW(wire::decodeBody(prefix), wire::WireError)
            << "prefix length " << len;
    }

    // Trailing garbage after a complete payload.
    auto padded = frame_body;
    padded.push_back(0);
    EXPECT_THROW(wire::decodeBody(padded), wire::WireError);
}

TEST(Wire, RejectsOversizedDeclaredFields)
{
    // A model-name length beyond kMaxModelName must be rejected
    // before any allocation happens.
    std::vector<std::uint8_t> evil;
    evil.push_back(
        static_cast<std::uint8_t>(wire::MsgType::InferRequest));
    for (int i = 0; i < 8; ++i)
        evil.push_back(0); // id
    const std::uint32_t huge = 0x10000000;
    const auto *p = reinterpret_cast<const std::uint8_t *>(&huge);
    evil.insert(evil.end(), p, p + 4); // name length
    EXPECT_THROW(wire::decodeBody(evil), wire::WireError);

    // A vector count larger than the remaining frame bytes, too.
    wire::InferRequest request;
    request.model = "m";
    request.input = {1};
    auto frame_body = body(wire::encodeFrame(request));
    // The input count sits before one i64 input and the u64 trace id;
    // bump it.
    const std::size_t count_at = frame_body.size() - 8 - 8 - 4;
    std::uint32_t bogus = 1000;
    std::memcpy(frame_body.data() + count_at, &bogus, 4);
    EXPECT_THROW(wire::decodeBody(frame_body), wire::WireError);
}

/** Every frame type the protocol speaks, with non-trivial payloads
 *  so mutations have structure to corrupt. */
std::vector<wire::Message>
sampleFrames()
{
    std::vector<wire::Message> frames;
    frames.push_back(wire::Hello{});
    wire::HelloAck hello_ack;
    hello_ack.ok = true;
    frames.push_back(hello_ack);
    wire::InferRequest request;
    request.id = 42;
    request.model = "fuzz-model";
    request.version = 3;
    request.priority = -7;
    request.deadline_us = 12345;
    request.input = {0, -5, 127, -32768, 32767, 42, -1};
    request.trace_id = 0xabcdef0123456789ull;
    frames.push_back(request);
    wire::InferResponse response;
    response.id = 42;
    response.ok = true;
    response.output = {1, 2, 3, -9000000000ll, 77};
    frames.push_back(response);
    wire::InferResponse failure;
    failure.id = 43;
    failure.code = wire::ErrorCode::Unavailable;
    failure.error = "request shed: server queue is full";
    frames.push_back(failure);
    frames.push_back(wire::StatsRequest{44});
    frames.push_back(
        wire::StatsResponse{44, "{\"clusters\":[{\"requests\":9}]}"});
    wire::InfoRequest info_request;
    info_request.id = 45;
    info_request.model = "fuzz-model";
    info_request.version = 1;
    frames.push_back(info_request);
    wire::InfoResponse info_response;
    info_response.id = 45;
    info_response.ok = true;
    info_response.model = "fuzz-model";
    info_response.version = 1;
    info_response.input_size = 64;
    info_response.output_size = 96;
    info_response.shards = 4;
    info_response.placement = "replicated";
    frames.push_back(info_response);
    wire::InfoResponse info_failure;
    info_failure.id = 46;
    info_failure.code = wire::ErrorCode::Internal;
    info_failure.error = "model 'fuzz-model' v1 is unreadable";
    frames.push_back(info_failure);
    wire::SessionOpen open;
    open.session_id = 11;
    open.model = "lstm";
    frames.push_back(open);
    wire::SessionAck ack;
    ack.session_id = 11;
    ack.ok = true;
    ack.input_size = 16;
    ack.hidden_size = 32;
    frames.push_back(ack);
    wire::SessionStep step;
    step.session_id = 11;
    step.id = 9;
    step.x = {0.5f, -1.0f, 0.25f};
    step.trace_id = 0x1122334455667788ull;
    frames.push_back(step);
    wire::SessionState state;
    state.session_id = 11;
    state.id = 9;
    state.ok = true;
    state.h = {0.1f, 0.2f};
    frames.push_back(state);
    wire::SessionClose close_msg;
    close_msg.session_id = 11;
    frames.push_back(close_msg);
    frames.push_back(wire::MetricsRequest{47});
    frames.push_back(wire::MetricsResponse{
        47, "eie_server_requests_total 9\n",
        "{\"counters\":{\"eie_server_requests_total\":9}}"});
    frames.push_back(wire::TraceRequest{48});
    frames.push_back(wire::TraceResponse{
        48, "{\"traceEvents\":[{\"name\":\"enqueue\"}]}"});
    return frames;
}

/** splitmix64: the deterministic byte source of the fuzz tests. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST(WireFuzz, SeededMutationsOfEveryFrameTypeFailTyped)
{
    // Deterministic garbage-frame fuzz: mutate each valid frame body
    // (bit flips, byte stomps, truncations, extensions) and require
    // decodeBody to either produce a Message or throw WireError —
    // never crash, hang, or trip a sanitizer. Seeded, so a failure
    // reproduces exactly.
    std::uint64_t rng = 0xe1ef0e7c0ffee123ull;
    std::set<std::size_t> covered;
    for (const wire::Message &message : sampleFrames()) {
        const auto clean = body(wire::encodeFrame(message));
        // Every field survives the round trip: re-encoding the decoded
        // frame gives back the same bytes.
        wire::Message decoded;
        ASSERT_NO_THROW(decoded = wire::decodeBody(clean));
        EXPECT_EQ(body(wire::encodeFrame(decoded)), clean);
        covered.insert(message.index());

        for (int round = 0; round < 200; ++round) {
            auto mutated = clean;
            const unsigned edits =
                1 + static_cast<unsigned>(splitmix(rng) % 4);
            for (unsigned e = 0; e < edits; ++e) {
                switch (splitmix(rng) % 4) {
                  case 0: // flip one bit
                    mutated[splitmix(rng) % mutated.size()] ^=
                        static_cast<std::uint8_t>(
                            1u << (splitmix(rng) % 8));
                    break;
                  case 1: // stomp one byte
                    mutated[splitmix(rng) % mutated.size()] =
                        static_cast<std::uint8_t>(splitmix(rng));
                    break;
                  case 2: // truncate to a strict prefix
                    mutated.resize(1 +
                                   splitmix(rng) % mutated.size());
                    break;
                  default: // append trailing garbage
                    for (std::uint64_t n = 1 + splitmix(rng) % 8;
                         n > 0; --n)
                        mutated.push_back(static_cast<std::uint8_t>(
                            splitmix(rng)));
                    break;
                }
            }
            try {
                (void)wire::decodeBody(mutated);
                // A mutation may land on another valid encoding —
                // decoding successfully is fine; crashing is not.
            } catch (const wire::WireError &) {
                // The typed rejection path: also fine.
            }
        }
    }
    EXPECT_EQ(covered.size(), std::variant_size_v<wire::Message>);
}

TEST(WireFuzz, PureGarbageBodiesFailTyped)
{
    // Bodies that were never a frame: every type tag with random
    // payload bytes, and fully random bodies of varied length.
    std::uint64_t rng = 0x5eed5eed5eed5eedull;
    for (unsigned tag = 0; tag < 32; ++tag) {
        for (int round = 0; round < 50; ++round) {
            std::vector<std::uint8_t> garbage;
            garbage.push_back(static_cast<std::uint8_t>(tag));
            const std::uint64_t len = splitmix(rng) % 64;
            for (std::uint64_t i = 0; i < len; ++i)
                garbage.push_back(
                    static_cast<std::uint8_t>(splitmix(rng)));
            try {
                (void)wire::decodeBody(garbage);
            } catch (const wire::WireError &) {
            }
        }
    }
}

TEST(Wire, MessageTypeTagsAreStable)
{
    // The wire tags are protocol surface: renumbering breaks every
    // deployed peer, so pin them.
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::Hello), 1u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::HelloAck), 2u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::InferRequest), 3u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::InferResponse), 4u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::StatsRequest), 5u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::StatsResponse), 6u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::InfoRequest), 7u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::InfoResponse), 8u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::SessionOpen), 9u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::SessionAck), 10u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::SessionStep), 11u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::SessionState), 12u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::SessionClose), 13u);

    // Error codes are wire surface too.
    EXPECT_EQ(static_cast<unsigned>(wire::ErrorCode::Internal), 0u);
    EXPECT_EQ(static_cast<unsigned>(wire::ErrorCode::InvalidArgument),
              1u);
    EXPECT_EQ(static_cast<unsigned>(wire::ErrorCode::NotFound), 2u);
    EXPECT_EQ(static_cast<unsigned>(wire::ErrorCode::DeadlineExpired),
              3u);
    EXPECT_EQ(static_cast<unsigned>(wire::ErrorCode::Unavailable), 4u);

    // The telemetry queries are the v3 bump.
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::MetricsRequest),
              14u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::MetricsResponse),
              15u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::TraceRequest),
              16u);
    EXPECT_EQ(static_cast<unsigned>(wire::MsgType::TraceResponse),
              17u);

    // Each tag is its Message alternative's index plus one, which is
    // how the codec picks the type to decode.
    const std::vector<std::pair<wire::Message, wire::MsgType>> tags{
        {wire::Hello{}, wire::MsgType::Hello},
        {wire::HelloAck{}, wire::MsgType::HelloAck},
        {wire::InferRequest{}, wire::MsgType::InferRequest},
        {wire::InferResponse{}, wire::MsgType::InferResponse},
        {wire::StatsRequest{}, wire::MsgType::StatsRequest},
        {wire::StatsResponse{}, wire::MsgType::StatsResponse},
        {wire::InfoRequest{}, wire::MsgType::InfoRequest},
        {wire::InfoResponse{}, wire::MsgType::InfoResponse},
        {wire::SessionOpen{}, wire::MsgType::SessionOpen},
        {wire::SessionAck{}, wire::MsgType::SessionAck},
        {wire::SessionStep{}, wire::MsgType::SessionStep},
        {wire::SessionState{}, wire::MsgType::SessionState},
        {wire::SessionClose{}, wire::MsgType::SessionClose},
        {wire::MetricsRequest{}, wire::MsgType::MetricsRequest},
        {wire::MetricsResponse{}, wire::MsgType::MetricsResponse},
        {wire::TraceRequest{}, wire::MsgType::TraceRequest},
        {wire::TraceResponse{}, wire::MsgType::TraceResponse}};
    ASSERT_EQ(tags.size(), std::variant_size_v<wire::Message>);
    for (const auto &[message, tag] : tags) {
        EXPECT_EQ(wire::messageType(message), tag);
        EXPECT_EQ(body(wire::encodeFrame(message))[0],
                  static_cast<std::uint8_t>(tag));
    }

    // v4: every reply carries its request's id, and InferRequest and
    // SessionStep end in a fixed trace id.
    EXPECT_EQ(wire::kProtocolVersion, 4u);
}

} // namespace
