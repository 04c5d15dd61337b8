/**
 * @file
 * Per-request tracing: a process-global bounded span ring plus a
 * chrome://tracing JSON renderer.
 *
 * A trace id is allocated at the edge (Client::submit /
 * Session::step), carried through the wire protocol (a u64 field of
 * InferRequest and SessionStep, see wire.hh), and threaded through
 * SubmitOptions down to the batcher. Each stage that touches a
 * traced request drops one complete span — "enqueue",
 * "batch_form", "shard_submit", "kernel_run", "gather", "reply" —
 * into the ring. Requests with trace id 0 (the default) record
 * nothing, so the bench/hot path only pays a predicted-false
 * branch.
 *
 * The ring is fixed-capacity and mutex-guarded: tracing is a
 * debugging surface sampled per request, not a hot-path recorder,
 * so a lock beats the complexity of a lock-free ring and keeps the
 * structure trivially TSan-clean. Old spans are overwritten once
 * the ring wraps.
 *
 * Timestamps are microseconds since a process-local steady epoch
 * (first use), which is what chrome://tracing wants — relative
 * times on one axis — and avoids system_clock jumps.
 */

#ifndef EIE_OBS_TRACE_HH
#define EIE_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace eie::obs {

/** One completed operation attributed to a traced request. */
struct Span
{
    std::uint64_t trace_id = 0;
    /** Stage name ("enqueue", "kernel_run", ...). */
    std::string name;
    /** Component category ("server", "cluster", "tcp", "client"). */
    std::string cat;
    /** Start, microseconds since the process trace epoch. */
    double start_us = 0.0;
    double dur_us = 0.0;
    /** Stable id of the recording thread. */
    std::uint64_t tid = 0;
    /** Free-form annotation ("batch=7", "shard=2"). */
    std::string arg;
};

/** Microseconds since the process-local steady trace epoch. */
double traceNowUs();

/** Convert a steady_clock time point to trace-epoch microseconds. */
double traceTimeUs(std::chrono::steady_clock::time_point tp);

/** Stable small id for the calling thread (chrome tid field). */
std::uint64_t traceThreadId();

/**
 * Allocate the next nonzero trace id. Ids are process-unique and
 * dense; 0 always means "untraced".
 */
std::uint64_t nextTraceId();

/** Bounded in-memory span store; wraps once full. */
class SpanRing
{
  public:
    static constexpr std::size_t kDefaultCapacity = 8192;

    explicit SpanRing(std::size_t capacity = kDefaultCapacity);

    void record(Span span);

    /** Convenience: build and record a span ending "now". */
    void record(std::uint64_t trace_id, std::string name,
                std::string cat, double start_us, double end_us,
                std::string arg = {});

    /** All retained spans, oldest first. */
    std::vector<Span> snapshot() const;

    void clear();

    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::size_t next_ = 0;
    bool wrapped_ = false;
};

/** The process-global ring every serving component records into. */
SpanRing &processTraceRing();

/**
 * Render spans as a chrome://tracing "traceEvents" document
 * (complete events, ph:"X"). Load the output via chrome://tracing
 * or https://ui.perfetto.dev.
 */
std::string renderChromeTrace(const std::vector<Span> &spans);

} // namespace eie::obs

#endif // EIE_OBS_TRACE_HH
