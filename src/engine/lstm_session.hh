/**
 * @file
 * Streaming LSTM session state over any M×V execution path.
 *
 * EIE's RNN workloads (NT-LSTM, Table III) pack all four gate
 * matrices into one (4H) x (X + H + 1) M×V applied to [x; h; 1]; the
 * gate non-linearities and the state update run on the host
 * (nn::LstmCell::applyGates) — exactly the hardware/host split of a
 * real deployment. LstmSession captures the host half of that split
 * behind one reusable object so every serving surface threads
 * recurrent state identically: the TCP daemon holds one per open wire
 * session, and the in-process client transports hold one per
 * client::Session. The M×V itself is injected per step as a callback,
 * so the same session code runs over a raw ExecutionBackend, an
 * InferenceServer future or a ClusterEngine scatter-gather.
 *
 * Bit-exactness: two sessions over bit-exact M×V paths and the same
 * machine configuration produce bit-identical hidden-state
 * trajectories — quantize, M×V, dequantize and applyGates are all
 * deterministic — which is what lets the client equivalence suite
 * demand identical h sequences across local, cluster and TCP
 * endpoints.
 *
 * Not thread-safe: a session is a strictly sequential object (step
 * N+1 consumes step N's state); callers serialize access. A step
 * splits into pack() and commit() around the M×V, so a server can
 * hand the M×V to another thread: it must not pack the next step
 * until the previous one has committed (or been abandoned).
 */

#ifndef EIE_ENGINE_LSTM_SESSION_HH
#define EIE_ENGINE_LSTM_SESSION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/functional.hh"
#include "nn/lstm.hh"

namespace eie::engine {

/** The (X, H) shape of a packed-gate LSTM M×V model. */
struct LstmShape
{
    std::size_t input_size = 0;  ///< X: per-step input length
    std::size_t hidden_size = 0; ///< H: hidden/cell state length

    /**
     * Derive the shape from a served model's M×V sizes: a packed-gate
     * layer has input_size X + H + 1 and output_size 4H. Returns
     * false (with @p error naming the sizes) when no (X >= 1, H >= 1)
     * solves that — i.e. the model is not LSTM-shaped.
     */
    static bool derive(std::size_t model_input_size,
                       std::size_t model_output_size, LstmShape &out,
                       std::string &error);
};

/**
 * One streaming LSTM session: hidden and cell state plus the
 * quantize / pack / apply-gates host math around an injected M×V.
 */
class LstmSession
{
  public:
    /**
     * The injected M×V: consumes the packed [x; h; 1] raw fixed-point
     * vector, returns the raw gate pre-activations (length 4H). May
     * throw (DeadlineExpired, ServerStopped, transport errors...);
     * the step is then abandoned with the session state unchanged.
     */
    using Mxv = std::function<std::vector<std::int64_t>(
        std::vector<std::int64_t> packed_raw)>;

    LstmSession(const core::EieConfig &config, const LstmShape &shape);

    const LstmShape &shape() const { return shape_; }

    /** The current recurrent state (zeros before the first step). */
    const nn::LstmState &state() const { return state_; }

    /** Committed (successful) steps so far. */
    std::uint64_t steps() const { return steps_; }

    /** Reset the recurrent state to zeros. */
    void reset();

    /**
     * One time step: commit(mxv(pack(x))). Returns the new hidden
     * state. Rethrows whatever pack(), @p mxv or commit() throws; on
     * any throw the state is unchanged, so a failed step (e.g. a
     * deadline drop) may simply be retried.
     */
    nn::Vector step(const nn::Vector &x, const Mxv &mxv);

    /**
     * The first half of a step: pack [x; state.h; 1] and quantize it
     * into the M×V's raw input. Reads the state, changes nothing.
     * Throws std::invalid_argument when x.size() !=
     * shape().input_size.
     */
    std::vector<std::int64_t> pack(const nn::Vector &x) const;

    /**
     * The second half of a step: dequantize the M×V's raw gate
     * pre-activations for the state pack() read, apply the gates and
     * commit the new state. Returns the new hidden state. Throws
     * std::runtime_error, with the state unchanged, when
     * preact_raw.size() != 4H.
     */
    nn::Vector commit(const std::vector<std::int64_t> &preact_raw);

  private:
    LstmShape shape_;
    core::FunctionalModel functional_;
    /** Weight-free cell: packInput/applyGates host math only (the
     *  M×V those helpers surround is the injected callback). */
    nn::LstmCell gates_;
    nn::LstmState state_;
    std::uint64_t steps_ = 0;
};

} // namespace eie::engine

#endif // EIE_ENGINE_LSTM_SESSION_HH
