#include "engine/lstm_session.hh"

#include <stdexcept>

namespace eie::engine {

bool
LstmShape::derive(std::size_t model_input_size,
                  std::size_t model_output_size, LstmShape &out,
                  std::string &error)
{
    const auto describe = [&]() {
        return std::to_string(model_input_size) + " -> " +
            std::to_string(model_output_size);
    };
    if (model_output_size % 4 != 0 || model_output_size == 0) {
        error = "model " + describe() +
            " is not LSTM-shaped: output size is not 4H";
        return false;
    }
    const std::size_t hidden = model_output_size / 4;
    if (model_input_size < hidden + 2) {
        error = "model " + describe() +
            " is not LSTM-shaped: input size leaves no room for "
            "[x; h; 1] with H = " +
            std::to_string(hidden);
        return false;
    }
    out.hidden_size = hidden;
    out.input_size = model_input_size - hidden - 1;
    return true;
}

LstmSession::LstmSession(const core::EieConfig &config,
                         const LstmShape &shape)
    : shape_(shape), functional_(config),
      gates_(nn::SparseMatrix(4 * shape.hidden_size,
                              shape.input_size + shape.hidden_size + 1),
             shape.input_size, shape.hidden_size),
      state_(gates_.initialState())
{}

void
LstmSession::reset()
{
    state_ = gates_.initialState();
}

nn::Vector
LstmSession::step(const nn::Vector &x, const Mxv &mxv)
{
    return commit(mxv(pack(x)));
}

std::vector<std::int64_t>
LstmSession::pack(const nn::Vector &x) const
{
    if (x.size() != shape_.input_size)
        throw std::invalid_argument(
            "LSTM step input length " + std::to_string(x.size()) +
            " != " + std::to_string(shape_.input_size));
    return functional_.quantizeInput(gates_.packInput(x, state_));
}

nn::Vector
LstmSession::commit(const std::vector<std::int64_t> &preact_raw)
{
    if (preact_raw.size() != 4 * shape_.hidden_size)
        throw std::runtime_error(
            "LSTM M×V returned " + std::to_string(preact_raw.size()) +
            " pre-activations, expected 4H = " +
            std::to_string(4 * shape_.hidden_size));

    nn::LstmState next =
        gates_.applyGates(functional_.dequantize(preact_raw), state_);
    state_ = std::move(next);
    ++steps_;
    return state_.h;
}

} // namespace eie::engine
