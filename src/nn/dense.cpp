#include "gansec/nn/dense.hpp"

#include <cmath>

#include "gansec/error.hpp"
#include "gansec/math/kernels.hpp"

namespace gansec::nn {

using math::Matrix;

namespace {

// W-sized backward scratch, one set per thread, shared by every Dense
// layer of every network the thread trains. Not the thread's Workspace:
// the trainer reaches backward() at a different cursor depth in each
// step, and every depth would keep W-sized slots of its own.
struct BackwardScratch {
  Matrix wgrad;  // X^T * dL/dY before accumulation
  Matrix bgrad;  // column sums before accumulation
  Matrix w_t;    // W^T, the right operand of dL/dX
};
thread_local BackwardScratch t_scratch;

}  // namespace

Dense::Dense(std::size_t inputs, std::size_t outputs, InitScheme scheme)
    : weight_("W", Matrix(inputs, outputs, 0.0F)),
      bias_("b", Matrix(1, outputs, 0.0F)),
      scheme_(scheme) {
  if (inputs == 0 || outputs == 0) {
    throw InvalidArgumentError("Dense: layer dimensions must be positive");
  }
}

// Forward/backward run once per training iteration on buffers owned by the
// layer; after warm-up every resize lands in existing capacity.
// gansec-lint: hot-path

const Matrix& Dense::forward(const Matrix& input, bool /*training*/) {
  if (input.cols() != inputs()) {
    throw DimensionError("Dense::forward: input width " +
                         std::to_string(input.cols()) + " != " +
                         std::to_string(inputs()));
  }
  last_input_ = &input;
  last_input_rows_ = input.rows();
  math::matmul_into(out_, input, weight_.value);
  out_.add_row_broadcast(bias_.value);
  return out_;
}

const Matrix& Dense::backward(const Matrix& grad_output) {
  return backward(grad_output, BackwardMode::kFull);
}

const Matrix& Dense::backward(const Matrix& grad_output, BackwardMode mode) {
  if (grad_output.rows() != last_input_rows_ ||
      grad_output.cols() != outputs()) {
    throw DimensionError("Dense::backward: gradient shape mismatch");
  }
  BackwardScratch& scratch = t_scratch;
  if (mode != BackwardMode::kInputOnly) {
    // dL/dW = X^T * dL/dY ; dL/db = column sums. Each lands in scratch
    // first, then accumulates, so the float rounding order matches
    // grad += full_product exactly.
    math::matmul_transposed_a_into(scratch.wgrad, *last_input_, grad_output);
    weight_.grad += scratch.wgrad;
    math::col_sums_into(scratch.bgrad, grad_output);
    bias_.grad += scratch.bgrad;
  }
  if (mode == BackwardMode::kParamsOnly) {
    grad_in_.resize(0, 0);
    return grad_in_;
  }
  // dL/dX = dL/dY * W^T as a forward-shaped GEMM over a transposed copy of
  // W: its inner loop streams rows and vectorizes, where a dot product
  // per output is a serial float reduction. Each output still sums over k
  // ascending from +0; the terms it skips for dL/dY == 0 add ±0, so the
  // bits match the dot product for finite weights.
  math::transpose_into(scratch.w_t, weight_.value);
  math::matmul_into(grad_in_, grad_output, scratch.w_t);
  return grad_in_;
}

// gansec-lint: end-hot-path

std::vector<Parameter*> Dense::parameters() { return {&weight_, &bias_}; }

void Dense::init_weights(math::Rng& rng) {
  const auto fan_in = static_cast<float>(inputs());
  const auto fan_out = static_cast<float>(outputs());
  switch (scheme_) {
    case InitScheme::kXavierUniform: {
      const float limit = std::sqrt(6.0F / (fan_in + fan_out));
      weight_.value =
          rng.uniform_matrix(inputs(), outputs(), -limit, limit);
      break;
    }
    case InitScheme::kHeNormal: {
      const float sigma = std::sqrt(2.0F / fan_in);
      weight_.value = rng.normal_matrix(inputs(), outputs(), 0.0F, sigma);
      break;
    }
  }
  bias_.value = Matrix(1, outputs(), 0.0F);
  weight_.zero_grad();
  bias_.zero_grad();
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(inputs(), outputs(), scheme_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

}  // namespace gansec::nn
