#include "gansec/nn/activations.hpp"

#include <cmath>

#include "gansec/error.hpp"
#include "gansec/math/kernels.hpp"

namespace gansec::nn {

using math::Matrix;

namespace {

void require_same_shape(const Matrix& grad, const Matrix& cached,
                        const char* layer) {
  if (!grad.same_shape(cached)) {
    throw DimensionError(std::string(layer) +
                         "::backward: gradient shape mismatch");
  }
}

}  // namespace

// ---- Relu -----------------------------------------------------------------

// gansec-lint: hot-path

const Matrix& Relu::forward(const Matrix& input, bool /*training*/) {
  math::transform_into(out_, input,
                       [](float v) { return v > 0.0F ? v : 0.0F; });
  return out_;
}

const Matrix& Relu::backward(const Matrix& grad_output) {
  require_same_shape(grad_output, out_, "Relu");
  // y > 0 exactly when x > 0, so the output alone determines the mask.
  grad_in_.resize(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_in_.size(); ++i) {
    grad_in_.data()[i] =
        out_.data()[i] > 0.0F ? grad_output.data()[i] : 0.0F;
  }
  return grad_in_;
}

// gansec-lint: end-hot-path

std::unique_ptr<Layer> Relu::clone() const {
  return std::make_unique<Relu>();
}

// ---- LeakyRelu -------------------------------------------------------------

LeakyRelu::LeakyRelu(float negative_slope) : slope_(negative_slope) {
  if (negative_slope < 0.0F) {
    throw InvalidArgumentError("LeakyRelu: slope must be >= 0");
  }
}

// gansec-lint: hot-path

// Both loops multiply by a selected factor instead of selecting between
// v and s*v: v * 1 is exactly v (±0, ±inf and NaN included) and v * s is
// s * v, so the bits are those of the branchy form. With the multiply
// unconditional, and this file built with -fno-trapping-math (see
// src/nn/CMakeLists.txt), GCC turns each loop into compare, blend and
// multiply on packed floats instead of a branch per element.
const Matrix& LeakyRelu::forward(const Matrix& input, bool /*training*/) {
  const float s = slope_;
  math::transform_into(out_, input,
                       [s](float v) { return v * (v > 0.0F ? 1.0F : s); });
  return out_;
}

const Matrix& LeakyRelu::backward(const Matrix& grad_output) {
  require_same_shape(grad_output, out_, "LeakyRelu");
  // With slope >= 0, y = s*x preserves sign (and -0 stays <= 0), so
  // y > 0 exactly when x > 0 — same mask the input would give.
  grad_in_.resize(grad_output.rows(), grad_output.cols());
  const float s = slope_;
  const float* y = out_.data();
  const float* g = grad_output.data();
  float* dx = grad_in_.data();
  const std::size_t n = grad_in_.size();
  for (std::size_t i = 0; i < n; ++i) {
    dx[i] = g[i] * (y[i] > 0.0F ? 1.0F : s);
  }
  return grad_in_;
}

// gansec-lint: end-hot-path

std::unique_ptr<Layer> LeakyRelu::clone() const {
  return std::make_unique<LeakyRelu>(slope_);
}

// ---- Tanh -------------------------------------------------------------------

// gansec-lint: hot-path

const Matrix& Tanh::forward(const Matrix& input, bool /*training*/) {
  math::transform_into(out_, input, [](float v) { return std::tanh(v); });
  return out_;
}

const Matrix& Tanh::backward(const Matrix& grad_output) {
  require_same_shape(grad_output, out_, "Tanh");
  grad_in_.resize(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_in_.size(); ++i) {
    const float y = out_.data()[i];
    grad_in_.data()[i] = grad_output.data()[i] * (1.0F - y * y);
  }
  return grad_in_;
}

// gansec-lint: end-hot-path

std::unique_ptr<Layer> Tanh::clone() const {
  return std::make_unique<Tanh>();
}

// ---- Sigmoid ----------------------------------------------------------------

// gansec-lint: hot-path

const Matrix& Sigmoid::forward(const Matrix& input, bool /*training*/) {
  math::transform_into(out_, input, [](float v) {
    // Numerically stable logistic: avoid overflow in exp for |v| large.
    if (v >= 0.0F) {
      const float e = std::exp(-v);
      return 1.0F / (1.0F + e);
    }
    const float e = std::exp(v);
    return e / (1.0F + e);
  });
  return out_;
}

const Matrix& Sigmoid::backward(const Matrix& grad_output) {
  require_same_shape(grad_output, out_, "Sigmoid");
  grad_in_.resize(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_in_.size(); ++i) {
    const float y = out_.data()[i];
    grad_in_.data()[i] = grad_output.data()[i] * (y * (1.0F - y));
  }
  return grad_in_;
}

// gansec-lint: end-hot-path

std::unique_ptr<Layer> Sigmoid::clone() const {
  return std::make_unique<Sigmoid>();
}

}  // namespace gansec::nn
