#include "gansec/nn/optimizer.hpp"

#include <cmath>

#include "gansec/error.hpp"

namespace gansec::nn {

using math::Matrix;

Optimizer::Optimizer(std::vector<Parameter*> params)
    : params_(std::move(params)) {
  for (const Parameter* p : params_) {
    if (p == nullptr) {
      throw InvalidArgumentError("Optimizer: null parameter");
    }
  }
}

void Optimizer::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

Sgd::Sgd(std::vector<Parameter*> params, float learning_rate)
    : Optimizer(std::move(params)), lr_(learning_rate) {
  if (learning_rate <= 0.0F) {
    throw InvalidArgumentError("Sgd: learning rate must be positive");
  }
}

void Sgd::step() {
  for (Parameter* p : params_) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] -= lr_ * p->grad.data()[i];
    }
  }
}

Momentum::Momentum(std::vector<Parameter*> params, float learning_rate,
                   float momentum)
    : Optimizer(std::move(params)), lr_(learning_rate), mu_(momentum) {
  if (learning_rate <= 0.0F) {
    throw InvalidArgumentError("Momentum: learning rate must be positive");
  }
  if (momentum < 0.0F || momentum >= 1.0F) {
    throw InvalidArgumentError("Momentum: momentum must be in [0,1)");
  }
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_) {
    velocity_.emplace_back(p->value.rows(), p->value.cols(), 0.0F);
  }
}

void Momentum::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    Matrix& v = velocity_[k];
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      v.data()[i] = mu_ * v.data()[i] + p->grad.data()[i];
      p->value.data()[i] -= lr_ * v.data()[i];
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float learning_rate, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params)),
      lr_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  if (learning_rate <= 0.0F) {
    throw InvalidArgumentError("Adam: learning rate must be positive");
  }
  if (beta1 < 0.0F || beta1 >= 1.0F || beta2 < 0.0F || beta2 >= 1.0F) {
    throw InvalidArgumentError("Adam: betas must be in [0,1)");
  }
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols(), 0.0F);
    v_.emplace_back(p->value.rows(), p->value.cols(), 0.0F);
  }
}

// The element loop runs on packed floats: this file is built with
// -fno-math-errno (std::sqrt needs no errno branch, so it becomes sqrtps)
// and -fno-trapping-math (see src/nn/CMakeLists.txt). Every lane still
// does the same IEEE single-precision operations in the same order, with
// no FMA, so the updates are bit-identical to the scalar loop.
void Adam::step() {
  ++t_;
  const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    Matrix& m = m_[k];
    Matrix& v = v_[k];
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float g = p->grad.data()[i];
      m.data()[i] = beta1_ * m.data()[i] + (1.0F - beta1_) * g;
      v.data()[i] = beta2_ * v.data()[i] + (1.0F - beta2_) * g * g;
      const float mhat = m.data()[i] / bc1;
      const float vhat = v.data()[i] / bc2;
      p->value.data()[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace gansec::nn
