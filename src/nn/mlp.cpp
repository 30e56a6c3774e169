#include "gansec/nn/mlp.hpp"

#include "gansec/error.hpp"

namespace gansec::nn {

using math::Matrix;

Layer& Mlp::add(std::unique_ptr<Layer> layer) {
  if (!layer) {
    throw InvalidArgumentError("Mlp::add: null layer");
  }
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

// gansec-lint: hot-path

const Matrix& Mlp::forward(const Matrix& input, bool training) {
  if (layers_.empty()) {
    throw InvalidArgumentError("Mlp::forward: network has no layers");
  }
  const Matrix* x = &input;
  for (auto& layer : layers_) {
    x = &layer->forward(*x, training);
  }
  return *x;
}

const Matrix& Mlp::backward(const Matrix& grad_output, BackwardMode mode) {
  if (layers_.empty()) {
    throw InvalidArgumentError("Mlp::backward: network has no layers");
  }
  // Every layer but the first feeds its dLoss/dInput to the layer below,
  // so only the first one may skip it.
  const BackwardMode inner =
      mode == BackwardMode::kParamsOnly ? BackwardMode::kFull : mode;
  const Matrix* g = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = &layers_[i]->backward(*g, i == 0 ? mode : inner);
  }
  return *g;
}

// gansec-lint: end-hot-path

std::vector<Parameter*> Mlp::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

void Mlp::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

void Mlp::init_weights(math::Rng& rng) {
  for (auto& layer : layers_) layer->init_weights(rng);
}

Mlp Mlp::clone() const {
  Mlp copy;
  for (const auto& layer : layers_) {
    copy.layers_.push_back(layer->clone());
  }
  return copy;
}

std::size_t Mlp::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->value.size();
  return n;
}

}  // namespace gansec::nn
