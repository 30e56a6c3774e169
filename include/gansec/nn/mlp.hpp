// Sequential multilayer perceptron container.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "gansec/nn/layer.hpp"

namespace gansec::nn {

/// An ordered stack of layers with whole-network forward/backward passes.
/// Copyable via clone() (deep copy of all layers and weights).
class Mlp {
 public:
  Mlp() = default;
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;
  Mlp(const Mlp& other) { *this = other.clone(); }
  Mlp& operator=(const Mlp& other) {
    if (this != &other) *this = other.clone();
    return *this;
  }

  /// Appends a layer and returns a reference to it.
  Layer& add(std::unique_ptr<Layer> layer);

  /// Constructs a layer in place: mlp.emplace<Dense>(10, 20).
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Full forward pass over a batch (rows = samples). Returns a reference
  /// to the last layer's output buffer — valid until the next forward()
  /// through this network; copy it to keep values across calls.
  const math::Matrix& forward(const math::Matrix& input,
                              bool training = false);

  /// Backward pass; returns dLoss/dInput (a reference to the first
  /// layer's gradient buffer) and accumulates parameter gradients. Must
  /// follow a forward() with the same batch. `mode` drops what the caller
  /// does not read: kParamsOnly skips the first layer's dLoss/dInput (the
  /// result is then not to be read), kInputOnly leaves every parameter
  /// gradient untouched.
  const math::Matrix& backward(const math::Matrix& grad_output,
                               BackwardMode mode = BackwardMode::kFull);

  /// All trainable parameters in layer order.
  std::vector<Parameter*> parameters();

  /// Clears all accumulated gradients.
  void zero_grad();

  /// Re-randomizes all trainable layers.
  void init_weights(math::Rng& rng);

  /// Deep copy including current weights.
  Mlp clone() const;

  /// Total number of trainable scalars.
  std::size_t parameter_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace gansec::nn
