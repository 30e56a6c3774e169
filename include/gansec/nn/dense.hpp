// Fully connected layer with selectable weight initialization.
#pragma once

#include <cstddef>

#include "gansec/nn/layer.hpp"

namespace gansec::nn {

/// Weight initialization schemes. Xavier suits tanh/sigmoid stacks, He suits
/// ReLU-family stacks.
enum class InitScheme { kXavierUniform, kHeNormal };

class Dense : public Layer {
 public:
  /// Creates an `inputs -> outputs` affine layer with zero weights; call
  /// init_weights() (directly or via Mlp) before training.
  Dense(std::size_t inputs, std::size_t outputs,
        InitScheme scheme = InitScheme::kXavierUniform);

  const math::Matrix& forward(const math::Matrix& input,
                              bool training) override;
  const math::Matrix& backward(const math::Matrix& grad_output) override;
  const math::Matrix& backward(const math::Matrix& grad_output,
                               BackwardMode mode) override;
  std::vector<Parameter*> parameters() override;
  void init_weights(math::Rng& rng) override;
  std::string kind() const override { return "dense"; }
  std::unique_ptr<Layer> clone() const override;

  std::size_t inputs() const { return weight_.value.rows(); }
  std::size_t outputs() const { return weight_.value.cols(); }
  InitScheme scheme() const { return scheme_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  Parameter weight_;  // inputs x outputs
  Parameter bias_;    // 1 x outputs
  InitScheme scheme_;
  // Borrowed view of the last forward() input (no copy). The batch-size
  // cache lets backward() validate shapes without touching the pointer,
  // which may dangle if the caller passed a temporary.
  const math::Matrix* last_input_ = nullptr;
  std::size_t last_input_rows_ = 0;
  math::Matrix out_;      // forward result
  math::Matrix grad_in_;  // backward result
};

}  // namespace gansec::nn
