// 1-D batch normalization (Ioffe & Szegedy 2015).
//
// Normalizes each feature over the batch at train time (tracking running
// statistics for inference), then applies a learned affine transform.
// Available as an optional generator stabilizer in the CGAN topology.
#pragma once

#include "gansec/nn/layer.hpp"

namespace gansec::nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t features, float momentum = 0.1F,
                     float eps = 1e-5F);

  const math::Matrix& forward(const math::Matrix& input,
                              bool training) override;
  const math::Matrix& backward(const math::Matrix& grad_output) override;
  const math::Matrix& backward(const math::Matrix& grad_output,
                               BackwardMode mode) override;
  std::vector<Parameter*> parameters() override;
  void init_weights(math::Rng& rng) override;
  std::string kind() const override { return "batch_norm"; }
  std::unique_ptr<Layer> clone() const override;

  std::size_t features() const { return gamma_.value.cols(); }
  float momentum() const { return momentum_; }
  float eps() const { return eps_; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Parameter& gamma() const { return gamma_; }
  const Parameter& beta() const { return beta_; }
  math::Matrix& running_mean() { return running_mean_; }
  math::Matrix& running_var() { return running_var_; }
  const math::Matrix& running_mean() const { return running_mean_; }
  const math::Matrix& running_var() const { return running_var_; }

 private:
  Parameter gamma_;  // 1 x features, scale
  Parameter beta_;   // 1 x features, shift
  float momentum_;
  float eps_;
  math::Matrix running_mean_;  // 1 x features
  math::Matrix running_var_;   // 1 x features

  // Forward cache for backward, plus reusable result buffers. The input
  // itself is never needed by backward (xhat carries everything), so it is
  // not copied.
  math::Matrix last_xhat_;
  math::Matrix last_mean_;
  math::Matrix last_var_;
  bool last_training_ = false;
  math::Matrix out_;
  math::Matrix grad_in_;
};

}  // namespace gansec::nn
