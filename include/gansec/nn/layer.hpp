// Layer abstraction for the minimal deep-learning stack.
//
// GAN-Sec's CGAN (Section III, Algorithm 2 of the paper) is built from
// multilayer perceptrons. Layers implement explicit forward/backward passes
// over batches (rows = samples). Trainable layers expose their Parameters so
// optimizers can update them in place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gansec/math/matrix.hpp"
#include "gansec/math/rng.hpp"

namespace gansec::nn {

/// What a backward pass must produce. The reduced modes skip work whose
/// result nobody reads; whatever they do produce is bit-identical to the
/// full pass.
enum class BackwardMode {
  kFull,        ///< parameter gradients and dLoss/dInput
  kParamsOnly,  ///< parameter gradients; dLoss/dInput is not computed
  kInputOnly,   ///< dLoss/dInput; Parameter::grad is left untouched
};

/// A trainable tensor with its accumulated gradient.
struct Parameter {
  std::string name;
  math::Matrix value;
  math::Matrix grad;

  Parameter(std::string param_name, math::Matrix initial)
      : name(std::move(param_name)),
        value(std::move(initial)),
        grad(value.rows(), value.cols(), 0.0F) {}

  /// Zeroes the gradient in place, reusing its existing storage.
  void zero_grad() {
    grad.resize(value.rows(), value.cols());
    grad.fill(0.0F);
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a batch (rows = samples). `training`
  /// toggles train-time behaviour (e.g. dropout masking).
  ///
  /// Returns a reference to a buffer owned by the layer (or, for pass-through
  /// layers like eval-mode Dropout, to `input` itself). The reference stays
  /// valid until the next forward() call on this layer; copy it if you need
  /// the values across calls. Layers may also keep a borrowed pointer to
  /// `input` until the matching backward() — keep the input alive (and
  /// unmodified) across the forward/backward pair.
  virtual const math::Matrix& forward(const math::Matrix& input,
                                      bool training) = 0;

  /// Propagates the loss gradient. `grad_output` is dLoss/dOutput for the
  /// most recent forward() batch; returns dLoss/dInput as a reference to a
  /// layer-owned buffer (valid until the next backward() call). Trainable
  /// layers accumulate into their Parameter::grad as a side effect.
  virtual const math::Matrix& backward(const math::Matrix& grad_output) = 0;

  /// backward() reduced to what `mode` asks for. In kParamsOnly the
  /// returned matrix is not a gradient (empty for a layer that skipped
  /// it). Layers without parameters have nothing to skip and run the full
  /// pass, which is what this default does.
  virtual const math::Matrix& backward(const math::Matrix& grad_output,
                                       BackwardMode /*mode*/) {
    return backward(grad_output);
  }

  /// Trainable parameters (empty for activations).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Re-randomizes trainable state; no-op for stateless layers.
  virtual void init_weights(math::Rng& /*rng*/) {}

  /// Stable identifier used by the serializer ("dense", "relu", ...).
  virtual std::string kind() const = 0;

  /// Deep copy (used to checkpoint the generator during training).
  virtual std::unique_ptr<Layer> clone() const = 0;
};

}  // namespace gansec::nn
