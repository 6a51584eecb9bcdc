// Layer interface for ADARNet's from-scratch CNN framework.
//
// Layers cache whatever they need from forward() so that backward() can
// run afterwards; training code calls forward -> loss -> backward and then
// lets an optimizer step over parameters(). Inference-only paths may call
// forward() with `train = false` to skip caching.
//
// Caching contract: layers cache activations via Tensor::share() (zero
// copy), never by value. Layers that can compute in place (elementwise
// ops) additionally override the rvalue forward/backward entry points so
// a Sequential chain moves tensors through them without allocating; such
// a layer mutates only the tensor handed to it, which by construction is
// the previous layer's *output* — safe, because layers share-cache their
// inputs (or, for elementwise ops, values the in-place update preserves).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace adarnet::nn {

/// A learnable parameter: value and gradient accumulator, same shape.
struct Parameter {
  Tensor value;
  Tensor grad;

  /// Zeroes the gradient accumulator.
  void zero_grad() { grad.fill(0.0f); }
};

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. When `train` is true, caches activations
  /// needed by backward().
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Move-aware forward: layers that can compute in place (e.g. ReLU)
  /// override this to consume `input`'s storage. Default defers to the
  /// const-ref overload.
  virtual Tensor forward(Tensor&& input, bool train) {
    return forward(static_cast<const Tensor&>(input), train);
  }

  /// Propagates `grad_output` (dL/d output) back, accumulating parameter
  /// gradients and returning dL/d input. Requires a prior forward(train).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Move-aware backward, same contract as the rvalue forward.
  virtual Tensor backward(Tensor&& grad_output) {
    return backward(static_cast<const Tensor&>(grad_output));
  }

  /// Learnable parameters of this layer (possibly empty). Const: the
  /// parameter *list* is part of the layer's immutable identity, while the
  /// parameters themselves stay mutable handles (optimizers step them
  /// through the returned pointers). Layers with parameters hold them
  /// behind an owning pointer so this is expressible without const_cast.
  [[nodiscard]] virtual std::vector<Parameter*> parameters() const {
    return {};
  }

  /// Human-readable layer name for summaries.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Activation bytes this layer's output occupies for the given input
  /// shape (used by the analytic memory model; see memory_model.hpp).
  [[nodiscard]] virtual std::int64_t output_bytes(int n, int c, int h,
                                                  int w) const = 0;

  /// Scratch (workspace-arena) bytes one forward draws for the given input
  /// shape — nonzero only for layers backed by the GEMM engine. The arena
  /// is shared, so the model takes the max over layers, not the sum.
  [[nodiscard]] virtual std::int64_t workspace_bytes(int, int, int,
                                                     int) const {
    return 0;
  }

  /// Output shape for a given input shape (c, h, w of one sample).
  virtual void output_shape(int& c, int& h, int& w) const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace adarnet::nn
