// Sequential layer container with forward/backward and summaries.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace adarnet::nn {

/// Owns an ordered list of layers and runs them as one network.
class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer (takes ownership). Returns *this for chaining.
  Sequential& add(LayerPtr layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  /// Convenience: construct the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  /// Runs all layers in order. Intermediate tensors are moved through the
  /// chain, so in-place layers (ReLU) reuse their input's storage and no
  /// layer deep-copies an activation (caching goes through
  /// Tensor::share()).
  Tensor forward(const Tensor& input, bool train = false) {
    if (layers_.empty()) return input;
    Tensor x = layers_.front()->forward(input, train);
    for (std::size_t i = 1; i < layers_.size(); ++i) {
      x = layers_[i]->forward(std::move(x), train);
    }
    return x;
  }

  /// Runs backward through all layers in reverse, returning dL/d input.
  /// The gradient tensor is moved through the chain like forward().
  Tensor backward(const Tensor& grad_output) {
    if (layers_.empty()) return grad_output;
    Tensor g = layers_.back()->backward(grad_output);
    for (auto it = std::next(layers_.rbegin()); it != layers_.rend(); ++it) {
      g = (*it)->backward(std::move(g));
    }
    return g;
  }

  /// All learnable parameters across layers (shallow const, as in Layer).
  [[nodiscard]] std::vector<Parameter*> parameters() const {
    std::vector<Parameter*> out;
    for (const auto& layer : layers_) {
      for (Parameter* p : layer->parameters()) out.push_back(p);
    }
    return out;
  }

  /// Zeroes all parameter gradients.
  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  /// Total number of learnable scalars.
  [[nodiscard]] std::size_t parameter_count() const {
    std::size_t total = 0;
    for (Parameter* p : parameters()) total += p->value.numel();
    return total;
  }

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// One line per layer, for logs and docs.
  [[nodiscard]] std::string summary() const {
    std::string out;
    for (const auto& layer : layers_) {
      out += layer->name();
      out += '\n';
    }
    return out;
  }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace adarnet::nn
