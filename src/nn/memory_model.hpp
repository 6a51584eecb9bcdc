// Analytic activation-memory model for inference (Fig 1, Table 2).
//
// For a network run layer-by-layer, the inference working set is bounded by
// input bytes + the two largest consecutive activations (the framework holds
// one layer's input and output simultaneously); summing all layer outputs
// gives the "keep everything" figure frameworks exhibit with graph retention.
// Both models are reported; the benchmarks use the conservative sum model,
// which matches how TF/PyTorch hold activations during a default forward and
// is validated against the tensor allocator's measured peak in tests.
//
// The model stays this framework-equivalent, whole-batch, layer-by-layer
// figure even where this code runs smaller: AdarNet::infer pushes each bin
// through the decoder in cache-sized slices, so its measured peak holds one
// slice's activations, not the batch's. The workspace term is the GEMM
// engine's per-sample scratch (pack buffers; the forward builds no im2col
// panel).
#pragma once

#include "nn/sequential.hpp"

namespace adarnet::nn {

/// Per-inference memory figures for one input shape, in bytes.
struct MemoryEstimate {
  std::int64_t input_bytes = 0;       ///< the input tensor itself
  std::int64_t sum_activations = 0;   ///< all layer outputs summed
  std::int64_t peak_pairwise = 0;     ///< max over layers of (in + out)
  std::int64_t parameter_bytes = 0;   ///< weights + biases
  std::int64_t workspace_bytes = 0;   ///< GEMM arena of one forward: max
                                      ///< over layers (the arena is shared
                                      ///< and reused, not per-layer)

  /// The figure the benchmarks report: input + all activations + weights
  /// + convolution workspace.
  [[nodiscard]] std::int64_t total() const {
    return input_bytes + sum_activations + parameter_bytes +
           workspace_bytes;
  }
};

/// Walks the network symbolically for a batch of (n, c, h, w) inputs.
MemoryEstimate estimate_memory(const Sequential& net, int n, int c, int h,
                               int w);

/// Largest batch size whose estimated total fits in `budget_bytes`
/// (at least 0; the paper's Fig 1 uses a 16 GB accelerator budget).
int max_batch_size(const Sequential& net, int c, int h, int w,
                   std::int64_t budget_bytes);

}  // namespace adarnet::nn
