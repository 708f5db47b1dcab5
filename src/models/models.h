// GNN model configurations and the built-model record.
//
// The api:: modules (api/models.h) build each model's *paper-order* forward
// IR (Figure 3(a) / Figure 12 of the appendix) from these configs —
// `api::Gat(cfg).build(rng)` returns a ModelGraph. Flags reproduce the
// hand-optimizations the baselines ship (DGL's pre-reorganized GAT module,
// built-in fused edge-softmax).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "ir/graph.h"
#include "tensor/tensor.h"

namespace triad {

/// A forward model graph plus its initialized parameters.
struct ModelGraph {
  IrGraph ir;
  int features = -1;  ///< vertex-feature Input node
  int pseudo = -1;    ///< edge pseudo-coordinate Input node (MoNet only)
  int output = -1;    ///< logits node
  std::vector<int> params;
  std::vector<Tensor> init;  ///< aligned with `params`
};

struct GcnConfig {
  std::int64_t in_dim = 16;
  std::vector<std::int64_t> hidden = {16};
  std::int64_t num_classes = 4;
};

struct GatConfig {
  std::int64_t in_dim = 16;
  std::int64_t hidden = 128;   ///< per-head feature width
  std::int64_t heads = 1;
  std::int64_t layers = 2;
  std::int64_t num_classes = 4;
  float negative_slope = 0.2f;
  /// Build the attention projection already split into aL/aR vertex linears
  /// (DGL's GATConv ships this hand-reorganized form). When false the builder
  /// emits the paper-order ConcatUV -> Linear -> LeakyReLU chain that
  /// ReorgPass is expected to rewrite.
  bool prereorganized = false;
  /// Use the built-in fused EdgeSoftmax special op (as DGL/fuseGNN do)
  /// instead of the expanded Max/Exp/Sum/Div primitive chain.
  bool builtin_softmax = false;
  /// When false, the last layer keeps (heads, hidden) instead of collapsing
  /// to a single-head num_classes output — the forward-only ablation shape
  /// of §7.3 ("head=4 with feature dimension=64").
  bool classify_last = true;
};

struct EdgeConvConfig {
  std::int64_t in_dim = 3;
  std::vector<std::int64_t> hidden = {64, 64, 128, 256};
  std::int64_t num_classes = 40;
  float negative_slope = 0.2f;
  /// When false, omit the classifier head (forward-only ablations).
  bool classify = true;
};

struct MoNetConfig {
  std::int64_t in_dim = 16;
  std::int64_t hidden = 16;
  std::int64_t layers = 2;
  std::int64_t kernels = 2;     ///< gaussian mixture size K
  std::int64_t pseudo_dim = 1;  ///< r
  std::int64_t num_classes = 4;
  bool classify_last = true;    ///< as in GatConfig
};

/// Degree-based pseudo-coordinates for MoNet: per edge (u→v),
/// [1/√deg(u), 1/√deg(v), 1, …] truncated/padded to `dim` columns.
Tensor make_pseudo_coords(const Graph& g, std::int64_t dim);

}  // namespace triad
