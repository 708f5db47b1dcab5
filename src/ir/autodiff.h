// Backward-graph construction (Section 2.2 / Appendix B of the paper).
//
// The paper proves the backward pass of the operator set stays inside the
// set:
//   * Gather  -> Scatter (+ ApplyEdge),
//   * Scatter -> Gather (+ ApplyVertex),
//   * Apply-  -> two Apply- (input grad, weight grad).
// build_backward appends those nodes to the same IrGraph (so one PlanRunner run
// performs a full training step) and records which node holds each
// parameter's gradient. IrGraph::backward_start marks the boundary — every
// forward tensor consumed past it is precisely the "intermediate data stashed
// for backward" the paper's memory analysis counts.
#pragma once

#include <unordered_map>
#include <vector>

#include "ir/graph.h"

namespace triad {

struct BackwardResult {
  /// Gradient node for each forward node that received one.
  std::unordered_map<int, int> grad_of;
  /// (param node, grad node) for every Param reached by gradients.
  std::vector<std::pair<int, int>> param_grads;
  /// Input node the caller seeds with dLoss/dOutput before executing.
  int seed_grad = -1;
};

/// Appends the backward pass of `output` to `g`. Gradients are produced for
/// every Param (and any Input with requires_grad). Must be called before any
/// fusion (Fused nodes are rejected — the pass pipeline runs autodiff first).
BackwardResult build_backward(IrGraph& g, int output);

}  // namespace triad
