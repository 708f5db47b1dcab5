/// \file
/// ParamServer: parameter state and the optimizer, split from the worker.
///
/// Dorylus-style decomposition of training state: the Trainer (graph worker)
/// computes gradients; the ParamServer owns the authoritative weight tensors
/// and the Optimizer (including its momentum/Adam state) and is the only
/// component that mutates them. Each training step the worker push_grads()
/// and the server applies the update straight from the worker's gradient
/// tensors; the worker then pull_params() fresh weights back into its bound
/// slots. The float operations and their order are exactly an in-place
/// update of the worker's weights, so training trajectories are bit-identical
/// to one.
///
/// Traffic is charged analytically, as the message protocol a cross-process
/// server would run: one message per gradient up, then a zero-byte pull
/// request and one reply per parameter down — 2P+1 messages per step for P
/// parameters, each sized as its tensor's bytes.
#pragma once

#include <memory>
#include <vector>

#include "models/optim.h"
#include "tensor/tensor.h"

namespace triad::transport {

/// Owns parameters + optimizer; serves push_grads / pull_params in process.
class ParamServer {
 public:
  /// Takes ownership of the authoritative parameter tensors (typically fresh
  /// clones of the model's initial weights).
  explicit ParamServer(std::vector<Tensor> params);

  /// Installs the optimizer and attaches it to the server's parameters —
  /// exactly once; subsequent steps use it instead of plain SGD.
  void set_optimizer(std::unique_ptr<Optimizer> opt);

  /// Worker -> server: applies the update (optimizer step, or plain SGD with
  /// `lr` when no optimizer is installed) from `grads`, aligned with
  /// params(). Charges one message per gradient to transport_msgs and the
  /// gradients' bytes to transport_bytes and param_push_bytes of the calling
  /// thread's PerfCounters.
  void push_grads(const std::vector<const Tensor*>& grads, float lr);

  /// Server -> worker: copies each server parameter into `dst` (shape-
  /// aligned with params()). Charges the request plus one reply per
  /// parameter to transport_msgs and the parameters' bytes to
  /// transport_bytes and param_pull_bytes.
  void pull_params(std::vector<Tensor>& dst);

  const std::vector<Tensor>& params() const { return params_; }
  /// Times attach() ran on the installed optimizer(s) — tests assert 1.
  int attach_calls() const { return attach_calls_; }

 private:
  std::vector<Tensor> params_;  ///< authoritative weights, server-owned
  std::unique_ptr<Optimizer> optimizer_;
  int attach_calls_ = 0;
};

}  // namespace triad::transport
