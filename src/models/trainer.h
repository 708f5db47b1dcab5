// Training / inference harness over a Compiled model.
//
// Full-batch training with softmax cross-entropy and SGD, the regime the
// paper's end-to-end numbers measure. The Trainer is pure run-time: it holds
// a PlanRunner over the model's immutable ExecutionPlan plus the parameter
// tensors, so constructing N trainers (or running M epochs) off one shared
// Compiled never re-runs passes or liveness analysis. Per-step metrics (wall
// time, counters delta, peak memory) feed the benchmark harness directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/strategy.h"
#include "engine/plan.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "models/optim.h"
#include "support/counters.h"
#include "tensor/tensor.h"

namespace triad {

namespace transport {
class ParamServer;
}  // namespace transport

struct StepMetrics {
  float loss = 0.f;
  double seconds = 0.0;
  PerfCounters counters;       ///< delta for this step
  std::size_t peak_bytes = 0;  ///< pool peak observed during the step
};

class Trainer {
 public:
  /// Shares a compile artifact (e.g. out of the PlanCache): binds features
  /// (and pseudo-coords when the model uses them) and clones the initial
  /// parameters into pool-tracked weight tensors. No compilation happens
  /// here when the model carries a plan.
  Trainer(std::shared_ptr<const Compiled> model, const Graph& graph,
          Tensor features, Tensor pseudo = {},
          MemoryPool* pool = &global_pool_mem());

  /// Owning convenience: wraps `model` into a shared artifact.
  Trainer(Compiled model, const Graph& graph, Tensor features,
          Tensor pseudo = {}, MemoryPool* pool = &global_pool_mem());
  ~Trainer();  ///< out of line: ParamServer is incomplete here

  /// One full-batch training step (forward + loss + backward + SGD update).
  StepMetrics train_step(const IntTensor& labels, float lr = 1e-2f);

  /// Installs an optimizer on the ParamServer; subsequent train_step calls
  /// use it instead of the plain-SGD default (the lr argument is then
  /// ignored).
  void set_optimizer(std::unique_ptr<Optimizer> opt);

  /// Shards fused-kernel execution across the partitioning's owned-vertex
  /// ranges (one pool task per shard, deterministic boundary combine —
  /// outputs stay bit-identical to unsharded training). Called automatically
  /// at construction when the Compiled model carries a partition; call with
  /// nullptr to fall back to unsharded execution. `--shards N` in the bench
  /// harness lands here.
  void enable_sharding(std::shared_ptr<const Partitioning> part);
  const Partitioning* partitioning() const { return partition_.get(); }

  /// Forward only; returns loss (no update).
  StepMetrics forward(const IntTensor& labels);

  /// Classification accuracy of the current parameters.
  float evaluate(const IntTensor& labels);

  const Tensor& logits() const { return runner_.result(model_->output); }
  PlanRunner& runner() { return runner_; }
  const Compiled& model() const { return *model_; }

  /// Param-server seam (src/transport/param_server.h). Non-null whenever
  /// the model has parameter gradients: the server owns the authoritative
  /// weights and the optimizer, and train_step updates the weights by
  /// push_grads/pull_params. Null for inference-only or parameterless
  /// models.
  transport::ParamServer* param_server() { return param_server_.get(); }

 private:
  std::shared_ptr<const Compiled> model_;
  PlanRunner runner_;
  std::shared_ptr<const Partitioning> partition_;  // null = unsharded
  std::vector<Tensor> weights_;  // persistent parameter tensors
  std::unique_ptr<transport::ParamServer> param_server_;
};

}  // namespace triad
