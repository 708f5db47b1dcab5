// Execution strategies: the paper's system under test and its baselines.
//
// A Strategy bundles (a) builder flags reproducing hand-optimizations the
// baseline frameworks ship, and (b) the pass pipeline configuration. The
// presets mirror Section 7:
//   * dgl_like()     — DGL: op-by-op kernels, built-in fused edge-softmax,
//                      hand-reorganized GAT module, stash everything.
//   * fusegnn_like() — fuseGNN: fuses edge-centric operator chains only,
//                      no reorganization theory, stash everything.
//   * ours()         — this paper: ReorgPass + unified-mapping FusionPass +
//                      RecomputePass.
//   * naive()        — no optimization at all (ablation baselines, Fig. 8/9).
// Ablation presets toggle individual techniques (Figs. 8–10).
//
// Compilation is a one-time phase: compile_model translates the Strategy
// into a PassManager pipeline (reorg → autodiff → recompute → fusion), runs
// it with per-pass timing, and — when graph dimensions are supplied — bakes
// the result into an immutable ExecutionPlan that N epochs or M concurrent
// requests execute without any re-analysis (see engine/plan.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/plan.h"
#include "graph/partition.h"
#include "ir/autodiff.h"
#include "ir/passes/fusion.h"
#include "ir/passes/pass_manager.h"
#include "ir/passes/recompute.h"
#include "ir/passes/reorg.h"
#include "ir/passes/rewriter.h"
#include "models/models.h"

namespace triad {

struct Strategy {
  std::string name;
  // Builder flags (consumed by the harness when constructing the model).
  bool prereorganized_gat = false;
  bool builtin_softmax = false;
  // Pass pipeline.
  bool reorg = false;
  /// Generic graph optimizer (CSE + DCE + simplify, see ir/passes/rewriter.h),
  /// run between autodiff and the memory passes. On by default; the baseline
  /// presets modelling other systems switch it off, and ours_no_optimize()
  /// exists as the ablation point.
  bool optimize = true;
  FusionMode fusion = FusionMode::None;
  WorkMapping mapping = WorkMapping::VertexBalanced;
  bool recompute = false;
  /// Bind specialized kernel cores to matched edge programs at plan-compile
  /// time (engine/specialize.h). On for every preset — output is bit-identical
  /// either way — with ours_no_specialize() as the ablation point.
  bool specialize = true;
};

Strategy dgl_like();
Strategy fusegnn_like();
Strategy ours();
Strategy naive();
Strategy ours_no_reorg();
Strategy ours_no_fusion();
Strategy ours_fusion_stash();  ///< fusion without recomputation (Fig. 10 middle)
Strategy ours_no_optimize();   ///< generic optimizer off (compile-cost ablation)
Strategy ours_no_specialize(); ///< interpreter-only edge programs (kernel-core ablation)

/// Compile-phase accounting: per-pass wall time (from the PassManager) plus
/// the ExecutionPlan build time. The benchmark harness reports this
/// separately from run time.
struct CompileStats {
  std::vector<PassInfo> passes;
  double pass_seconds = 0.0;
  double plan_seconds = 0.0;
  double total_seconds() const { return pass_seconds + plan_seconds; }
};

/// A model compiled under a strategy, ready to execute.
struct Compiled {
  IrGraph ir;  ///< the rewritten graph (kept for introspection/tests)
  /// Immutable execution artifact; set when compile_model was given graph
  /// dimensions. Shared by every PlanRunner/Trainer serving this model.
  std::shared_ptr<const ExecutionPlan> plan;
  /// Placement artifact; set when compile_model was asked to shard. Trainers
  /// built from this model execute fused kernels shard-parallel.
  std::shared_ptr<const Partitioning> partition;
  CompileStats stats;
  int features = -1;
  int pseudo = -1;
  int output = -1;
  int seed = -1;  ///< gradient seed Input (training only)
  std::vector<int> params;
  std::vector<int> param_grads;  ///< aligned with params (training only)
  std::vector<Tensor> init;      ///< initial parameter values
};

/// Applies the strategy's pass pipeline to a freshly built model.
/// `training` appends the backward pass (autodiff) between reorg and the
/// memory passes, exactly the pipeline order the paper's design implies.
/// When `num_vertices`/`num_edges` are supplied (>= 0) the result also
/// carries a compiled ExecutionPlan for that graph shape. A non-null
/// `partition` additionally bakes the per-shard schedule into the plan (the
/// partitioning step is recorded in the compile report like a pass).
Compiled compile_model(ModelGraph model, const Strategy& s, bool training,
                       std::int64_t num_vertices = -1,
                       std::int64_t num_edges = -1,
                       std::shared_ptr<const Partitioning> partition = nullptr);
/// Convenience overload: compile against a concrete graph (always plans).
/// `num_shards` > 0 builds a partitioning for the graph and compiles a
/// sharded plan whose fused kernels run one pool task per shard. Note the
/// K = 1 case is the *serial single-shard baseline* (one task, no
/// intra-shard work stealing) — the reference point for shard-scaling
/// measurements — while 0 keeps unsharded fine-grained chunked parallelism.
Compiled compile_model(ModelGraph model, const Strategy& s, bool training,
                       const Graph& graph, int num_shards = 0,
                       PartitionStrategy strategy = PartitionStrategy::DegreeBalanced);

}  // namespace triad
