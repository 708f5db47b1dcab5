// Tests for intermediate-data recomputation (Section 6): gradients unchanged,
// O(|E|) stash eliminated, checkpoints retained, cost criterion respected.
#include <gtest/gtest.h>

#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/autodiff.h"
#include "ir/passes/fusion.h"
#include "ir/passes/recompute.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(33);
  return gen::erdos_renyi(14, 80, rng);
}

/// Builds a training graph (forward + backward of a scalar-seeded loss),
/// executes with and without recompute_pass, and compares all outputs.
void check_grads_unchanged(const Graph& g, IrGraph ir, RecomputeStats* stats,
                           std::size_t* peak_plain = nullptr,
                           std::size_t* peak_rc = nullptr) {
  IrGraph rc = recompute_pass(ir, {}, stats);

  const IrGraph* graphs[2] = {&ir, &rc};
  std::vector<Tensor> outs[2];
  for (int i = 0; i < 2; ++i) {
    MemoryPool pool;
    PlanRunner ex(g, ExecutionPlan::compile_shared(*graphs[i], g.num_vertices(),
                                                   g.num_edges()),
                  &pool);
    Rng local(55);
    for (const Node& n : graphs[i]->nodes()) {
      if (n.kind == OpKind::Input || n.kind == OpKind::Param) {
        const std::int64_t rows = n.space == Space::Vertex ? g.num_vertices()
                                  : n.space == Space::Edge ? g.num_edges()
                                                           : n.rows;
        ex.bind(n.id, Tensor::randn(rows, n.cols, local, 1.f, MemTag::kInput,
                                    &pool));
      }
    }
    ex.run();
    for (int o : graphs[i]->outputs) outs[i].push_back(ex.result(o).clone());
    if (i == 0 && peak_plain != nullptr) *peak_plain = pool.peak_bytes();
    if (i == 1 && peak_rc != nullptr) *peak_rc = pool.peak_bytes();
  }
  ASSERT_EQ(outs[0].size(), outs[1].size());
  for (std::size_t k = 0; k < outs[0].size(); ++k) {
    EXPECT_LT(ops::max_abs_diff(outs[0][k], outs[1][k]), 2e-3f)
        << "output " << k << " changed by recomputation";
  }
}

/// Forward: exp(u+v) summed — the Exp output is an O(|E|) stash candidate.
IrGraph exp_chain_training() {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 4, "w");
  const int h = ir.linear(x, w);
  const int s = ir.scatter(ScatterFn::AddUV, h, h);
  const int e = ir.apply_unary(ApplyFn::Exp, s);
  const int out = ir.gather(ReduceFn::Sum, e);
  ir.mark_output(out);
  BackwardResult bwd = build_backward(ir, out);
  for (auto& [p, gr] : bwd.param_grads) ir.mark_output(gr);
  return ir;
}

TEST(Recompute, GradsUnchangedAndEdgeStashEliminated) {
  RecomputeStats stats;
  check_grads_unchanged(test_graph(), exp_chain_training(), &stats);
  EXPECT_GE(stats.recomputed_nodes, 1);
  EXPECT_GE(stats.cloned_nodes, 1);
}

TEST(Recompute, RequiresBackwardPass) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  ir.mark_output(x);
  EXPECT_THROW(recompute_pass(ir), Error);
}

TEST(Recompute, ExpensiveProducerNotRecomputed) {
  // Edge tensor produced by a Linear: CompCost/MemCost >> O(1), must stash.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 4, "w");
  const int e = ir.scatter(ScatterFn::MulUV, x, x);  // MulUV blocks reorg too
  const int p = ir.linear(e, w);
  const int act = ir.apply_unary(ApplyFn::Exp, p);
  const int out = ir.gather(ReduceFn::Sum, act);
  ir.mark_output(out);
  BackwardResult bwd = build_backward(ir, out);
  for (auto& [pp, gr] : bwd.param_grads) ir.mark_output(gr);

  RecomputeStats stats;
  // `act` (exp of a Linear output) is recomputable only if its whole producer
  // chain is lightweight — the Linear breaks it, so `act` and `p` must stay
  // stashed. The MulUV scatter itself IS recomputable from its vertex inputs
  // (cost 1), so exactly one node is recomputed.
  IrGraph rc = recompute_pass(ir, {}, &stats);
  EXPECT_EQ(stats.recomputed_nodes, 1);
  EXPECT_EQ(stats.cloned_nodes, 1);
  int exp_nodes = 0;
  for (const Node& n : rc.nodes()) {
    exp_nodes += n.kind == OpKind::Apply && n.afn == ApplyFn::Exp;
  }
  EXPECT_EQ(exp_nodes, 1) << "Exp must not be cloned (blocked by Linear)";
}

TEST(Recompute, CostBudgetRespected) {
  // A deep lightweight chain: eligible at a large budget, blocked at 1.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int w = ir.param(2, 2, "w");
  const int h = ir.linear(x, w);
  int e = ir.scatter(ScatterFn::AddUV, h, h);
  for (int i = 0; i < 4; ++i) e = ir.apply_unary(ApplyFn::Neg, e);
  const int ex = ir.apply_unary(ApplyFn::Exp, e);
  const int out = ir.gather(ReduceFn::Sum, ex);
  ir.mark_output(out);
  BackwardResult bwd = build_backward(ir, out);
  for (auto& [p, gr] : bwd.param_grads) ir.mark_output(gr);

  RecomputeOptions tight;
  tight.max_ops_per_element = 1;
  RecomputeStats s1, s2;
  recompute_pass(ir, tight, &s1);
  EXPECT_EQ(s1.recomputed_nodes, 0);
  RecomputeOptions loose;
  loose.max_ops_per_element = 16;
  recompute_pass(ir, loose, &s2);
  EXPECT_GE(s2.recomputed_nodes, 1);
}

TEST(Recompute, SoftmaxKeepsVertexCheckpoints) {
  // Expanded edge-softmax: after recompute, max and denominator (vertex-space,
  // O(|V|)) must still be produced and stashed; the O(|E|) exp/softmax edge
  // tensors are recomputed — exactly the paper's GAT example.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int w = ir.param(2, 1, "w");
  const int h = ir.linear(x, w);
  const int s = ir.scatter(ScatterFn::AddUV, h, h);
  const int lr = ir.apply_unary(ApplyFn::LeakyReLU, s, 0.2f);
  const int mx = ir.gather(ReduceFn::Max, lr);
  const int mxe = ir.scatter(ScatterFn::CopyV, mx, -1);
  const int sh = ir.apply_binary(ApplyFn::Sub, lr, mxe);
  const int e = ir.apply_unary(ApplyFn::Exp, sh);
  const int dn = ir.gather(ReduceFn::Sum, e);
  const int dne = ir.scatter(ScatterFn::CopyV, dn, -1);
  const int sm = ir.apply_binary(ApplyFn::Div, e, dne);
  const int out = ir.gather(ReduceFn::Sum, sm);
  ir.mark_output(out);
  BackwardResult bwd = build_backward(ir, out);
  for (auto& [p, gr] : bwd.param_grads) ir.mark_output(gr);

  RecomputeStats stats;
  check_grads_unchanged(test_graph(), ir, &stats);
  EXPECT_GE(stats.recomputed_nodes, 2);  // at least exp + softmax weights
}

TEST(Recompute, CombinedWithFusionEliminatesEdgeStash) {
  // The fusion-recomputation combo: peak memory with fusion+recompute is
  // lower than fusion+stash because no O(|E|) tensor survives the forward.
  Graph g = test_graph();
  IrGraph ir = exp_chain_training();

  auto measure = [&](const IrGraph& graph) {
    MemoryPool pool;
    PlanRunner ex(g, ExecutionPlan::compile_shared(graph, g.num_vertices(),
                                                   g.num_edges()),
                  &pool);
    Rng local(66);
    for (const Node& n : graph.nodes()) {
      if (n.kind == OpKind::Input || n.kind == OpKind::Param) {
        const std::int64_t rows = n.space == Space::Vertex ? g.num_vertices()
                                  : n.space == Space::Edge ? g.num_edges()
                                                           : n.rows;
        ex.bind(n.id, Tensor::randn(rows, n.cols, local, 1.f, MemTag::kInput,
                                    &pool));
      }
    }
    ex.run();
    return pool.peak_breakdown(MemTag::kStash);
  };

  IrGraph fused_stash = fusion_pass(ir);
  IrGraph fused_rc = fusion_pass(recompute_pass(ir));
  const std::size_t stash_with = measure(fused_stash);
  const std::size_t stash_without = measure(fused_rc);
  // With recompute, the stash holds only O(|V|) tensors.
  EXPECT_LT(stash_without, stash_with);
}

TEST(Recompute, GaussianWeightsRecomputed) {
  IrGraph ir;
  const int pseudo = ir.input(Space::Edge, 0, 2, "pseudo");
  const int mu = ir.param(2, 2, "mu");
  const int sigma = ir.param(2, 2, "sigma");
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 8, "w");
  const int hw = ir.linear(x, w);
  const int gw = ir.special(SpecialFn::Gaussian, {pseudo, mu, sigma}, 0, 2,
                            Space::Edge);
  const int src = ir.scatter(ScatterFn::CopyU, hw, -1);
  const int weighted = ir.apply_binary(ApplyFn::MulHead, src, gw, "", 2);
  const int agg = ir.gather(ReduceFn::Sum, weighted);
  ir.mark_output(agg);
  BackwardResult bwd = build_backward(ir, agg);
  for (auto& [p, gr] : bwd.param_grads) ir.mark_output(gr);

  RecomputeStats stats;
  check_grads_unchanged(test_graph(), ir, &stats);
  EXPECT_GE(stats.recomputed_nodes, 1);
}

}  // namespace
}  // namespace triad
