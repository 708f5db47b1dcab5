// Tests for propagation-postponed operator reorganization (Section 4).
#include <gtest/gtest.h>

#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/passes/reorg.h"
#include "support/counters.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(13);
  return gen::erdos_renyi(12, 60, rng);
}

/// Runs `ir` and its reorganized twin with identical bindings and compares
/// outputs; returns (flops_before, flops_after).
std::pair<std::uint64_t, std::uint64_t> check_equivalent(const Graph& g,
                                                         IrGraph ir,
                                                         int rewrites_expected) {
  ReorgStats stats;
  IrGraph opt = reorg_pass(ir, &stats);
  EXPECT_EQ(stats.rewrites, rewrites_expected);

  Rng rng(99);
  std::uint64_t flops[2];
  Tensor outs[2];
  const IrGraph* graphs[2] = {&ir, &opt};
  for (int i = 0; i < 2; ++i) {
    PlanRunner ex(g, ExecutionPlan::compile_shared(*graphs[i], g.num_vertices(),
                                                   g.num_edges()));
    Rng local(99);  // identical bindings for both
    for (const Node& n : graphs[i]->nodes()) {
      if (n.kind == OpKind::Input || n.kind == OpKind::Param) {
        const std::int64_t rows = n.space == Space::Vertex ? g.num_vertices()
                                  : n.space == Space::Edge ? g.num_edges()
                                                           : n.rows;
        ex.bind(n.id, Tensor::randn(rows, n.cols, local));
      }
    }
    CounterScope scope;
    ex.run();
    flops[i] = scope.delta().flops;
    outs[i] = ex.result(graphs[i]->outputs[0]).clone();
  }
  EXPECT_LT(ops::max_abs_diff(outs[0], outs[1]), 1e-3f)
      << "reorg changed the semantics";
  (void)rng;
  return {flops[0], flops[1]};
}

TEST(Reorg, SubUVLinearRewritten) {
  // EdgeConv pattern: Linear(u_sub_v(h)) -> u_sub_v(Linear(h)).
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 8, "x");
  const int w = ir.param(8, 16, "theta");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int p = ir.linear(e, w);
  const int out = ir.gather(ReduceFn::Sum, p);
  ir.mark_output(out);
  const auto [before, after] = check_equivalent(test_graph(), std::move(ir), 1);
  // |E| = 60 > |V| = 12, so the expensive Linear flops must drop.
  EXPECT_LT(after, before);
}

TEST(Reorg, ConcatLinearSplitsWeight) {
  // GAT pattern: Linear(u_concat_v(h,h), a) -> u_add_v(Linear_l, Linear_r).
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int a = ir.param(8, 2, "a");
  const int cat = ir.scatter(ScatterFn::ConcatUV, x, x);
  const int s = ir.linear(cat, a);
  const int out = ir.gather(ReduceFn::Sum, s);
  ir.mark_output(out);
  const auto [before, after] = check_equivalent(test_graph(), std::move(ir), 1);
  EXPECT_LT(after, before);
}

TEST(Reorg, CopyULinearCommutes) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 6, "x");
  const int w = ir.param(6, 6, "w");
  const int e = ir.scatter(ScatterFn::CopyU, x, -1);
  const int p = ir.linear(e, w);
  const int out = ir.gather(ReduceFn::Sum, p);
  ir.mark_output(out);
  check_equivalent(test_graph(), std::move(ir), 1);
}

TEST(Reorg, AddUVDifferentOperands) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int y = ir.input(Space::Vertex, 0, 4, "y");
  const int w = ir.param(4, 4, "w");
  const int e = ir.scatter(ScatterFn::AddUV, x, y);
  const int p = ir.linear(e, w);
  const int out = ir.gather(ReduceFn::Sum, p);
  ir.mark_output(out);
  // Two distinct operand tensors -> two Linears, still one rewrite.
  check_equivalent(test_graph(), std::move(ir), 1);
}

TEST(Reorg, MulUVNotRewritten) {
  // Linear does not distribute over elementwise product.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 4, "w");
  const int e = ir.scatter(ScatterFn::MulUV, x, x);
  const int p = ir.linear(e, w);
  const int out = ir.gather(ReduceFn::Sum, p);
  ir.mark_output(out);
  check_equivalent(test_graph(), std::move(ir), 0);
}

TEST(Reorg, MultiConsumerScatterNotRewritten) {
  // The scatter output is also consumed elsewhere -> must stay materialized.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 4, "w");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int p = ir.linear(e, w);
  const int other = ir.apply_unary(ApplyFn::ReLU, e);
  const int s = ir.gather(ReduceFn::Sum, p);
  const int t = ir.gather(ReduceFn::Sum, other);
  const int out = ir.apply_binary(ApplyFn::Add, s, t);
  ir.mark_output(out);
  check_equivalent(test_graph(), std::move(ir), 0);
}

TEST(Reorg, LightweightApplyAfterScatterUntouched) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int e = ir.scatter(ScatterFn::AddUV, x, x);
  const int r = ir.apply_unary(ApplyFn::ReLU, e);
  const int out = ir.gather(ReduceFn::Sum, r);
  ir.mark_output(out);
  check_equivalent(test_graph(), std::move(ir), 0);
}

TEST(Reorg, RunsBeforeAutodiffOnly) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  ir.mark_output(x);
  ir.backward_start = 0;
  EXPECT_THROW(reorg_pass(ir), Error);
}

TEST(Reorg, ChainedLayersAllRewritten) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  int h = x;
  for (int l = 0; l < 3; ++l) {
    std::string name = "w";  // not "w" + ...: GCC 12 -Wrestrict false positive
    name += std::to_string(l);
    const int w = ir.param(4, 4, name);
    const int e = ir.scatter(ScatterFn::SubUV, h, h);
    const int p = ir.linear(e, w);
    h = ir.gather(ReduceFn::Max, p);
  }
  ir.mark_output(h);
  check_equivalent(test_graph(), std::move(ir), 3);
}

}  // namespace
}  // namespace triad
