// Tests for the gSpMM/gSDDMM compatibility layer and the DOT exporter —
// the Section-2.1 expressiveness comparison made executable.
#include <gtest/gtest.h>

#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/dgl_compat.h"
#include "ir/dot.h"
#include "ir/passes/fusion.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(61);
  return gen::erdos_renyi(12, 70, rng);
}

TEST(DglCompat, GsddmmMatchesScatterKernels) {
  Graph g = test_graph();
  IrGraph ir;
  const int a = ir.input(Space::Vertex, 0, 4, "a");
  const int b = ir.input(Space::Vertex, 0, 4, "b");
  const int add = dgl::gsddmm(ir, dgl::BinaryOp::Add, a, b);
  const int sub = dgl::gsddmm(ir, dgl::BinaryOp::Sub, a, b);
  const int mul = dgl::gsddmm(ir, dgl::BinaryOp::Mul, a, b);
  ir.mark_output(add);
  ir.mark_output(sub);
  ir.mark_output(mul);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  Rng rng(5);
  Tensor ta = Tensor::randn(12, 4, rng);
  Tensor tb = Tensor::randn(12, 4, rng);
  ex.bind(a, ta);
  ex.bind(b, tb);
  ex.run();
  for (std::int64_t e = 0; e < g.num_edges(); ++e) {
    const int u = g.edge_src()[e];
    const int v = g.edge_dst()[e];
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(ex.result(add).at(e, j), ta.at(u, j) + tb.at(v, j));
      EXPECT_FLOAT_EQ(ex.result(sub).at(e, j), ta.at(u, j) - tb.at(v, j));
      EXPECT_FLOAT_EQ(ex.result(mul).at(e, j), ta.at(u, j) * tb.at(v, j));
    }
  }
}

TEST(DglCompat, GspmmCopyUSumIsSpmv) {
  Graph g = test_graph();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 3, "x");
  const int out = dgl::gspmm(ir, dgl::BinaryOp::CopyLhs, ReduceFn::Sum, x, -1);
  ir.mark_output(out);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  Rng rng(6);
  Tensor tx = Tensor::randn(12, 3, rng);
  ex.bind(x, tx);
  ex.run();
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    for (int j = 0; j < 3; ++j) {
      float ref = 0.f;
      for (std::int64_t i = g.in_ptr()[v]; i < g.in_ptr()[v + 1]; ++i) {
        ref += tx.at(g.in_src()[i], j);
      }
      EXPECT_NEAR(ex.result(out).at(v, j), ref, 1e-4f);
    }
  }
}

TEST(DglCompat, GspmmUMulEWithHeadBroadcast) {
  // DGL's u_mul_e with per-head edge scalars — the GAT aggregate.
  Graph g = test_graph();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 6, "x");    // 2 heads × 3
  const int w = ir.input(Space::Edge, 0, 2, "w");
  const int out = dgl::gspmm(ir, dgl::BinaryOp::Mul, ReduceFn::Sum, x, w, 2);
  ir.mark_output(out);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  Rng rng(7);
  Tensor tx = Tensor::randn(12, 6, rng);
  Tensor tw = Tensor::randn(g.num_edges(), 2, rng);
  ex.bind(x, tx);
  ex.bind(w, tw);
  ex.run();
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    for (int h = 0; h < 2; ++h) {
      for (int j = 0; j < 3; ++j) {
        float ref = 0.f;
        for (std::int64_t i = g.in_ptr()[v]; i < g.in_ptr()[v + 1]; ++i) {
          ref += tx.at(g.in_src()[i], h * 3 + j) * tw.at(g.in_eid()[i], h);
        }
        EXPECT_NEAR(ex.result(out).at(v, h * 3 + j), ref, 1e-4f);
      }
    }
  }
}

TEST(DglCompat, GsddmmIntoGspmmFusesAcrossTheBoundary) {
  // The paper's §2.1 point: with fine-grained ops, the last Scatter of a
  // gSDDMM fuses with the first Gather of the following gSpMM — impossible
  // at the coarse primitive granularity.
  Graph g = test_graph();
  IrGraph ir;
  const int a = ir.input(Space::Vertex, 0, 4, "a");
  const int e = dgl::gsddmm(ir, dgl::BinaryOp::Sub, a, a);
  const int out = ir.gather(ReduceFn::Max, e);
  ir.mark_output(out);
  FusionStats stats;
  IrGraph fused = fusion_pass(ir, {}, &stats);
  EXPECT_EQ(stats.regions, 1);
  EXPECT_EQ(stats.fused_nodes, 2);
  EXPECT_EQ(stats.edge_tensors_eliminated, 1);
  (void)out;
}

TEST(DglCompat, GspmmMaxAndMean) {
  Graph g = test_graph();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int mx = dgl::gspmm(ir, dgl::BinaryOp::CopyLhs, ReduceFn::Max, x, -1);
  const int mn = dgl::gspmm(ir, dgl::BinaryOp::CopyLhs, ReduceFn::Mean, x, -1);
  ir.mark_output(mx);
  ir.mark_output(mn);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  Rng rng(8);
  ex.bind(x, Tensor::randn(12, 2, rng));
  EXPECT_NO_THROW(ex.run());
}

TEST(Dot, ExportContainsNodesAndBackwardMark) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 2, "w");
  const int y = ir.linear(x, w);
  ir.mark_output(y);
  ir.backward_start = y;  // pretend, for the color check
  const std::string dot = to_dot(ir, "test");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("diamond"), std::string::npos);  // param shape
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

}  // namespace
}  // namespace triad
