// Edge-case coverage for the engine: degenerate graphs (isolated vertices,
// self-loops, duplicate edges, single vertex, star hubs) through both the
// unfused kernels and the full optimized pipeline.
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "engine/plan.h"
#include "engine/kernels.h"
#include "graph/generators.h"
#include "ir/passes/fusion.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

/// Runs the optimized GAT training step on an arbitrary graph; checks it is
/// finite and matches the naive pipeline.
void check_gat_on(const Graph& g, std::int64_t classes = 3) {
  Rng drng(1);
  Tensor features = Tensor::randn(g.num_vertices(), 5, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % classes);
  }
  auto run = [&](const Strategy& s) {
    Rng rng(99);
    GatConfig cfg;
    cfg.in_dim = 5;
    cfg.hidden = 4;
    cfg.layers = 1;
    cfg.num_classes = classes;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    Compiled c = compile_model(api::Gat(cfg).build(rng), s, true);
    MemoryPool pool;
    Trainer t(std::move(c), g, features.clone(MemTag::kInput, &pool), Tensor{},
              &pool);
    const StepMetrics m = t.train_step(labels, 0.f);
    EXPECT_TRUE(std::isfinite(m.loss));
    return t.logits().clone();
  };
  Tensor a = run(naive());
  Tensor b = run(ours());
  EXPECT_LT(ops::max_abs_diff(a, b), 5e-3f);
}

TEST(EdgeCases, GraphWithIsolatedVertices) {
  // Half the vertices have no edges at all.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  check_gat_on(Graph(8, edges));
}

TEST(EdgeCases, SelfLoopsOnly) {
  std::vector<Edge> edges;
  for (int v = 0; v < 6; ++v) edges.push_back({v, v});
  check_gat_on(Graph(6, edges));
}

TEST(EdgeCases, DuplicateEdgesMultigraph) {
  std::vector<Edge> edges;
  for (int i = 0; i < 5; ++i) edges.push_back({0, 1});  // 5 parallel edges
  edges.push_back({1, 0});
  check_gat_on(Graph(3, edges));
}

TEST(EdgeCases, StarHub) {
  // One vertex receives everything — the extreme imbalance case.
  std::vector<Edge> edges;
  for (int v = 1; v < 40; ++v) edges.push_back({v, 0});
  check_gat_on(Graph(40, edges));
}

TEST(EdgeCases, TwoVertexGraph) {
  check_gat_on(Graph(2, {{0, 1}, {1, 0}}), 2);
}

TEST(EdgeCases, GatherOnIsolatedVerticesYieldsZero) {
  Graph g(4, {{0, 1}});
  Tensor e = Tensor::full(1, 3, 7.f);
  Tensor out(4, 3);
  kernels::gather(g, ReduceFn::Sum, false, e, out, nullptr);
  EXPECT_FLOAT_EQ(out.at(1, 0), 7.f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 0.f);
  IntTensor arg(4, 3);
  kernels::gather(g, ReduceFn::Max, false, e, out, &arg);
  EXPECT_FLOAT_EQ(out.at(3, 0), 0.f);  // isolated max clamps to 0
  EXPECT_EQ(arg.at(3, 0), -1);
  kernels::gather(g, ReduceFn::Mean, false, e, out, nullptr);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.f);
}

TEST(EdgeCases, FusedSoftmaxOnSelfLoopIsOne) {
  // A vertex whose only incoming edge is a self-loop gets weight exactly 1.
  Graph g(2, {{0, 0}, {1, 0}, {1, 1}});
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 1, "x");
  const int s = ir.scatter(ScatterFn::AddUV, x, x);
  const int mx = ir.gather(ReduceFn::Max, s);
  const int mxe = ir.scatter(ScatterFn::CopyV, mx, -1);
  const int sh = ir.apply_binary(ApplyFn::Sub, s, mxe);
  const int e = ir.apply_unary(ApplyFn::Exp, sh);
  const int dn = ir.gather(ReduceFn::Sum, e);
  const int dne = ir.scatter(ScatterFn::CopyV, dn, -1);
  const int w = ir.apply_binary(ApplyFn::Div, e, dne);
  const int total = ir.gather(ReduceFn::Sum, w);
  ir.mark_output(total);
  IrGraph fused = fusion_pass(ir);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(fused, g.num_vertices(), g.num_edges()));
  Rng rng(3);
  ex.bind(0, Tensor::randn(2, 1, rng));
  ex.run();
  EXPECT_NEAR(ex.result(fused.outputs[0]).at(0, 0), 1.f, 1e-5f);  // two edges
  EXPECT_NEAR(ex.result(fused.outputs[0]).at(1, 0), 1.f, 1e-5f);  // one edge
}

TEST(EdgeCases, WidthOneFeatures) {
  Rng rng(4);
  Graph g = gen::erdos_renyi(10, 40, rng);
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 1, "x");
  const int e = ir.scatter(ScatterFn::MulUV, x, x);
  const int v = ir.gather(ReduceFn::Sum, e);
  ir.mark_output(v);
  IrGraph fused = fusion_pass(ir);
  Tensor out[2];
  const IrGraph* graphs[2] = {&ir, &fused};
  for (int i = 0; i < 2; ++i) {
    PlanRunner ex(g, ExecutionPlan::compile_shared(*graphs[i], g.num_vertices(),
                                                   g.num_edges()));
    Rng local(5);
    ex.bind(0, Tensor::randn(10, 1, local));
    ex.run();
    out[i] = ex.result(graphs[i]->outputs[0]).clone();
  }
  EXPECT_LT(ops::max_abs_diff(out[0], out[1]), 1e-4f);
}

TEST(EdgeCases, EmptyEdgeSetRejectedByModelsButGraphConstructs) {
  // Zero-edge graphs are legal topology; the kernels produce zeros.
  Graph g(5, {});
  EXPECT_EQ(g.num_edges(), 0);
  Tensor e(0, 3);
  Tensor out(5, 3);
  kernels::gather(g, ReduceFn::Sum, false, e, out, nullptr);
  for (float v : out.flat()) EXPECT_FLOAT_EQ(v, 0.f);
}

TEST(EdgeCases, LargeDegreeSpreadTrainsStably) {
  // RMAT graph with harsh skew: training remains finite under fusion.
  Rng rng(6);
  Graph g = gen::rmat(8, 4096, rng);
  check_gat_on(g);
}

}  // namespace
}  // namespace triad
