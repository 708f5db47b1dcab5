// Tests for the model builders: structure, shapes, runnability.
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "engine/plan.h"
#include "graph/generators.h"
#include "models/models.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(101);
  return gen::erdos_renyi(20, 100, rng);
}

int count_kind(const IrGraph& ir, OpKind k) {
  int c = 0;
  for (const Node& n : ir.nodes()) c += n.kind == k;
  return c;
}

Tensor run_model(const Graph& g, const ModelGraph& m, unsigned seed = 5) {
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(m.ir, g.num_vertices(), g.num_edges()));
  Rng rng(seed);
  ex.bind(m.features, Tensor::randn(g.num_vertices(),
                                    m.ir.node(m.features).cols, rng));
  if (m.pseudo >= 0) ex.bind(m.pseudo, make_pseudo_coords(g, m.ir.node(m.pseudo).cols));
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    ex.bind(m.params[i], m.init[i].clone());
  }
  ex.run();
  return ex.result(m.output).clone();
}

TEST(Models, GcnRunsAndShapes) {
  Rng rng(1);
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {16};
  cfg.num_classes = 5;
  ModelGraph m = api::Gcn(cfg).build(rng);
  Graph g = test_graph();
  Tensor out = run_model(g, m);
  EXPECT_EQ(out.rows(), 20);
  EXPECT_EQ(out.cols(), 5);
  EXPECT_EQ(m.params.size(), 4u);  // 2 layers × (W, b)
}

TEST(Models, GatNaiveHasConcatAndExpandedSoftmax) {
  Rng rng(2);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.num_classes = 3;
  ModelGraph m = api::Gat(cfg).build(rng);
  int concats = 0, softmax_special = 0, max_gathers = 0;
  for (const Node& n : m.ir.nodes()) {
    concats += n.kind == OpKind::Scatter && n.sfn == ScatterFn::ConcatUV;
    softmax_special +=
        n.kind == OpKind::Special && n.spfn == SpecialFn::EdgeSoftmax;
    max_gathers += n.kind == OpKind::Gather && n.rfn == ReduceFn::Max;
  }
  EXPECT_EQ(concats, 2);          // paper-order form per layer
  EXPECT_EQ(softmax_special, 0);  // expanded primitives
  EXPECT_EQ(max_gathers, 2);
  Tensor out = run_model(test_graph(), m);
  EXPECT_EQ(out.cols(), 3);
}

TEST(Models, GatPrereorganizedUsesAddUV) {
  Rng rng(3);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 16;
  cfg.prereorganized = true;
  cfg.builtin_softmax = true;
  ModelGraph m = api::Gat(cfg).build(rng);
  int concats = 0, adds = 0, builtin = 0;
  for (const Node& n : m.ir.nodes()) {
    concats += n.kind == OpKind::Scatter && n.sfn == ScatterFn::ConcatUV;
    adds += n.kind == OpKind::Scatter && n.sfn == ScatterFn::AddUV;
    builtin += n.kind == OpKind::Special && n.spfn == SpecialFn::EdgeSoftmax;
  }
  EXPECT_EQ(concats, 0);
  EXPECT_EQ(adds, 2);
  EXPECT_EQ(builtin, 2);
}

TEST(Models, GatNaiveAndPrereorganizedAgree) {
  // Same weights: the hand-reorganized DGL form must equal the paper-order
  // form (this is the identity the reorg pass exploits).
  Rng rng(4);
  GatConfig cfg;
  cfg.in_dim = 6;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.num_classes = 4;
  ModelGraph naive_m = api::Gat(cfg).build(rng);
  GatConfig cfg2 = cfg;
  cfg2.prereorganized = true;
  Rng rng2(4);  // identical params
  ModelGraph reorg_m = api::Gat(cfg2).build(rng2);
  Graph g = test_graph();
  Tensor a = run_model(g, naive_m, 9);
  Tensor b = run_model(g, reorg_m, 9);
  EXPECT_LT(ops::max_abs_diff(a, b), 1e-3f);
}

TEST(Models, GatMultiHeadShapes) {
  Rng rng(5);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 4;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.num_classes = 3;
  ModelGraph m = api::Gat(cfg).build(rng);
  Tensor out = run_model(test_graph(), m);
  EXPECT_EQ(out.cols(), 3);  // last layer single head
}

TEST(Models, EdgeConvPaperOrderHasEdgeLinear) {
  Rng rng(6);
  EdgeConvConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden = {8, 16};
  cfg.num_classes = 10;
  ModelGraph m = api::EdgeConv(cfg).build(rng);
  // The Θ projection is applied on *edge* features (the redundancy source).
  int edge_linears = 0;
  for (const Node& n : m.ir.nodes()) {
    edge_linears += n.kind == OpKind::Apply && n.afn == ApplyFn::Linear &&
                    n.space == Space::Edge;
  }
  EXPECT_EQ(edge_linears, 2);
  Tensor out = run_model(test_graph(), m);
  EXPECT_EQ(out.cols(), 10);
}

TEST(Models, MoNetRunsWithPseudo) {
  Rng rng(7);
  MoNetConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 16;
  cfg.kernels = 3;
  cfg.pseudo_dim = 2;
  cfg.num_classes = 4;
  ModelGraph m = api::MoNet(cfg).build(rng);
  EXPECT_GE(m.pseudo, 0);
  int gaussians = count_kind(m.ir, OpKind::Special);
  EXPECT_EQ(gaussians, 2);  // one per layer
  Tensor out = run_model(test_graph(), m);
  EXPECT_EQ(out.cols(), 4);
}

TEST(Models, PseudoCoordsDegreeBased) {
  Graph g(3, {{0, 1}, {0, 1}, {2, 1}, {1, 2}});
  Tensor p = make_pseudo_coords(g, 2);
  EXPECT_EQ(p.rows(), 4);
  // Edge 0: src 0 (out-deg 2) -> 1/sqrt(2); dst 1 (in-deg 3) -> 1/sqrt(3).
  EXPECT_NEAR(p.at(0, 0), 1.f / std::sqrt(2.f), 1e-5f);
  EXPECT_NEAR(p.at(0, 1), 1.f / std::sqrt(3.f), 1e-5f);
}

TEST(Models, CompileInferenceFindsHandles) {
  Rng rng(8);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 16;
  cfg.num_classes = 3;
  ModelGraph m = api::Gat(cfg).build(rng);
  Compiled c = compile_model(std::move(m), ours(), /*training=*/false);
  EXPECT_GE(c.features, 0);
  EXPECT_GE(c.output, 0);
  EXPECT_EQ(c.seed, -1);
  EXPECT_EQ(c.params.size(), c.init.size());
  EXPECT_FALSE(c.ir.programs.empty());  // fusion actually happened
}

TEST(Models, CompileTrainingProducesGradPerParam) {
  Rng rng(9);
  MoNetConfig cfg;
  cfg.in_dim = 6;
  cfg.hidden = 8;
  cfg.kernels = 2;
  cfg.pseudo_dim = 2;
  cfg.num_classes = 3;
  ModelGraph m = api::MoNet(cfg).build(rng);
  Compiled c = compile_model(std::move(m), dgl_like(), /*training=*/true);
  EXPECT_GE(c.seed, 0);
  EXPECT_EQ(c.param_grads.size(), c.params.size());
}

}  // namespace
}  // namespace triad
