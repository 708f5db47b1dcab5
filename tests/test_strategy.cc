// Tests for strategy presets and the compile_model pipeline plumbing.
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "graph/generators.h"
#include "models/models.h"
#include "support/rng.h"

namespace triad {
namespace {

TEST(Strategy, PresetFlagsMatchPaperBaselines) {
  const Strategy dgl = dgl_like();
  EXPECT_TRUE(dgl.prereorganized_gat);  // DGL's GATConv is hand-reorganized
  EXPECT_TRUE(dgl.builtin_softmax);
  EXPECT_FALSE(dgl.reorg);
  EXPECT_EQ(dgl.fusion, FusionMode::None);
  EXPECT_FALSE(dgl.recompute);

  const Strategy fg = fusegnn_like();
  EXPECT_EQ(fg.fusion, FusionMode::EdgeOnly);  // edge-centric fusion only
  EXPECT_FALSE(fg.reorg);
  EXPECT_FALSE(fg.recompute);

  const Strategy us = ours();
  EXPECT_TRUE(us.reorg);
  EXPECT_EQ(us.fusion, FusionMode::Unified);
  EXPECT_TRUE(us.recompute);
  EXPECT_FALSE(us.builtin_softmax);  // expanded chain feeds the fusion pass

  EXPECT_FALSE(ours_no_fusion().recompute)
      << "recompute without fusion would re-materialize O(|E|)";
}

TEST(Strategy, CompiledGraphShrinksKernelCount) {
  // Unified fusion must reduce node count relative to the naive pipeline.
  auto nodes_of = [](const Strategy& s) {
    Rng rng(3);
    GatConfig cfg;
    cfg.in_dim = 8;
    cfg.hidden = 8;
    cfg.layers = 1;
    cfg.num_classes = 3;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    Compiled c = compile_model(api::Gat(cfg).build(rng), s, true);
    int execustable = 0;
    for (const Node& n : c.ir.nodes()) {
      execustable += n.kind != OpKind::Input && n.kind != OpKind::Param &&
                     n.kind != OpKind::FusedOut;
    }
    return execustable;
  };
  EXPECT_LT(nodes_of(ours()), nodes_of(naive()));
}

TEST(Strategy, DglGatUsesBuiltinSoftmaxNode) {
  Rng rng(5);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.num_classes = 3;
  const Strategy s = dgl_like();
  cfg.prereorganized = s.prereorganized_gat;
  cfg.builtin_softmax = s.builtin_softmax;
  Compiled c = compile_model(api::Gat(cfg).build(rng), s, true);
  int builtin = 0;
  for (const Node& n : c.ir.nodes()) {
    builtin += n.kind == OpKind::Special &&
               (n.spfn == SpecialFn::EdgeSoftmax ||
                n.spfn == SpecialFn::EdgeSoftmaxGrad);
  }
  EXPECT_EQ(builtin, 2);  // forward + backward
  EXPECT_TRUE(c.ir.programs.empty());  // no pass-made fusion in DGL mode
}

TEST(Strategy, OursEliminatesBuiltinSoftmax) {
  Rng rng(6);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.num_classes = 3;
  Compiled c = compile_model(api::Gat(cfg).build(rng), ours(), true);
  for (const Node& n : c.ir.nodes()) {
    EXPECT_FALSE(n.kind == OpKind::Special && n.spfn == SpecialFn::EdgeSoftmax);
  }
  EXPECT_GE(c.ir.programs.size(), 2u);  // fwd + bwd fused kernels
}

TEST(Strategy, HandleRemapSurvivesAllPasses) {
  Rng rng(7);
  MoNetConfig cfg;
  cfg.in_dim = 6;
  cfg.hidden = 8;
  cfg.kernels = 2;
  cfg.pseudo_dim = 2;
  cfg.num_classes = 3;
  Compiled c = compile_model(api::MoNet(cfg).build(rng), ours(), true);
  // Every handle must point at the right node kind after three rewrites.
  EXPECT_EQ(c.ir.node(c.features).kind, OpKind::Input);
  EXPECT_EQ(c.ir.node(c.pseudo).kind, OpKind::Input);
  EXPECT_EQ(c.ir.node(c.seed).kind, OpKind::Input);
  for (int p : c.params) EXPECT_EQ(c.ir.node(p).kind, OpKind::Param);
  ASSERT_EQ(c.params.size(), c.param_grads.size());
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    EXPECT_EQ(c.ir.node(c.param_grads[i]).rows, c.ir.node(c.params[i]).rows);
    EXPECT_EQ(c.ir.node(c.param_grads[i]).cols, c.ir.node(c.params[i]).cols);
  }
}

TEST(Strategy, EdgeOnlyFusionNeverFusesGathers) {
  Rng rng(8);
  EdgeConvConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden = {8};
  cfg.num_classes = 3;
  Compiled c = compile_model(api::EdgeConv(cfg).build(rng), fusegnn_like(),
                             true);
  for (const EdgeProgram& ep : c.ir.programs) {
    EXPECT_TRUE(ep.vertex_outputs.empty())
        << "fuseGNN-like fusion produced a fused reduction";
  }
}

TEST(Strategy, InferenceCompileHasNoBackward) {
  Rng rng(9);
  GcnConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden = {4};
  cfg.num_classes = 2;
  Compiled c = compile_model(api::Gcn(cfg).build(rng), ours(), false);
  EXPECT_EQ(c.seed, -1);
  EXPECT_TRUE(c.param_grads.empty());
  EXPECT_LT(c.ir.backward_start, 0);
}

}  // namespace
}  // namespace triad
