// Tests for unified-thread-mapping fusion (Section 5): semantic equivalence
// of fused vs unfused execution, region formation, IO reduction, legality.
#include <gtest/gtest.h>

#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/passes/fusion.h"
#include "support/counters.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(21);
  return gen::erdos_renyi(16, 90, rng);
}

/// Executes `ir` unfused and fused (given mode) with identical bindings;
/// checks all marked outputs match. Returns (unfused, fused) counter deltas.
std::pair<PerfCounters, PerfCounters> run_both(const Graph& g, const IrGraph& ir,
                                               FusionMode mode,
                                               FusionStats* stats = nullptr) {
  FusionOptions opts;
  opts.mode = mode;
  IrGraph fused = fusion_pass(ir, opts, stats);

  PerfCounters deltas[2];
  std::vector<Tensor> outs[2];
  const IrGraph* graphs[2] = {&ir, &fused};
  for (int i = 0; i < 2; ++i) {
    PlanRunner ex(g, ExecutionPlan::compile_shared(*graphs[i], g.num_vertices(),
                                                   g.num_edges()));
    Rng local(77);
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
    deltas[i] = scope.delta();
    for (int o : graphs[i]->outputs) outs[i].push_back(ex.result(o).clone());
  }
  EXPECT_EQ(outs[0].size(), outs[1].size());
  for (std::size_t k = 0; k < outs[0].size(); ++k) {
    EXPECT_LT(ops::max_abs_diff(outs[0][k], outs[1][k]), 2e-3f)
        << "output " << k << " differs after fusion";
  }
  return {deltas[0], deltas[1]};
}

TEST(Fusion, ScatterApplyGatherChain) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 6, "x");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int r = ir.apply_unary(ApplyFn::ReLU, e);
  const int v = ir.gather(ReduceFn::Sum, r);
  ir.mark_output(v);
  FusionStats stats;
  auto [unfused, fused] = run_both(test_graph(), ir, FusionMode::Unified, &stats);
  EXPECT_EQ(stats.regions, 1);
  EXPECT_EQ(stats.fused_nodes, 3);
  EXPECT_EQ(stats.edge_tensors_eliminated, 2);
  EXPECT_LT(fused.io_bytes(), unfused.io_bytes());
  EXPECT_LT(fused.kernel_launches, unfused.kernel_launches);
}

TEST(Fusion, EdgeSoftmaxChainThreePhases) {
  // The expanded ReduceScatter: max -> exp/sum -> div, all fused.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int s = ir.scatter(ScatterFn::AddUV, x, x);
  const int mx = ir.gather(ReduceFn::Max, s);
  const int mxe = ir.scatter(ScatterFn::CopyV, mx, -1);
  const int sh = ir.apply_binary(ApplyFn::Sub, s, mxe);
  const int e = ir.apply_unary(ApplyFn::Exp, sh);
  const int dn = ir.gather(ReduceFn::Sum, e);
  const int dne = ir.scatter(ScatterFn::CopyV, dn, -1);
  const int w = ir.apply_binary(ApplyFn::Div, e, dne);
  const int out = ir.gather(ReduceFn::Sum, w);
  ir.mark_output(out);
  FusionStats stats;
  run_both(test_graph(), ir, FusionMode::Unified, &stats);
  EXPECT_EQ(stats.regions, 1);
  // Softmax weights sum to 1 over incoming edges -> out == 1 for deg > 0.
}

TEST(Fusion, FusedProgramHasThreePhases) {
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
  const int out = ir.gather(ReduceFn::Sum, w);
  ir.mark_output(out);
  IrGraph fused = fusion_pass(ir);
  ASSERT_EQ(fused.programs.size(), 1u);
  EXPECT_EQ(fused.programs[0].phases.size(), 3u);
  EXPECT_EQ(fused.programs[0].mapping, WorkMapping::VertexBalanced);
  EXPECT_TRUE(fused.programs[0].dst_major);
}

TEST(Fusion, EdgeOnlyModeKeepsGathersUnfused) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int r = ir.apply_unary(ApplyFn::ReLU, e);
  const int r2 = ir.apply_unary(ApplyFn::Neg, r);
  const int v = ir.gather(ReduceFn::Sum, r2);
  ir.mark_output(v);
  FusionStats stats;
  auto [unfused, fused] = run_both(test_graph(), ir, FusionMode::EdgeOnly, &stats);
  EXPECT_EQ(stats.regions, 1);
  EXPECT_EQ(stats.fused_nodes, 3);         // scatter + two applies
  EXPECT_EQ(stats.edge_tensors_stored, 1);  // gather still reads DRAM
  // fuseGNN-style fusion still helps but less than unified would.
  EXPECT_LT(fused.io_bytes(), unfused.io_bytes());
}

TEST(Fusion, ExpensiveApplyNeverFused) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 4, "w");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int p = ir.linear(e, w);  // expensive: must stay out
  const int v = ir.gather(ReduceFn::Sum, p);
  ir.mark_output(v);
  FusionStats stats;
  run_both(test_graph(), ir, FusionMode::Unified, &stats);
  // Scatter fuses alone? No: single-node regions are dropped, the Linear
  // breaks the chain; the gather alone is also dropped.
  EXPECT_EQ(stats.fused_nodes, 0);
}

TEST(Fusion, ReverseGatherRegionUsesSrcMajor) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 3, "x");
  const int e = ir.scatter(ScatterFn::CopyV, x, -1);
  const int n = ir.apply_unary(ApplyFn::Neg, e);
  const int v = ir.gather(ReduceFn::Sum, n, /*reverse=*/true);
  ir.mark_output(v);
  IrGraph fused = fusion_pass(ir);
  ASSERT_EQ(fused.programs.size(), 1u);
  EXPECT_FALSE(fused.programs[0].dst_major);
  run_both(test_graph(), ir, FusionMode::Unified);
}

TEST(Fusion, MixedOrientationUsesAtomics) {
  // Sum to dst and to src from the same region: one must go atomic.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int e = ir.scatter(ScatterFn::AddUV, x, x);
  const int a = ir.gather(ReduceFn::Sum, e, false);
  const int b = ir.gather(ReduceFn::Sum, e, true);
  const int out = ir.apply_binary(ApplyFn::Add, a, b);
  ir.mark_output(out);
  FusionStats stats;
  auto [unfused, fused] = run_both(test_graph(), ir, FusionMode::Unified, &stats);
  (void)unfused;
  EXPECT_EQ(stats.regions, 1);
  EXPECT_GT(fused.atomic_ops, 0u);
}

TEST(Fusion, EdgeOutputStoredWhenConsumedOutside) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 2, "w");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int r = ir.apply_unary(ApplyFn::ReLU, e);
  const int v = ir.gather(ReduceFn::Sum, r);
  // r is also consumed by an expensive op outside any region.
  const int p = ir.linear(r, w);
  const int v2 = ir.gather(ReduceFn::Sum, p);
  const int out = ir.apply_binary(
      ApplyFn::Add, ir.apply_unary(ApplyFn::Identity, v2),
      ir.linear(v, w, 0, 0, "dummy"));
  ir.mark_output(out);
  FusionStats stats;
  run_both(test_graph(), ir, FusionMode::Unified, &stats);
  EXPECT_GE(stats.edge_tensors_stored, 1);
}

TEST(Fusion, GaussianFusesIntoRegion) {
  IrGraph ir;
  const int pseudo = ir.input(Space::Edge, 0, 2, "pseudo");
  const int mu = ir.param(3, 2, "mu");
  const int sigma = ir.param(3, 2, "sigma");
  const int x = ir.input(Space::Vertex, 0, 6, "x");
  const int gw = ir.special(SpecialFn::Gaussian, {pseudo, mu, sigma}, 0, 3,
                            Space::Edge);
  const int src = ir.scatter(ScatterFn::CopyU, x, -1);
  const int weighted = ir.apply_binary(ApplyFn::MulHead, src, gw, "", 3);
  const int agg = ir.gather(ReduceFn::Sum, weighted);
  ir.mark_output(agg);
  FusionStats stats;
  auto [unfused, fused] = run_both(test_graph(), ir, FusionMode::Unified, &stats);
  EXPECT_EQ(stats.regions, 1);
  EXPECT_EQ(stats.fused_nodes, 4);
  EXPECT_LT(fused.io_bytes(), unfused.io_bytes());
}

TEST(Fusion, EdgeBalancedPreferenceHonoredWhenLegal) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int e = ir.scatter(ScatterFn::AddUV, x, x);
  const int v = ir.gather(ReduceFn::Sum, e);
  ir.mark_output(v);
  FusionOptions opts;
  opts.preferred = WorkMapping::EdgeBalanced;
  IrGraph fused = fusion_pass(ir, opts);
  ASSERT_EQ(fused.programs.size(), 1u);
  EXPECT_EQ(fused.programs[0].mapping, WorkMapping::EdgeBalanced);
  // But a Max reduction forbids edge-balanced:
  IrGraph ir2;
  const int x2 = ir2.input(Space::Vertex, 0, 4, "x");
  const int e2 = ir2.scatter(ScatterFn::AddUV, x2, x2);
  const int v2 = ir2.gather(ReduceFn::Max, e2);
  ir2.mark_output(v2);
  IrGraph fused2 = fusion_pass(ir2, opts);
  ASSERT_EQ(fused2.programs.size(), 1u);
  EXPECT_EQ(fused2.programs[0].mapping, WorkMapping::VertexBalanced);
}

TEST(Fusion, NoneModeIsIdentity) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int v = ir.gather(ReduceFn::Sum, e);
  ir.mark_output(v);
  FusionOptions opts;
  opts.mode = FusionMode::None;
  IrGraph same = fusion_pass(ir, opts);
  EXPECT_EQ(same.size(), ir.size());
  EXPECT_TRUE(same.programs.empty());
}

TEST(Fusion, ManyIndependentRegions) {
  // Two disjoint scatter-gather chains fuse into two regions.
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 3, "x");
  const int y = ir.input(Space::Vertex, 0, 3, "y");
  const int e1 = ir.scatter(ScatterFn::SubUV, x, x);
  const int v1 = ir.gather(ReduceFn::Sum, e1);
  const int e2 = ir.scatter(ScatterFn::AddUV, y, y);
  const int v2 = ir.gather(ReduceFn::Max, e2);
  const int out = ir.apply_binary(ApplyFn::Add, v1, v2);
  ir.mark_output(out);
  FusionStats stats;
  run_both(test_graph(), ir, FusionMode::Unified, &stats);
  EXPECT_EQ(stats.regions, 2);
}

}  // namespace
}  // namespace triad
