// Rewriter framework + optimizer pass tests: rule units, hash-consing CSE,
// DCE/id-compaction invariants (including fused-program pruning), fixpoint
// termination on an adversarial cyclic-rewrite trap, and the end-to-end
// node-count reduction the optimizer must deliver on the GAT backward graph.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/models.h"
#include "baselines/strategy.h"
#include "ir/autodiff.h"
#include "ir/passes/fusion.h"
#include "ir/passes/rewriter.h"
#include "models/models.h"
#include "support/counters.h"
#include "support/rng.h"

namespace triad {
namespace {

int count_kind(const IrGraph& g, OpKind k) {
  int c = 0;
  for (const Node& n : g.nodes()) c += n.kind == k;
  return c;
}

int count_apply(const IrGraph& g, ApplyFn fn) {
  int c = 0;
  for (const Node& n : g.nodes()) c += n.kind == OpKind::Apply && n.afn == fn;
  return c;
}

std::uint64_t hits_of(const std::vector<RuleStat>& stats,
                      const std::string& rule) {
  for (const RuleStat& s : stats) {
    if (s.rule == rule) return s.hits;
  }
  return 0;
}

// --- simplify rule units ----------------------------------------------------

TEST(Rewriter, IdentityElision) {
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int i1 = g.apply_unary(ApplyFn::Identity, x);
  const int y = g.apply_unary(ApplyFn::ReLU, i1);
  g.mark_output(y);
  std::vector<RuleStat> stats;
  IrGraph out = simplify_pass(std::move(g), &stats);
  EXPECT_EQ(hits_of(stats, "identity"), 1u);
  EXPECT_EQ(count_apply(out, ApplyFn::Identity), 0);
  // ReLU now reads the input directly; the Identity node was DCE'd.
  EXPECT_EQ(out.size(), 2);
  out.validate(0, 0);
}

TEST(Rewriter, ScaleOneAndSliceNoopElision) {
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int s1 = g.apply_unary(ApplyFn::Scale, x, 1.f);          // folds
  const int s2 = g.apply_unary(ApplyFn::Scale, s1, 0.5f);        // stays
  const int sl = g.slice_cols(s2, 0, 4);                          // folds
  const int sl2 = g.slice_cols(sl, 1, 3);                         // stays
  g.mark_output(sl2);
  std::vector<RuleStat> stats;
  IrGraph out = simplify_pass(std::move(g), &stats);
  EXPECT_EQ(hits_of(stats, "scale-one"), 1u);
  EXPECT_EQ(hits_of(stats, "slice-noop"), 1u);
  EXPECT_EQ(out.size(), 3);  // input, Scale(0.5), SliceCols(1,3)
  out.validate(0, 0);
}

TEST(Rewriter, NegNegCancels) {
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int n1 = g.apply_unary(ApplyFn::Neg, x);
  const int n2 = g.apply_unary(ApplyFn::Neg, n1);
  const int y = g.apply_unary(ApplyFn::ReLU, n2);
  g.mark_output(y);
  std::vector<RuleStat> stats;
  IrGraph out = simplify_pass(std::move(g), &stats);
  EXPECT_EQ(hits_of(stats, "neg-neg"), 1u);
  EXPECT_EQ(count_apply(out, ApplyFn::Neg), 0);
  EXPECT_EQ(out.size(), 2);
}

TEST(Rewriter, AddOfNegBecomesSub) {
  IrGraph g;
  const int a = g.input(Space::Vertex, 0, 4, "a");
  const int b = g.input(Space::Vertex, 0, 4, "b");
  const int nb = g.apply_unary(ApplyFn::Neg, b);
  const int add = g.apply_binary(ApplyFn::Add, a, nb);
  g.mark_output(add);
  std::vector<RuleStat> stats;
  IrGraph out = simplify_pass(std::move(g), &stats);
  EXPECT_EQ(hits_of(stats, "neg-fold"), 1u);
  EXPECT_EQ(count_apply(out, ApplyFn::Neg), 0);
  EXPECT_EQ(count_apply(out, ApplyFn::Sub), 1);
  const Node& sub = out.node(out.outputs[0]);
  EXPECT_EQ(sub.afn, ApplyFn::Sub);
  EXPECT_EQ(sub.inputs[0], 0);
  EXPECT_EQ(sub.inputs[1], 1);
}

TEST(Rewriter, SubOfNegBecomesAddAndSharedNegSurvives) {
  IrGraph g;
  const int a = g.input(Space::Vertex, 0, 4, "a");
  const int b = g.input(Space::Vertex, 0, 4, "b");
  const int nb = g.apply_unary(ApplyFn::Neg, b);
  const int sub = g.apply_binary(ApplyFn::Sub, a, nb);
  const int keep = g.apply_unary(ApplyFn::ReLU, nb);  // second consumer
  g.mark_output(sub);
  g.mark_output(keep);
  IrGraph out = simplify_pass(std::move(g));
  // Sub(a, Neg(b)) -> Add(a, b); the Neg stays for its other consumer.
  EXPECT_EQ(count_apply(out, ApplyFn::Add), 1);
  EXPECT_EQ(count_apply(out, ApplyFn::Neg), 1);
}

TEST(Rewriter, NegFoldsThroughRoutingChain) {
  // The exact shape autodiff emits for CopyV-scatter backward under a Sub:
  //   Add(a, CopyV(GatherSum(Neg(x))))  ->  Sub(a, CopyV(GatherSum(x)))
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int e = g.scatter(ScatterFn::CopyU, x, -1);
  const int neg = g.apply_unary(ApplyFn::Neg, e);
  const int gat = g.gather(ReduceFn::Sum, neg);
  const int bc = g.scatter(ScatterFn::CopyV, gat, -1);
  const int a = g.scatter(ScatterFn::CopyU, x, -1);
  const int add = g.apply_binary(ApplyFn::Add, a, bc);
  g.mark_output(add);
  std::vector<RuleStat> stats;
  IrGraph out = simplify_pass(std::move(g), &stats);
  EXPECT_GE(hits_of(stats, "neg-fold"), 1u);
  EXPECT_EQ(count_apply(out, ApplyFn::Neg), 0);
  EXPECT_EQ(count_apply(out, ApplyFn::Sub), 1);
  out.validate(0, 0);
}

TEST(Rewriter, NegChainNotFoldedWhenLinkIsShared) {
  // The gather has a second consumer: flipping its sign would corrupt it.
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int e = g.scatter(ScatterFn::CopyU, x, -1);
  const int neg = g.apply_unary(ApplyFn::Neg, e);
  const int gat = g.gather(ReduceFn::Sum, neg);
  const int bc = g.scatter(ScatterFn::CopyV, gat, -1);
  const int a = g.scatter(ScatterFn::CopyU, x, -1);
  const int add = g.apply_binary(ApplyFn::Add, a, bc);
  g.mark_output(add);
  g.mark_output(gat);  // second observer of the chain value
  IrGraph out = simplify_pass(std::move(g));
  EXPECT_EQ(count_apply(out, ApplyFn::Neg), 1);
  EXPECT_EQ(count_apply(out, ApplyFn::Sub), 0);
}

// --- CSE --------------------------------------------------------------------

TEST(Rewriter, CseMergesScatterGatherTrees) {
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  // Two structurally identical Scatter->Gather trees.
  const int e1 = g.scatter(ScatterFn::CopyU, x, -1);
  const int g1 = g.gather(ReduceFn::Sum, e1);
  const int e2 = g.scatter(ScatterFn::CopyU, x, -1);
  const int g2 = g.gather(ReduceFn::Sum, e2);
  const int sum = g.apply_binary(ApplyFn::Add, g1, g2);
  g.mark_output(sum);
  std::vector<RuleStat> stats;
  IrGraph out = cse_pass(std::move(g), &stats);
  // The duplicate tree merges bottom-up in one sweep: scatter first, then
  // the gather (whose canonicalized input now matches).
  EXPECT_EQ(hits_of(stats, "cse"), 2u);
  EXPECT_EQ(out.size(), 4);  // input, scatter, gather, add
  const Node& add = out.node(out.outputs[0]);
  EXPECT_EQ(add.inputs[0], add.inputs[1]);
}

TEST(Rewriter, CseRespectsAttributesAndLeafIdentity) {
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int s1 = g.apply_unary(ApplyFn::Scale, x, 2.f);
  const int s2 = g.apply_unary(ApplyFn::Scale, x, 3.f);  // different alpha
  const int r1 = g.gather(ReduceFn::Sum, g.scatter(ScatterFn::CopyU, x, -1),
                          /*reverse=*/false);
  const int r2 = g.gather(ReduceFn::Sum, g.scatter(ScatterFn::CopyU, x, -1),
                          /*reverse=*/true);  // different orientation
  const int p1 = g.param(4, 4, "p1");
  const int p2 = g.param(4, 4, "p2");  // identical shape: must keep identity
  const int m1 = g.linear(x, p1);
  const int m2 = g.linear(x, p2);
  int acc = g.apply_binary(ApplyFn::Add, s1, s2);
  acc = g.apply_binary(ApplyFn::Add, acc, r1);
  acc = g.apply_binary(ApplyFn::Add, acc, r2);
  acc = g.apply_binary(ApplyFn::Add, acc, m1);
  acc = g.apply_binary(ApplyFn::Add, acc, m2);
  g.mark_output(acc);
  const int before = g.size();
  std::vector<RuleStat> stats;
  IrGraph out = cse_pass(std::move(g), &stats);
  // Only the two identical CopyU scatters merge; params, differing alphas
  // and differing gather orientations all stay distinct.
  EXPECT_EQ(hits_of(stats, "cse"), 1u);
  EXPECT_EQ(out.size(), before - 1);
  EXPECT_EQ(count_kind(out, OpKind::Param), 2);
}

// --- DCE --------------------------------------------------------------------

TEST(Rewriter, DceDropsDeadChainAndOrphanedParam) {
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int w = g.param(4, 4, "w");
  const int live = g.apply_unary(ApplyFn::ReLU, x);
  const int dead1 = g.linear(x, w);
  const int dead2 = g.apply_unary(ApplyFn::ReLU, dead1);
  (void)dead2;
  g.mark_output(live);

  // Bound leaves survive by default (the harness binds them by name)…
  DceStats kept;
  IrGraph out_keep = dce_pass(g, /*keep_bound=*/true, &kept);
  EXPECT_EQ(kept.dropped_nodes, 2);  // the dead Linear + ReLU chain
  EXPECT_EQ(count_kind(out_keep, OpKind::Param), 1);

  // …and orphaned Params drop when the roots are outputs only.
  DceStats dropped;
  IrGraph out_drop = dce_pass(g, /*keep_bound=*/false, &dropped);
  EXPECT_EQ(dropped.dropped_nodes, 3);
  EXPECT_EQ(count_kind(out_drop, OpKind::Param), 0);
  EXPECT_EQ(out_drop.size(), 2);
  out_drop.validate(0, 0);
}

TEST(Rewriter, DceDropsOrphanedFusedOutAndDeadProgram) {
  // Two fused regions; afterwards only one output is demanded. The dead
  // region's Fused/FusedOut nodes and its EdgeProgram must disappear, and
  // the surviving program's references must be remapped to compacted ids.
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int e1 = g.scatter(ScatterFn::CopyU, x, -1);
  const int r1 = g.apply_unary(ApplyFn::ReLU, e1);
  const int g1 = g.gather(ReduceFn::Sum, r1);
  const int e2 = g.scatter(ScatterFn::CopyV, x, -1);
  const int r2 = g.apply_unary(ApplyFn::ELU, e2, 1.f);
  const int g2 = g.gather(ReduceFn::Sum, r2);
  g.mark_output(g1);
  g.mark_output(g2);
  IrGraph fused = fusion_pass(g);
  ASSERT_EQ(fused.programs.size(), 2u);
  ASSERT_EQ(count_kind(fused, OpKind::Fused), 2);

  // Demand only the second region's output.
  fused.outputs.erase(fused.outputs.begin());
  DceStats stats;
  IrGraph out = dce_pass(fused, /*keep_bound=*/true, &stats);
  EXPECT_EQ(count_kind(out, OpKind::Fused), 1);
  EXPECT_EQ(count_kind(out, OpKind::FusedOut), 1);
  EXPECT_EQ(out.programs.size(), 1u);
  EXPECT_EQ(stats.dropped_programs, 1);
  // The surviving program's vertex output points at the compacted FusedOut.
  ASSERT_EQ(out.programs[0].vertex_outputs.size(), 1u);
  const int fo = out.programs[0].vertex_outputs[0].node;
  EXPECT_EQ(out.node(fo).kind, OpKind::FusedOut);
  out.validate(0, 0);
}

TEST(Rewriter, DcePrunesUnusedStoreFromLiveProgram) {
  // One region with a vertex output AND an edge output; the edge output
  // loses its consumer. The StoreE instruction and the FusedOut must go,
  // while the reduction survives.
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int e = g.scatter(ScatterFn::CopyU, x, -1);
  const int r = g.apply_unary(ApplyFn::ReLU, e);
  const int gt = g.gather(ReduceFn::Sum, r);
  g.mark_output(r);   // forces StoreE of the edge value
  g.mark_output(gt);
  IrGraph fused = fusion_pass(g);
  ASSERT_EQ(fused.programs.size(), 1u);
  ASSERT_EQ(fused.programs[0].edge_outputs.size(), 1u);

  // Drop the edge-output demand.
  std::vector<int> keep;
  for (int o : fused.outputs) {
    if (fused.node(o).space == Space::Vertex) keep.push_back(o);
  }
  fused.outputs = keep;
  DceStats stats;
  IrGraph out = dce_pass(fused, /*keep_bound=*/true, &stats);
  ASSERT_EQ(out.programs.size(), 1u);
  EXPECT_EQ(out.programs[0].edge_outputs.size(), 0u);
  EXPECT_EQ(out.programs[0].vertex_outputs.size(), 1u);
  EXPECT_GE(stats.dropped_stores, 1);
  for (const EPPhase& ph : out.programs[0].phases) {
    for (const EPInstr& in : ph.instrs) {
      EXPECT_NE(in.op, EPOp::StoreE);
    }
  }
  out.validate(0, 0);
}

TEST(Rewriter, DceRenumbersSurvivingFusedOutIndices) {
  // Drop the *first* program output (the vertex reduction) and keep the
  // second (the stored edge tensor): the survivor's out_index must compact
  // to 0 so "which program output" stays truthful in dumps and DOT.
  IrGraph g;
  const int x = g.input(Space::Vertex, 0, 4, "x");
  const int e = g.scatter(ScatterFn::CopyU, x, -1);
  const int r = g.apply_unary(ApplyFn::ReLU, e);
  const int gt = g.gather(ReduceFn::Sum, r);
  g.mark_output(r);
  g.mark_output(gt);
  IrGraph fused = fusion_pass(g);
  ASSERT_EQ(fused.programs.size(), 1u);

  std::vector<int> keep;
  for (int o : fused.outputs) {
    if (fused.node(o).space == Space::Edge) keep.push_back(o);
  }
  fused.outputs = keep;
  IrGraph out = dce_pass(fused, /*keep_bound=*/true);
  ASSERT_EQ(out.programs.size(), 1u);
  EXPECT_EQ(out.programs[0].vertex_outputs.size(), 0u);
  ASSERT_EQ(out.programs[0].edge_outputs.size(), 1u);
  EXPECT_EQ(out.node(out.programs[0].edge_outputs[0].node).out_index, 0);
  out.validate(0, 0);
}

// --- fixpoint / budget ------------------------------------------------------

TEST(Rewriter, CyclicRewriteTrapTerminatesOnBudget) {
  // Adversarial rule pair: Add -> Sub -> Add forever. The rewriter must
  // terminate deterministically on its budget and report exhaustion.
  IrGraph g;
  const int a = g.input(Space::Vertex, 0, 4, "a");
  const int b = g.input(Space::Vertex, 0, 4, "b");
  const int s = g.apply_binary(ApplyFn::Add, a, b);
  g.mark_output(s);

  Rewriter rw;
  rw.add_rule("to-sub",
              [](IrGraph& gr, int id, const RewriteCtx&, RewriteResult& res) {
                if (gr.node(id).kind != OpKind::Apply ||
                    gr.node(id).afn != ApplyFn::Add) {
                  return;
                }
                gr.node_mut(id).afn = ApplyFn::Sub;
                res.changed = true;
              });
  rw.add_rule("to-add",
              [](IrGraph& gr, int id, const RewriteCtx&, RewriteResult& res) {
                if (gr.node(id).kind != OpKind::Apply ||
                    gr.node(id).afn != ApplyFn::Sub) {
                  return;
                }
                gr.node_mut(id).afn = ApplyFn::Add;
                res.changed = true;
              });
  RewriteOptions opts;
  opts.max_rounds = 1000000;  // rounds alone must not be the stopper
  opts.max_rewrites = 64;
  CounterScope scope;
  IrGraph out = rw.run(std::move(g), opts);
  EXPECT_TRUE(rw.budget_exhausted());
  EXPECT_EQ(hits_of(rw.stats(), "to-sub") + hits_of(rw.stats(), "to-add"), 64u);
  EXPECT_EQ(scope.delta().graph_rewrites, 64u);
  EXPECT_EQ(out.size(), 3);  // graph survives intact
  out.validate(0, 0);

  // Round cap alone also terminates it.
  Rewriter rw2;
  rw2.add_rule("flip",
               [](IrGraph& gr, int id, const RewriteCtx&, RewriteResult& res) {
                 Node& n = gr.node_mut(id);
                 if (n.kind != OpKind::Apply) return;
                 n.afn = n.afn == ApplyFn::Add ? ApplyFn::Sub : ApplyFn::Add;
                 res.changed = true;
               });
  RewriteOptions opts2;
  opts2.max_rounds = 3;
  IrGraph g2;
  const int a2 = g2.input(Space::Vertex, 0, 4, "a");
  g2.mark_output(g2.apply_binary(ApplyFn::Add, a2, a2));
  IrGraph out2 = rw2.run(std::move(g2), opts2);
  EXPECT_FALSE(rw2.budget_exhausted());
  EXPECT_EQ(hits_of(rw2.stats(), "flip"), 3u);
}

// --- id-compaction invariants ----------------------------------------------

IrGraph gat_backward_graph() {
  GatConfig cfg;
  cfg.in_dim = 10;
  cfg.hidden = 12;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = 4;
  Rng rng(4242);
  ModelGraph m = api::Gat(cfg).build(rng);
  IrGraph ir = std::move(m.ir);
  ir.outputs.clear();
  ir.mark_output(m.output);
  ir = reorg_pass(ir);
  BackwardResult bwd = build_backward(ir, ir.outputs[0]);
  for (const auto& [param, grad] : bwd.param_grads) ir.mark_output(grad);
  return ir;
}

TEST(Rewriter, OptimizeCompactsGatBackwardAndPreservesInvariants) {
  IrGraph ir = gat_backward_graph();
  const int before = ir.size();
  const int outputs_before = static_cast<int>(ir.outputs.size());
  const int bound_before = count_kind(ir, OpKind::Input) +
                           count_kind(ir, OpKind::Param);
  std::vector<RuleStat> stats;
  IrGraph out = optimize_pass(std::move(ir), &stats);

  // The measurable reduction the paper-layer passes cannot see: autodiff's
  // Neg chains fold away (one |E|-row kernel each).
  EXPECT_LT(out.size(), before);
  EXPECT_GE(hits_of(stats, "neg-fold"), 2u);

  // Compaction invariants: dense topological ids, preserved outputs and
  // bound leaves, and a backward boundary that still points at the seed.
  out.validate(0, 0);
  for (const Node& n : out.nodes()) {
    EXPECT_EQ(n.id, &n - out.nodes().data());
    for (int i : n.inputs) EXPECT_LT(i, n.id);
  }
  EXPECT_EQ(static_cast<int>(out.outputs.size()), outputs_before);
  EXPECT_EQ(count_kind(out, OpKind::Input) + count_kind(out, OpKind::Param),
            bound_before);
  ASSERT_GE(out.backward_start, 0);
  EXPECT_EQ(out.node(out.backward_start).name, "grad_seed");
  for (const Node& n : out.nodes()) {
    if (n.id >= out.backward_start) continue;
    for (int i : n.inputs) EXPECT_LT(i, out.backward_start);
  }
}

TEST(Rewriter, OptimizedGatCompilesUnderFullPipeline) {
  // End-to-end: the optimizer's compacted ids must survive recompute, fusion
  // and ExecutionPlan::compile's free-list consistency checks.
  GatConfig cfg;
  cfg.in_dim = 10;
  cfg.hidden = 12;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = 4;
  Rng rng(7);
  Compiled c = compile_model(api::Gat(cfg).build(rng), ours(),
                             /*training=*/true, /*num_vertices=*/32,
                             /*num_edges=*/128);
  ASSERT_NE(c.plan, nullptr);
  bool saw_optimize = false;
  for (const PassInfo& p : c.stats.passes) {
    if (p.name == "optimize") {
      saw_optimize = true;
      EXPECT_LT(p.nodes_after, p.nodes_before);
    }
  }
  EXPECT_TRUE(saw_optimize);
}

}  // namespace
}  // namespace triad
