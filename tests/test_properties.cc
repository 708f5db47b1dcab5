// Property-based tests: parameterized sweeps over graph shapes, feature
// widths, and strategies asserting the system's core invariants hold
// everywhere, not just on the hand-picked examples.
#include <gtest/gtest.h>

#include <tuple>

#include "api/models.h"
#include "baselines/strategy.h"
#include "engine/plan.h"
#include "engine/kernels.h"
#include "graph/generators.h"
#include "ir/autodiff.h"
#include "ir/passes/fusion.h"
#include "ir/passes/recompute.h"
#include "ir/passes/reorg.h"
#include "models/models.h"
#include "models/trainer.h"
#include "serve/slo.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

// ---------------------------------------------------------------------------
// Property 1: fused == unfused for a scatter-apply-gather chain, across graph
// shapes × widths × reduce fns.
// ---------------------------------------------------------------------------
class FusionEquivalenceP
    : public ::testing::TestWithParam<std::tuple<int, int, int, ReduceFn>> {};

TEST_P(FusionEquivalenceP, FusedMatchesUnfused) {
  const auto [n, m, f, rfn] = GetParam();
  Rng rng(n * 31 + m * 7 + f);
  Graph g = gen::erdos_renyi(n, m, rng);

  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, f, "x");
  const int e = ir.scatter(ScatterFn::SubUV, x, x);
  const int r = ir.apply_unary(ApplyFn::LeakyReLU, e, 0.2f);
  const int v = ir.gather(rfn, r);
  ir.mark_output(v);
  IrGraph fused = fusion_pass(ir);

  Tensor outs[2];
  const IrGraph* graphs[2] = {&ir, &fused};
  for (int i = 0; i < 2; ++i) {
    PlanRunner ex(g, ExecutionPlan::compile_shared(*graphs[i], g.num_vertices(),
                                                   g.num_edges()));
    Rng local(55);
    ex.bind(0, Tensor::randn(n, f, local));
    ex.run();
    outs[i] = ex.result(graphs[i]->outputs[0]).clone();
  }
  EXPECT_LT(ops::max_abs_diff(outs[0], outs[1]), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusionEquivalenceP,
    ::testing::Combine(::testing::Values(8, 33, 127),
                       ::testing::Values(20, 200, 800),
                       ::testing::Values(1, 7, 32),
                       ::testing::Values(ReduceFn::Sum, ReduceFn::Max,
                                         ReduceFn::Mean)));

// ---------------------------------------------------------------------------
// Property 2: both thread mappings agree on every graph shape (Figure 5).
// ---------------------------------------------------------------------------
class MappingEquivalenceP
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MappingEquivalenceP, VertexAndEdgeBalancedAgree) {
  const auto [n, m, f] = GetParam();
  Rng rng(n + m + f);
  Graph g = gen::erdos_renyi(n, m, rng);
  Tensor edge_feat = Tensor::randn(m, f, rng);
  Tensor a(n, f), b(n, f);
  kernels::gather(g, ReduceFn::Sum, false, edge_feat, a, nullptr);
  kernels::gather_edge_balanced(g, edge_feat, b, false);
  EXPECT_LT(ops::max_abs_diff(a, b), 1e-2f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MappingEquivalenceP,
                         ::testing::Combine(::testing::Values(4, 64, 256),
                                            ::testing::Values(16, 512, 2048),
                                            ::testing::Values(1, 9)));

// ---------------------------------------------------------------------------
// Property 3: the reorg identity φ(g(u,v)) = g(φ(u),φ(v)) holds numerically
// for every distributive scatter across widths.
// ---------------------------------------------------------------------------
class ReorgIdentityP
    : public ::testing::TestWithParam<std::tuple<ScatterFn, int>> {};

TEST_P(ReorgIdentityP, RewriteIsExact) {
  const auto [sfn, f] = GetParam();
  Rng rng(static_cast<unsigned>(f) * 13 + static_cast<unsigned>(sfn));
  Graph g = gen::erdos_renyi(19, 120, rng);
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, f, "x");
  const std::int64_t wrows = sfn == ScatterFn::ConcatUV ? 2 * f : f;
  const int w = ir.param(wrows, 3, "w");
  const int e = ir.scatter(sfn, x, x);
  const int p = ir.linear(e, w);
  ir.mark_output(p);
  ReorgStats stats;
  IrGraph opt = reorg_pass(ir, &stats);
  EXPECT_EQ(stats.rewrites, 1);

  Tensor outs[2];
  const IrGraph* graphs[2] = {&ir, &opt};
  for (int i = 0; i < 2; ++i) {
    PlanRunner ex(g, ExecutionPlan::compile_shared(*graphs[i], g.num_vertices(),
                                                   g.num_edges()));
    Rng local(77);
    Tensor xv = Tensor::randn(19, f, local);
    Tensor wv = Tensor::randn(wrows, 3, local);
    for (const Node& node : graphs[i]->nodes()) {
      if (node.kind == OpKind::Input) ex.bind(node.id, xv);
      if (node.kind == OpKind::Param) ex.bind(node.id, wv);
    }
    ex.run();
    outs[i] = ex.result(graphs[i]->outputs[0]).clone();
  }
  EXPECT_LT(ops::max_abs_diff(outs[0], outs[1]), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Fns, ReorgIdentityP,
    ::testing::Combine(::testing::Values(ScatterFn::AddUV, ScatterFn::SubUV,
                                         ScatterFn::CopyU, ScatterFn::CopyV,
                                         ScatterFn::ConcatUV),
                       ::testing::Values(2, 5, 16)));

// ---------------------------------------------------------------------------
// Property 4: recomputation never changes gradients, across models × budget.
// ---------------------------------------------------------------------------
class RecomputeInvarianceP : public ::testing::TestWithParam<int> {};

TEST_P(RecomputeInvarianceP, GradsInvariantUnderBudget) {
  const int budget = GetParam();
  Rng rng(budget * 97);
  Graph g = gen::erdos_renyi(15, 90, rng);
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 3, "x");
  const int w = ir.param(3, 3, "w");
  const int h = ir.linear(x, w);
  const int s = ir.scatter(ScatterFn::AddUV, h, h);
  const int lr = ir.apply_unary(ApplyFn::LeakyReLU, s, 0.1f);
  const int e = ir.apply_unary(ApplyFn::Exp, lr);
  const int out = ir.gather(ReduceFn::Sum, e);
  ir.mark_output(out);
  BackwardResult bwd = build_backward(ir, out);
  for (auto& [p, gr] : bwd.param_grads) ir.mark_output(gr);

  RecomputeOptions opts;
  opts.max_ops_per_element = budget;
  IrGraph rc = recompute_pass(ir, opts);

  std::vector<Tensor> outs[2];
  const IrGraph* graphs[2] = {&ir, &rc};
  for (int i = 0; i < 2; ++i) {
    PlanRunner ex(g, ExecutionPlan::compile_shared(*graphs[i], g.num_vertices(),
                                                   g.num_edges()));
    Rng local(11);
    for (const Node& n : graphs[i]->nodes()) {
      if (n.kind == OpKind::Input || n.kind == OpKind::Param) {
        const std::int64_t rows = n.space == Space::Vertex ? g.num_vertices()
                                  : n.space == Space::Edge ? g.num_edges()
                                                           : n.rows;
        ex.bind(n.id, Tensor::randn(rows, n.cols, local));
      }
    }
    ex.run();
    for (int o : graphs[i]->outputs) outs[i].push_back(ex.result(o).clone());
  }
  for (std::size_t k = 0; k < outs[0].size(); ++k) {
    EXPECT_LT(ops::max_abs_diff(outs[0][k], outs[1][k]), 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, RecomputeInvarianceP,
                         ::testing::Values(0, 1, 2, 4, 8, 64));

// ---------------------------------------------------------------------------
// Property 5: GAT training-step equivalence naive vs ours across graph
// skewness (uniform and power-law) and head counts.
// ---------------------------------------------------------------------------
class GatStrategyP : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(GatStrategyP, NaiveMatchesOurs) {
  const auto [power_law, heads] = GetParam();
  Rng rng(heads * 3 + (power_law ? 1 : 0));
  Graph g = power_law ? gen::rmat(6, 300, rng) : gen::erdos_renyi(64, 300, rng);
  Tensor features = Tensor::randn(g.num_vertices(), 6, rng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 3);
  }
  auto loss_of = [&](const Strategy& s) {
    Rng mrng(31337);
    GatConfig cfg;
    cfg.in_dim = 6;
    cfg.hidden = 5;
    cfg.heads = heads;
    cfg.layers = 2;
    cfg.num_classes = 3;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    Compiled c = compile_model(api::Gat(cfg).build(mrng), s, true);
    MemoryPool pool;
    Trainer t(std::move(c), g, features.clone(MemTag::kInput, &pool), Tensor{},
              &pool);
    float l = 0.f;
    for (int i = 0; i < 3; ++i) l = t.train_step(labels, 0.05f).loss;
    return l;
  };
  EXPECT_NEAR(loss_of(naive()), loss_of(ours()), 5e-3f);
}

INSTANTIATE_TEST_SUITE_P(Regimes, GatStrategyP,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Property 6: memory monotonicity — recompute stash ≤ stash-mode stash for
// every model family.
// ---------------------------------------------------------------------------
class StashMonotoneP : public ::testing::TestWithParam<int> {};

TEST_P(StashMonotoneP, RecomputeNeverIncreasesStash) {
  const int model = GetParam();
  Rng rng(model * 5 + 1);
  Graph g = gen::erdos_renyi(32, 400, rng);
  Tensor features = Tensor::randn(32, 6, rng);
  Tensor pseudo = make_pseudo_coords(g, 2);
  IntTensor labels(32, 1);
  for (int v = 0; v < 32; ++v) labels.at(v, 0) = v % 3;

  auto stash_of = [&](const Strategy& s) {
    Rng mrng(4242);
    ModelGraph m;
    if (model == 0) {
      GatConfig cfg;
      cfg.in_dim = 6;
      cfg.hidden = 8;
      cfg.layers = 1;
      cfg.num_classes = 3;
      cfg.prereorganized = s.prereorganized_gat;
      cfg.builtin_softmax = s.builtin_softmax;
      m = api::Gat(cfg).build(mrng);
    } else if (model == 1) {
      EdgeConvConfig cfg;
      cfg.in_dim = 6;
      cfg.hidden = {8};
      cfg.num_classes = 3;
      m = api::EdgeConv(cfg).build(mrng);
    } else {
      MoNetConfig cfg;
      cfg.in_dim = 6;
      cfg.hidden = 8;
      cfg.kernels = 2;
      cfg.pseudo_dim = 2;
      cfg.num_classes = 3;
      m = api::MoNet(cfg).build(mrng);
    }
    Compiled c = compile_model(std::move(m), s, true);
    const bool has_pseudo = c.pseudo >= 0;
    MemoryPool pool;
    Trainer t(std::move(c), g, features.clone(MemTag::kInput, &pool),
              has_pseudo ? pseudo.clone(MemTag::kInput, &pool) : Tensor{},
              &pool);
    t.train_step(labels, 0.f);
    return pool.peak_breakdown(MemTag::kStash);
  };
  EXPECT_LE(stash_of(ours()), stash_of(ours_fusion_stash()));
}

INSTANTIATE_TEST_SUITE_P(Models, StashMonotoneP, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Property: the SLO batch controller (serve/slo.h) is monotone, clamped, and
// convergent. Pure controller unit — no threads, no clocks: observations are
// fed synthetically and the effective knobs are read back.
// ---------------------------------------------------------------------------

serve::SloPolicy slo_policy(std::int64_t target_us) {
  serve::SloPolicy p;
  p.enabled = true;
  p.target_p99_us = target_us;
  p.min_wait_us = 10;
  p.min_samples = 1;
  return p;
}

serve::BatchPolicy slo_base(std::int64_t max_wait_us, int max_batch) {
  serve::BatchPolicy b;
  b.max_wait_us = max_wait_us;
  b.max_batch = max_batch;
  return b;
}

class SloMonotoneP : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SloMonotoneP, HigherObservedTailNeverRaisesWait) {
  // For a fixed controller state, wait(p99) is non-increasing in p99: sweep
  // a grid of observations over fresh controllers and require ordering.
  const std::int64_t target_us = GetParam();
  const double target = static_cast<double>(target_us) * 1e-6;
  std::int64_t prev_wait = -1;
  double prev_obs = 0;
  for (const double scale : {0.1, 0.5, 0.69, 0.9, 1.0, 1.5, 4.0, 100.0}) {
    serve::SloBatchController c(slo_policy(target_us), slo_base(2000, 8));
    c.observe_p99(scale * target);
    const std::int64_t wait = c.effective_wait_us();
    if (prev_wait >= 0) {
      EXPECT_LE(wait, prev_wait)
          << "observation " << scale * target << "s raised the wait that "
          << prev_obs << "s produced";
    }
    prev_wait = wait;
    prev_obs = scale * target;
  }

  // And along a trace that stays above target, the wait sequence itself is
  // non-increasing (shrinks compose; there is no hidden rebound).
  serve::SloBatchController c(slo_policy(target_us), slo_base(2000, 8));
  std::int64_t last = c.effective_wait_us();
  for (int i = 0; i < 64; ++i) {
    c.observe_p99(target * (1.1 + 0.2 * (i % 5)));
    EXPECT_LE(c.effective_wait_us(), last);
    last = c.effective_wait_us();
  }
  EXPECT_GE(c.shrinks(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Targets, SloMonotoneP,
                         ::testing::Values(500, 2000, 100000));

TEST(SloController, ClampsToConfiguredBounds) {
  serve::SloBatchController c(slo_policy(1000), slo_base(800, 6));
  const double target = 1000e-6;
  // Gross violations forever: wait bottoms out at min_wait, then max-batch
  // steps down to min_batch, and neither ever goes below.
  for (int i = 0; i < 200; ++i) c.observe_p99(1000 * target);
  EXPECT_EQ(c.effective_wait_us(), 10);
  EXPECT_EQ(c.effective_max_batch(), 1);
  for (int i = 0; i < 10; ++i) c.observe_p99(1000 * target);
  EXPECT_EQ(c.effective_wait_us(), 10);
  EXPECT_EQ(c.effective_max_batch(), 1);
  // Deep headroom forever: max-batch recovers to the base first, the wait
  // grows back, and neither ever exceeds the static knobs.
  for (int i = 0; i < 200; ++i) c.observe_p99(0.01 * target);
  EXPECT_EQ(c.effective_wait_us(), 800);
  EXPECT_EQ(c.effective_max_batch(), 6);
  for (int i = 0; i < 10; ++i) c.observe_p99(0.01 * target);
  EXPECT_EQ(c.effective_wait_us(), 800);
  EXPECT_EQ(c.effective_max_batch(), 6);
  // Observations inside the stability band change nothing.
  const std::uint64_t updates = c.updates();
  c.observe_p99(0.8 * target);
  EXPECT_EQ(c.effective_wait_us(), 800);
  EXPECT_EQ(c.effective_max_batch(), 6);
  EXPECT_EQ(c.updates(), updates + 1);
  // Disabled controllers and empty observations are no-ops.
  serve::SloPolicy off;
  off.enabled = false;
  serve::SloBatchController d(off, slo_base(800, 6));
  d.observe_p99(1.0);
  EXPECT_EQ(d.effective_wait_us(), 800);
  EXPECT_EQ(d.updates(), 0u);
  c.observe_p99(0.0);
  EXPECT_EQ(c.updates(), updates + 1);
}

TEST(SloController, ConvergesOnSyntheticLatencyTrace) {
  // Synthetic plant: p99(wait) = base + alpha * wait — tail latency is the
  // service floor plus the batching wait. For targets above the floor the
  // closed loop must settle with p99 at or under target while retaining as
  // much wait as the stability band allows; for targets below the floor it
  // must pin the knobs at their minimum (the best it can do).
  struct Plant {
    double base_s, alpha;
  };
  for (const Plant plant : {Plant{300e-6, 1.0}, Plant{300e-6, 3.0},
                            Plant{1500e-6, 0.5}}) {
    serve::SloBatchController c(slo_policy(2000), slo_base(5000, 8));
    double p99 = 0;
    for (int i = 0; i < 200; ++i) {
      const double wait_s =
          static_cast<double>(c.effective_wait_us()) * 1e-6;
      p99 = plant.base_s + plant.alpha * wait_s;
      c.observe_p99(p99);
    }
    EXPECT_LE(p99, 2000e-6 * 1.05)
        << "alpha=" << plant.alpha << " base=" << plant.base_s;
    EXPECT_GE(c.updates(), 200u);
    EXPECT_GE(c.shrinks(), 1u);  // started at wait=5000us: must have engaged
  }
  // Target below the service floor: nothing can meet it; the controller
  // pins wait at min and max-batch at min instead of oscillating.
  serve::SloBatchController c(slo_policy(100), slo_base(5000, 8));
  for (int i = 0; i < 300; ++i) {
    const double wait_s = static_cast<double>(c.effective_wait_us()) * 1e-6;
    c.observe_p99(300e-6 + wait_s);
  }
  EXPECT_EQ(c.effective_wait_us(), 10);
  EXPECT_EQ(c.effective_max_batch(), 1);
}

}  // namespace
}  // namespace triad
