// Asserts the paper's analytic cost claims against the engine's counters.
//
// Section 4: GAT attention-score computation costs 6|E|f + |E| naive and
//            4|V|f + 2|E| after reorganization.
// Section 5: fused GAT graph ops move strictly less DRAM than unfused
//            (paper: |V|hf + 7|E|h + 3|E|hf  ->  |V|hf + 5|E|h + 2|E|hf).
// Section 1 motivation: redundant ops dominate EdgeConv (92.4 % claim) and
//            stash dominates GAT training memory (91.9 % claim) — we assert
//            the dominance, not the exact percentage (graph-dependent).
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/passes/reorg.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/counters.h"
#include "support/rng.h"

namespace triad {
namespace {

/// Sum of Linear FLOPs when computing attention scores (naive vs reorg).
TEST(PaperFormulas, Section4GatScoreFlopRatio) {
  Rng rng(1);
  Graph g = gen::erdos_renyi(64, 1024, rng);  // |E| = 16 |V|
  const std::int64_t f = 32;

  auto score_flops = [&](bool reorganized) {
    IrGraph ir;
    const int ht = ir.input(Space::Vertex, 0, f, "ht");
    const int a = ir.param(2 * f, 1, "a");
    int s;
    if (!reorganized) {
      const int cat = ir.scatter(ScatterFn::ConcatUV, ht, ht);
      s = ir.linear(cat, a);
    } else {
      const int al = ir.linear(ht, a, 0, f);
      const int ar = ir.linear(ht, a, f, 2 * f);
      s = ir.scatter(ScatterFn::AddUV, al, ar);
    }
    const int lr = ir.apply_unary(ApplyFn::LeakyReLU, s, 0.2f);
    ir.mark_output(lr);
    PlanRunner ex(
        g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
    Rng local(2);
    ex.bind(ht, Tensor::randn(64, f, local));
    ex.bind(a, Tensor::randn(2 * f, 1, local));
    CounterScope scope;
    ex.run();
    return scope.delta().flops;
  };

  const auto naive_flops = static_cast<double>(score_flops(false));
  const auto reorg_flops = static_cast<double>(score_flops(true));
  // Paper model: naive ≈ 4|E|f mults (+adds) vs reorg ≈ 4|V|f. With
  // |E|/|V| = 16 the ratio should approach that factor; allow loose bounds
  // because the scatter/activation terms are graph-sized in both.
  const double ratio = naive_flops / reorg_flops;
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 40.0);
}

TEST(PaperFormulas, Section4ExactLinearCost) {
  // The Linear flops themselves follow 2·rows·k·n exactly.
  Rng rng(3);
  Graph g = gen::erdos_renyi(10, 50, rng);
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 8, "x");
  const int w = ir.param(8, 4, "w");
  const int y = ir.linear(x, w);
  ir.mark_output(y);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  Rng local(4);
  ex.bind(x, Tensor::randn(10, 8, local));
  ex.bind(w, Tensor::randn(8, 4, local));
  CounterScope scope;
  ex.run();
  EXPECT_EQ(scope.delta().flops, 2ull * 10 * 8 * 4);
}

TEST(PaperFormulas, Section5FusedIoStrictlyLess) {
  Rng rng(5);
  Graph g = gen::erdos_renyi(128, 2048, rng);
  auto graph_op_io = [&](const Strategy& s) {
    Rng mrng(99);
    GatConfig cfg;
    cfg.in_dim = 16;
    cfg.hidden = 16;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.num_classes = 4;
    cfg.prereorganized = true;  // isolate fusion: same op costs otherwise
    cfg.builtin_softmax = false;
    ModelGraph m = api::Gat(cfg).build(mrng);
    Compiled c = compile_model(std::move(m), s, /*training=*/false);
    PlanRunner ex(g, ExecutionPlan::compile_shared(c.ir, g.num_vertices(),
                                                   g.num_edges()));
    Rng local(6);
    ex.bind(c.features, Tensor::randn(128, 16, local));
    for (std::size_t i = 0; i < c.params.size(); ++i) {
      ex.bind(c.params[i], c.init[i].clone());
    }
    CounterScope scope;
    ex.run();
    return scope.delta();
  };
  Strategy fused = ours();
  fused.reorg = false;
  fused.recompute = false;
  const PerfCounters unfused = graph_op_io(naive());
  const PerfCounters with_fusion = graph_op_io(fused);
  EXPECT_LT(with_fusion.io_bytes(), unfused.io_bytes());
  EXPECT_LT(with_fusion.kernel_launches, unfused.kernel_launches);
  EXPECT_GT(with_fusion.onchip_bytes, unfused.onchip_bytes);
}

TEST(PaperFormulas, Section1StashDominatesGatTrainingMemory) {
  // "Intermediate data consume 91.9% of total memory" (GAT). On a dense
  // enough graph the stash share under the stash-everything baseline must
  // dominate weights+gradients by a wide margin.
  Rng rng(7);
  Graph g = gen::erdos_renyi(64, 4096, rng);  // avg degree 64
  Rng mrng(8);
  GatConfig cfg;
  cfg.in_dim = 16;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.num_classes = 4;
  cfg.prereorganized = true;
  cfg.builtin_softmax = true;
  Compiled c = compile_model(api::Gat(cfg).build(mrng), dgl_like(), true);
  MemoryPool pool;
  Rng local(9);
  Trainer t(std::move(c), g,
            Tensor::randn(64, 16, local, 1.f, MemTag::kInput, &pool), Tensor{},
            &pool);
  IntTensor labels(64, 1);
  for (int v = 0; v < 64; ++v) labels.at(v, 0) = v % 4;
  t.train_step(labels, 0.01f);
  // "Intermediate data" in the paper's measurement = everything that is not
  // model parameters: stashed forward tensors, transient activations, and
  // gradient tensors. Their share of the non-input peak must dominate.
  const double stash = static_cast<double>(pool.peak_breakdown(MemTag::kStash));
  const double activ =
      static_cast<double>(pool.peak_breakdown(MemTag::kActivations));
  const double grads =
      static_cast<double>(pool.peak_breakdown(MemTag::kGradient));
  const double total = static_cast<double>(pool.peak_bytes()) -
                       static_cast<double>(pool.peak_breakdown(MemTag::kInput));
  const double share = (stash + activ + grads) / total;
  EXPECT_GT(share, 0.9) << "intermediate share " << share;
  // And the stash alone dominates the weights by a wide margin.
  const double weights =
      static_cast<double>(pool.peak_breakdown(MemTag::kWeights));
  EXPECT_GT(stash, 5 * weights);
}

TEST(PaperFormulas, Section1RedundantOpsDominateEdgeConv) {
  // "Redundant computation accounts for 92.4% of operators" (EdgeConv): the
  // FLOPs removed by reorganization dominate the naive total when
  // |E| >> |V| (k-NN with k=20 gives exactly that regime).
  Rng rng(10);
  Graph g = gen::k_in_regular(128, 20, rng);
  auto flops_of = [&](const Strategy& s) {
    Rng mrng(11);
    EdgeConvConfig cfg;
    cfg.in_dim = 16;
    cfg.hidden = {16};
    cfg.num_classes = 4;
    Compiled c = compile_model(api::EdgeConv(cfg).build(mrng), s, false);
    PlanRunner ex(g, ExecutionPlan::compile_shared(c.ir, g.num_vertices(),
                                                   g.num_edges()));
    Rng local(12);
    ex.bind(c.features, Tensor::randn(128, 16, local));
    for (std::size_t i = 0; i < c.params.size(); ++i) {
      ex.bind(c.params[i], c.init[i].clone());
    }
    CounterScope scope;
    ex.run();
    return static_cast<double>(scope.delta().flops);
  };
  Strategy reorg_only = naive();
  reorg_only.reorg = true;
  const double naive_f = flops_of(naive());
  const double reorg_f = flops_of(reorg_only);
  // Removed share = redundant share of the Θ projection. With k=20 the
  // paper-level ~90 % regime appears once the classifier is discounted;
  // assert strong dominance.
  EXPECT_GT((naive_f - reorg_f) / naive_f, 0.55)
      << "redundant share " << (naive_f - reorg_f) / naive_f;
}

TEST(PaperFormulas, Section6RecomputeOverheadSmall) {
  // "Overhead by recomputation is <10%": recompute adds FLOPs but they are
  // lightweight; total FLOPs must grow by a small factor only.
  Rng rng(13);
  Graph g = gen::erdos_renyi(64, 1024, rng);
  auto flops_of = [&](const Strategy& s) {
    Rng mrng(14);
    GatConfig cfg;
    cfg.in_dim = 16;
    cfg.hidden = 16;
    cfg.layers = 1;
    cfg.num_classes = 4;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    Compiled c = compile_model(api::Gat(cfg).build(mrng), s, true);
    MemoryPool pool;
    Rng local(15);
    Trainer t(std::move(c), g,
              Tensor::randn(64, 16, local, 1.f, MemTag::kInput, &pool), Tensor{},
              &pool);
    IntTensor labels(64, 1);
    for (int v = 0; v < 64; ++v) labels.at(v, 0) = v % 4;
    return static_cast<double>(t.train_step(labels, 0.f).counters.flops);
  };
  const double stash_flops = flops_of(ours_fusion_stash());
  const double recompute_flops = flops_of(ours());
  EXPECT_LT(recompute_flops / stash_flops, 1.35)
      << "recompute flop overhead " << recompute_flops / stash_flops;
}

}  // namespace
}  // namespace triad
