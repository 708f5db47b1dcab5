// The central correctness property of the whole system: every execution
// strategy (DGL-like, fuseGNN-like, Ours, and all ablations) computes the
// SAME logits and the SAME parameter gradients for the same model and
// weights. Optimizations may only change cost, never semantics.
#include <gtest/gtest.h>

#include <functional>

#include "api/models.h"
#include "baselines/strategy.h"
#include "graph/generators.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(301);
  return gen::erdos_renyi(24, 150, rng);
}

struct RunResult {
  Tensor logits;
  std::vector<Tensor> grads;
  float loss;
};

/// Builds the model fresh (seeded), compiles under `s`, runs one training
/// step with lr=0 (pure gradient computation) and returns logits + grads.
RunResult run_strategy(
    const Strategy& s,
    const std::function<ModelGraph(Rng&, const Strategy&)>& build,
    const Graph& g, const Tensor& features, const IntTensor& labels,
    Tensor pseudo = {}) {
  Rng rng(4242);  // identical initial weights across strategies
  ModelGraph m = build(rng, s);
  Compiled c = compile_model(std::move(m), s, /*training=*/true);
  MemoryPool pool;
  Trainer trainer(std::move(c), g, features.clone(MemTag::kInput, &pool),
                  pseudo.defined() ? pseudo.clone(MemTag::kInput, &pool) : Tensor{},
                  &pool);
  StepMetrics metrics = trainer.train_step(labels, /*lr=*/0.f);
  RunResult r;
  r.loss = metrics.loss;
  r.logits = trainer.logits().clone();
  for (int gnode : trainer.model().param_grads) {
    r.grads.push_back(trainer.runner().result(gnode).clone());
  }
  return r;
}

void expect_equivalent(const RunResult& a, const RunResult& b,
                       const std::string& label, float tol = 5e-3f) {
  EXPECT_NEAR(a.loss, b.loss, 1e-3f) << label;
  EXPECT_LT(ops::max_abs_diff(a.logits, b.logits), tol) << label << " logits";
  ASSERT_EQ(a.grads.size(), b.grads.size()) << label;
  for (std::size_t i = 0; i < a.grads.size(); ++i) {
    // Gradients can be small; compare with mixed tolerance.
    EXPECT_TRUE(ops::allclose(a.grads[i], b.grads[i], tol, 1e-2f))
        << label << " grad " << i << " max|diff|="
        << ops::max_abs_diff(a.grads[i], b.grads[i]);
  }
}

std::vector<Strategy> all_strategies() {
  return {naive(),          dgl_like(),       fusegnn_like(),
          ours(),           ours_no_reorg(),  ours_no_fusion(),
          ours_fusion_stash(), ours_no_optimize()};
}

TEST(Equivalence, GatAllStrategiesAgree) {
  Graph g = test_graph();
  Rng drng(7);
  Tensor features = Tensor::randn(g.num_vertices(), 10, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 4);
  }
  auto build = [](Rng& rng, const Strategy& s) {
    GatConfig cfg;
    cfg.in_dim = 10;
    cfg.hidden = 12;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.num_classes = 4;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    return api::Gat(cfg).build(rng);
  };
  const auto strategies = all_strategies();
  const RunResult ref = run_strategy(strategies[0], build, g, features, labels);
  for (std::size_t i = 1; i < strategies.size(); ++i) {
    const RunResult r = run_strategy(strategies[i], build, g, features, labels);
    expect_equivalent(ref, r, "GAT vs " + strategies[i].name);
  }
}

TEST(Equivalence, EdgeConvAllStrategiesAgree) {
  Graph g = test_graph();
  Rng drng(8);
  Tensor features = Tensor::randn(g.num_vertices(), 3, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 5);
  }
  auto build = [](Rng& rng, const Strategy&) {
    EdgeConvConfig cfg;
    cfg.in_dim = 3;
    cfg.hidden = {8, 12};
    cfg.num_classes = 5;
    return api::EdgeConv(cfg).build(rng);
  };
  const auto strategies = all_strategies();
  const RunResult ref = run_strategy(strategies[0], build, g, features, labels);
  for (std::size_t i = 1; i < strategies.size(); ++i) {
    const RunResult r = run_strategy(strategies[i], build, g, features, labels);
    expect_equivalent(ref, r, "EdgeConv vs " + strategies[i].name);
  }
}

TEST(Equivalence, MoNetAllStrategiesAgree) {
  Graph g = test_graph();
  Rng drng(9);
  Tensor features = Tensor::randn(g.num_vertices(), 6, drng);
  Tensor pseudo = make_pseudo_coords(g, 2);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 3);
  }
  auto build = [](Rng& rng, const Strategy&) {
    MoNetConfig cfg;
    cfg.in_dim = 6;
    cfg.hidden = 8;
    cfg.kernels = 2;
    cfg.pseudo_dim = 2;
    cfg.num_classes = 3;
    return api::MoNet(cfg).build(rng);
  };
  const auto strategies = all_strategies();
  const RunResult ref = run_strategy(strategies[0], build, g, features, labels,
                                     pseudo);
  for (std::size_t i = 1; i < strategies.size(); ++i) {
    const RunResult r =
        run_strategy(strategies[i], build, g, features, labels, pseudo);
    expect_equivalent(ref, r, "MoNet vs " + strategies[i].name);
  }
}

TEST(Equivalence, GcnOursMatchesNaive) {
  Graph g = test_graph();
  Rng drng(10);
  Tensor features = Tensor::randn(g.num_vertices(), 8, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 4);
  }
  auto build = [](Rng& rng, const Strategy&) {
    GcnConfig cfg;
    cfg.in_dim = 8;
    cfg.hidden = {12};
    cfg.num_classes = 4;
    return api::Gcn(cfg).build(rng);
  };
  const RunResult a = run_strategy(naive(), build, g, features, labels);
  const RunResult b = run_strategy(ours(), build, g, features, labels);
  expect_equivalent(a, b, "GCN naive vs ours");
}

TEST(Equivalence, EdgeBalancedMappingAgrees) {
  // Force the edge-balanced preference: results must not change.
  Graph g = test_graph();
  Rng drng(11);
  Tensor features = Tensor::randn(g.num_vertices(), 8, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 4);
  }
  auto build = [](Rng& rng, const Strategy&) {
    GcnConfig cfg;
    cfg.in_dim = 8;
    cfg.hidden = {12};
    cfg.num_classes = 4;
    return api::Gcn(cfg).build(rng);
  };
  Strategy eb = ours();
  eb.mapping = WorkMapping::EdgeBalanced;
  const RunResult a = run_strategy(ours(), build, g, features, labels);
  const RunResult b = run_strategy(eb, build, g, features, labels);
  expect_equivalent(a, b, "vertex- vs edge-balanced");
}

// --- optimizer on/off bit-identity ------------------------------------------
//
// The generic optimizer (CSE/DCE/simplify) may only remove work, never
// change float semantics: every rewrite it applies is IEEE-exact. So for
// every model, fused or unfused, sharded or not, the optimized pipeline must
// produce the same logits and parameter-gradient values as the unoptimized
// one — compared with exact float equality, not a tolerance.

struct ModelCase {
  std::string name;
  std::function<ModelGraph(Rng&)> build;
  std::int64_t in_dim = 0;
  bool pseudo = false;
};

std::vector<ModelCase> optimizer_model_cases() {
  std::vector<ModelCase> cases;
  cases.push_back({"gcn",
                   [](Rng& rng) {
                     GcnConfig cfg;
                     cfg.in_dim = 8;
                     cfg.hidden = {12};
                     cfg.num_classes = 4;
                     return api::Gcn(cfg).build(rng);
                   },
                   8, false});
  cases.push_back({"gat",
                   [](Rng& rng) {
                     GatConfig cfg;
                     cfg.in_dim = 10;
                     cfg.hidden = 12;
                     cfg.heads = 2;
                     cfg.layers = 2;
                     cfg.num_classes = 4;
                     return api::Gat(cfg).build(rng);
                   },
                   10, false});
  cases.push_back({"monet",
                   [](Rng& rng) {
                     MoNetConfig cfg;
                     cfg.in_dim = 6;
                     cfg.hidden = 8;
                     cfg.kernels = 2;
                     cfg.pseudo_dim = 2;
                     cfg.num_classes = 3;
                     return api::MoNet(cfg).build(rng);
                   },
                   6, true});
  cases.push_back({"edgeconv",
                   [](Rng& rng) {
                     EdgeConvConfig cfg;
                     cfg.in_dim = 3;
                     cfg.hidden = {8, 12};
                     cfg.num_classes = 5;
                     return api::EdgeConv(cfg).build(rng);
                   },
                   3, false});
  return cases;
}

void expect_exactly_equal(const Tensor& a, const Tensor& b,
                          const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  EXPECT_EQ(ops::max_abs_diff(a, b), 0.f) << label;
}

TEST(Equivalence, OptimizerOnOffBitIdentical) {
  Graph g = test_graph();
  Rng drng(21);
  const auto cases = optimizer_model_cases();
  for (const ModelCase& mc : cases) {
    Tensor features = Tensor::randn(g.num_vertices(), mc.in_dim, drng);
    Tensor pseudo = mc.pseudo ? make_pseudo_coords(g, 2) : Tensor{};
    IntTensor labels(g.num_vertices(), 1);
    for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
      labels.at(v, 0) = static_cast<std::int32_t>(v % 3);
    }
    for (const bool fused : {true, false}) {
      for (const int shards : {1, 4}) {
        const Strategy base = fused ? ours() : ours_no_fusion();
        Strategy on = base;
        Strategy off = base;
        off.optimize = false;

        auto run = [&](const Strategy& s) {
          Rng rng(4242);
          Compiled c =
              compile_model(mc.build(rng), s, /*training=*/true, g, shards);
          MemoryPool pool;
          Trainer trainer(std::move(c), g,
                          features.clone(MemTag::kInput, &pool),
                          pseudo.defined() ? pseudo.clone(MemTag::kInput, &pool)
                                           : Tensor{},
                          &pool);
          trainer.train_step(labels, /*lr=*/0.f);
          RunResult r;
          r.logits = trainer.logits().clone();
          for (int gnode : trainer.model().param_grads) {
            r.grads.push_back(trainer.runner().result(gnode).clone());
          }
          return r;
        };
        const RunResult with = run(on);
        const RunResult without = run(off);
        const std::string label = mc.name + (fused ? "/fused" : "/unfused") +
                                  "/K=" + std::to_string(shards);
        expect_exactly_equal(with.logits, without.logits, label + " logits");
        ASSERT_EQ(with.grads.size(), without.grads.size()) << label;
        for (std::size_t i = 0; i < with.grads.size(); ++i) {
          expect_exactly_equal(with.grads[i], without.grads[i],
                               label + " grad " + std::to_string(i));
        }
      }
    }
  }
}

TEST(Equivalence, OursUsesLessStashMemoryOnGat) {
  // The qualitative Fig. 10 claim at unit-test scale: fusion+recompute stash
  // < fusion+stash stash < unfused stash.
  Graph g = test_graph();
  Rng drng(12);
  Tensor features = Tensor::randn(g.num_vertices(), 10, drng);
  IntTensor labels(g.num_vertices(), 1);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(v % 4);
  }
  auto build = [](Rng& rng, const Strategy& s) {
    GatConfig cfg;
    cfg.in_dim = 10;
    cfg.hidden = 16;
    cfg.layers = 1;
    cfg.num_classes = 4;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    return api::Gat(cfg).build(rng);
  };
  auto stash_of = [&](const Strategy& s) {
    Rng rng(4242);
    ModelGraph m = build(rng, s);
    Compiled c = compile_model(std::move(m), s, true);
    MemoryPool pool;
    Trainer t(std::move(c), g, features.clone(MemTag::kInput, &pool), Tensor{},
              &pool);
    t.train_step(labels, 0.f);
    return pool.peak_breakdown(MemTag::kStash);
  };
  const std::size_t unfused = stash_of(ours_no_fusion());
  const std::size_t stash = stash_of(ours_fusion_stash());
  const std::size_t recompute = stash_of(ours());
  EXPECT_LT(recompute, stash);
  EXPECT_LE(stash, unfused);
}

}  // namespace
}  // namespace triad
