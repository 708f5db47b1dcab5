// The ParamServer split of training state (src/transport/param_server.h).
//
// Three contracts are pinned here:
//  * bit-identity: training through the ParamServer, sharded or not, must
//    not perturb a single bit. Every model × strategy × K comparison is
//    memcmp against the unsharded run;
//  * analytic traffic accounting — one train_step charges 2P+1 messages for
//    P parameters, and the parameters' bytes once each way;
//  * ParamServer state ownership — the optimizer and its momentum/Adam state
//    live server-side, attach() runs exactly once, and N push/pull round
//    trips reproduce the direct in-place update bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/triad.h"
#include "baselines/strategy.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "models/models.h"
#include "models/optim.h"
#include "models/trainer.h"
#include "support/counters.h"
#include "support/rng.h"
#include "tensor/ops.h"
#include "transport/param_server.h"

namespace triad {
namespace {

using transport::ParamServer;

Graph test_graph() {
  Rng rng(11);
  return gen::rmat(7, 1500, rng);  // 128 vertices, skewed degrees
}

Tensor random_features(std::int64_t n, std::int64_t d, MemoryPool* pool) {
  Rng rng(23);
  Tensor t(n, d, MemTag::kInput, pool);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

IntTensor random_labels(std::int64_t n, std::int32_t classes) {
  Rng rng(29);
  IntTensor t(n, 1);
  for (std::int64_t v = 0; v < n; ++v) {
    t.at(v, 0) = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return t;
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise";
}

// --- end-to-end bit identity -------------------------------------------------

struct RunResult {
  Tensor logits;
  std::vector<Tensor> params;
};

/// One deterministic training run; pseudo_dim > 0 builds the MoNet edge
/// pseudo-coordinates input.
template <typename BuildFn>
RunResult train_run(const Graph& g, BuildFn&& build, int shards, int steps,
                    std::int64_t in_dim, std::int64_t pseudo_dim,
                    const Strategy& strat) {
  Rng mrng(7);  // fixed: identical initial weights across runs
  Compiled c = compile_model(build(mrng), strat, /*training=*/true, g, shards,
                             PartitionStrategy::DegreeBalanced);
  std::vector<int> param_nodes = c.params;
  MemoryPool pool;
  Tensor pseudo =
      pseudo_dim > 0 ? make_pseudo_coords(g, pseudo_dim) : Tensor{};
  Trainer t(std::move(c), g, random_features(g.num_vertices(), in_dim, &pool),
            std::move(pseudo), &pool);
  const IntTensor labels = random_labels(g.num_vertices(), 4);
  for (int i = 0; i < steps; ++i) t.train_step(labels, 1e-2f);
  RunResult r{t.logits().clone(MemTag::kWorkspace), {}};
  for (int p : param_nodes) {
    r.params.push_back(t.runner().result(p).clone(MemTag::kWorkspace));
  }
  return r;
}

/// Sharded vs unsharded training through the ParamServer, all bitwise, for
/// one model under both the fused and unfused strategy (fusion changes which
/// programs have boundary reductions) and K in {1, 4, 8}.
template <typename BuildFn>
void check_bit_identity(const Graph& g, BuildFn&& build, std::int64_t in_dim,
                        std::int64_t pseudo_dim, const char* what) {
  for (const Strategy& strat : {ours(), ours_no_fusion()}) {
    // Anchor: the unsharded run.
    const RunResult base =
        train_run(g, build, /*shards=*/0, 2, in_dim, pseudo_dim, strat);
    for (int k : {1, 4, 8}) {
      const RunResult sharded =
          train_run(g, build, k, 2, in_dim, pseudo_dim, strat);
      expect_bit_identical(base.logits, sharded.logits, what);
      ASSERT_EQ(base.params.size(), sharded.params.size());
      for (std::size_t i = 0; i < base.params.size(); ++i) {
        expect_bit_identical(base.params[i], sharded.params[i], what);
      }
    }
  }
}

TEST(Transport, GcnBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        GcnConfig cfg;
        cfg.in_dim = 6;
        cfg.hidden = {8};
        cfg.num_classes = 4;
        return api::Gcn(cfg).build(r);
      },
      6, 0, "GCN");
}

TEST(Transport, GatBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        GatConfig cfg;
        cfg.in_dim = 6;
        cfg.hidden = 8;
        cfg.heads = 2;
        cfg.layers = 2;
        cfg.num_classes = 4;
        return api::Gat(cfg).build(r);
      },
      6, 0, "GAT");
}

TEST(Transport, EdgeConvBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        EdgeConvConfig cfg;
        cfg.in_dim = 5;
        cfg.hidden = {8, 8};
        cfg.num_classes = 4;
        return api::EdgeConv(cfg).build(r);
      },
      5, 0, "EdgeConv");
}

TEST(Transport, MoNetBitIdentical) {
  const Graph g = test_graph();
  check_bit_identity(
      g,
      [](Rng& r) {
        MoNetConfig cfg;
        cfg.in_dim = 5;
        cfg.hidden = 8;
        cfg.layers = 2;
        cfg.kernels = 2;
        cfg.pseudo_dim = 2;
        cfg.num_classes = 4;
        return api::MoNet(cfg).build(r);
      },
      5, 2, "MoNet");
}

TEST(ParamServer, TrainStepChargesAnalyticTraffic) {
  const Graph g = test_graph();
  const auto build = [](Rng& r) {
    GatConfig cfg;  // GAT: parameters of several shapes
    cfg.in_dim = 6;
    cfg.hidden = 8;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.num_classes = 4;
    return api::Gat(cfg).build(r);
  };
  CounterScope scope;
  const RunResult r = train_run(g, build, 4, 1, 6, 0, ours());
  const PerfCounters c = scope.delta();
  const std::uint64_t num_params = r.params.size();
  std::uint64_t param_bytes = 0;
  for (const Tensor& p : r.params) param_bytes += p.bytes();
  ASSERT_GT(num_params, 0u);
  // P gradient pushes, one pull request, P parameter replies.
  EXPECT_EQ(c.transport_msgs, 2 * num_params + 1);
  EXPECT_EQ(c.param_push_bytes, param_bytes);
  EXPECT_EQ(c.param_pull_bytes, param_bytes);
  EXPECT_EQ(c.transport_bytes, 2 * param_bytes);
}

// --- ParamServer state ownership ---------------------------------------------

std::vector<Tensor> fixed_params(MemoryPool* pool) {
  Rng rng(41);
  std::vector<Tensor> p;
  p.push_back(Tensor::randn(4, 3, rng, 1.f, MemTag::kWeights, pool));
  p.push_back(Tensor::randn(1, 5, rng, 1.f, MemTag::kWeights, pool));
  return p;
}

std::vector<Tensor> fixed_grads(MemoryPool* pool) {
  Rng rng(43);
  std::vector<Tensor> g;
  g.push_back(Tensor::randn(4, 3, rng, 1.f, MemTag::kGradient, pool));
  g.push_back(Tensor::randn(1, 5, rng, 1.f, MemTag::kGradient, pool));
  return g;
}

TEST(ParamServer, PlainSgdRoundTripMatchesDirectUpdate) {
  MemoryPool pool;
  std::vector<Tensor> init = fixed_params(&pool);
  std::vector<Tensor> grads = fixed_grads(&pool);
  std::vector<const Tensor*> gptrs;
  for (const Tensor& g : grads) gptrs.push_back(&g);
  constexpr float kLr = 3e-2f;
  constexpr int kSteps = 5;

  // Direct in-place SGD, p -= lr * g.
  std::vector<Tensor> direct;
  for (const Tensor& p : init) direct.push_back(p.clone(MemTag::kWeights));
  for (int s = 0; s < kSteps; ++s) {
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ops::axpy(direct[i], grads[i], -kLr);
    }
  }

  // Server-side: N push/pull round trips.
  std::vector<Tensor> server_init;
  for (const Tensor& p : init) server_init.push_back(p.clone(MemTag::kWeights));
  ParamServer ps(std::move(server_init));
  CounterScope scope;
  std::vector<Tensor> pulled;
  for (const Tensor& p : init) pulled.push_back(p.clone(MemTag::kWeights));
  for (int s = 0; s < kSteps; ++s) {
    ps.push_grads(gptrs, kLr);
    ps.pull_params(pulled);
  }
  for (std::size_t i = 0; i < direct.size(); ++i) {
    expect_bit_identical(direct[i], pulled[i], "SGD round trip");
    expect_bit_identical(direct[i], ps.params()[i], "server params");
  }
  // 5 steps x (2 grad msgs + 1 pull request + 2 reply msgs).
  EXPECT_EQ(scope.delta().transport_msgs, 5u * 5u);
}

/// Optimizer state (momentum velocities, Adam moments + timestep) lives
/// server-side and must survive N push/pull round trips bit-identically —
/// the satellite contract for moving the Optimizer into the ParamServer.
void check_optimizer_round_trip(std::unique_ptr<Optimizer> direct_opt,
                                std::unique_ptr<Optimizer> server_opt,
                                const char* what) {
  MemoryPool pool;
  std::vector<Tensor> init = fixed_params(&pool);
  std::vector<Tensor> grads = fixed_grads(&pool);
  std::vector<const Tensor*> gptrs;
  for (const Tensor& g : grads) gptrs.push_back(&g);
  constexpr int kSteps = 7;  // > 1: stale state would diverge by step 2

  std::vector<Tensor> direct;
  for (const Tensor& p : init) direct.push_back(p.clone(MemTag::kWeights));
  direct_opt->attach(direct);
  for (int s = 0; s < kSteps; ++s) direct_opt->step(direct, gptrs);

  std::vector<Tensor> server_init;
  for (const Tensor& p : init) server_init.push_back(p.clone(MemTag::kWeights));
  ParamServer ps(std::move(server_init));
  ps.set_optimizer(std::move(server_opt));
  std::vector<Tensor> pulled;
  for (const Tensor& p : init) pulled.push_back(p.clone(MemTag::kWeights));
  for (int s = 0; s < kSteps; ++s) {
    ps.push_grads(gptrs, /*lr=*/123.f);  // lr ignored with an optimizer
    ps.pull_params(pulled);
  }
  EXPECT_EQ(ps.attach_calls(), 1) << what;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    expect_bit_identical(direct[i], pulled[i], what);
  }
}

TEST(ParamServer, MomentumStateSurvivesRoundTrips) {
  check_optimizer_round_trip(
      std::make_unique<Sgd>(1e-2f, /*momentum=*/0.9f),
      std::make_unique<Sgd>(1e-2f, /*momentum=*/0.9f), "momentum SGD");
}

TEST(ParamServer, AdamStateSurvivesRoundTrips) {
  check_optimizer_round_trip(std::make_unique<Adam>(1e-3f),
                             std::make_unique<Adam>(1e-3f), "Adam");
}

TEST(ParamServer, TrainerRoutesThroughServerWithAdamBitIdentically) {
  // End to end: a Trainer with an installed Adam optimizer trains through
  // the ParamServer, which provably owns the optimizer (attach exactly once),
  // and a K=4 sharded run matches the unsharded one bit for bit.
  const Graph g = test_graph();
  const auto build = [](Rng& r) {
    GatConfig cfg;
    cfg.in_dim = 6;
    cfg.hidden = 8;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.num_classes = 4;
    return api::Gat(cfg).build(r);
  };
  const IntTensor labels = random_labels(g.num_vertices(), 4);
  auto run = [&](int shards) {
    Rng mrng(7);
    Compiled c = compile_model(build(mrng), ours(), /*training=*/true, g,
                               shards, PartitionStrategy::DegreeBalanced);
    MemoryPool pool;
    Trainer t(std::move(c), g,
              random_features(g.num_vertices(), 6, &pool), Tensor{}, &pool);
    t.set_optimizer(std::make_unique<Adam>(1e-3f));
    for (int i = 0; i < 3; ++i) t.train_step(labels);
    EXPECT_NE(t.param_server(), nullptr);
    if (t.param_server() != nullptr) {
      EXPECT_EQ(t.param_server()->attach_calls(), 1);
    }
    return t.logits().clone(MemTag::kWorkspace);
  };
  const Tensor sharded = run(4);
  const Tensor unsharded = run(0);
  expect_bit_identical(unsharded, sharded, "Adam training through ParamServer");
}

}  // namespace
}  // namespace triad
