// Deep integration scenarios: multi-layer stacks of every model family run
// through the complete pipeline (reorg + autodiff + recompute + fusion) and
// trained for several steps, asserting numerical agreement with the naive
// pipeline at every step plus the expected cost ordering.
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "graph/datasets.h"
#include "graph/knn.h"
#include "graph/reorder.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

struct Trajectory {
  std::vector<float> losses;
  std::uint64_t io = 0;
  std::size_t peak = 0;
};

Trajectory train(const Strategy& s, ModelGraph model, const Graph& g,
                 const Tensor& features, const Tensor& pseudo,
                 const IntTensor& labels, int steps, float lr) {
  Compiled c = compile_model(std::move(model), s, true);
  const bool has_pseudo = c.pseudo >= 0;
  MemoryPool pool;
  Trainer t(std::move(c), g, features.clone(MemTag::kInput, &pool),
            has_pseudo ? pseudo.clone(MemTag::kInput, &pool) : Tensor{}, &pool);
  Trajectory tr;
  for (int i = 0; i < steps; ++i) {
    const StepMetrics m = t.train_step(labels, lr);
    tr.losses.push_back(m.loss);
    tr.io += m.counters.io_bytes();
  }
  tr.peak = pool.peak_bytes();
  return tr;
}

void expect_same_trajectory(const Trajectory& a, const Trajectory& b,
                            const char* label) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_NEAR(a.losses[i], b.losses[i], 6e-3f)
        << label << " diverged at step " << i;
  }
}

TEST(Integration, DeepMultiHeadGat) {
  Rng drng(1);
  Dataset data = make_dataset("cora", drng, 0.08, 0.02);
  auto build = [&](const Strategy& s) {
    Rng rng(31);
    GatConfig cfg;
    cfg.in_dim = data.features.cols();
    cfg.hidden = 6;
    cfg.heads = 4;
    cfg.layers = 3;
    cfg.num_classes = data.num_classes;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    return api::Gat(cfg).build(rng);
  };
  const Trajectory naive_t = train(naive(), build(naive()), data.graph,
                                   data.features, {}, data.labels, 6, 0.03f);
  const Trajectory ours_t = train(ours(), build(ours()), data.graph,
                                  data.features, {}, data.labels, 6, 0.03f);
  expect_same_trajectory(naive_t, ours_t, "3-layer 4-head GAT");
  EXPECT_LT(ours_t.io, naive_t.io);
  EXPECT_LT(ours_t.peak, naive_t.peak);
  // Loss decreased over training.
  EXPECT_LT(ours_t.losses.back(), ours_t.losses.front());
}

TEST(Integration, FourLayerEdgeConvStack) {
  Rng drng(2);
  PointCloudBatch pc = make_point_cloud_batch(32, 4, 6, 8, drng);
  IntTensor labels(pc.graph.num_vertices(), 1);
  for (std::int64_t v = 0; v < pc.graph.num_vertices(); ++v) {
    labels.at(v, 0) = pc.labels.at(v / 32, 0);
  }
  auto build = [&](const Strategy&) {
    Rng rng(32);
    EdgeConvConfig cfg;
    cfg.in_dim = 3;
    cfg.hidden = {8, 8, 16, 16};
    cfg.num_classes = 8;
    return api::EdgeConv(cfg).build(rng);
  };
  const Trajectory a = train(naive(), build(naive()), pc.graph, pc.coords, {},
                             labels, 5, 0.02f);
  const Trajectory b = train(ours(), build(ours()), pc.graph, pc.coords, {},
                             labels, 5, 0.02f);
  expect_same_trajectory(a, b, "4-layer EdgeConv");
  EXPECT_LT(b.io, a.io);
}

TEST(Integration, ThreeLayerMoNetWithAdjustableKernels) {
  Rng drng(3);
  Dataset data = make_dataset("citeseer", drng, 0.06, 0.02);
  Tensor pseudo = make_pseudo_coords(data.graph, 3);
  auto build = [&](const Strategy&) {
    Rng rng(33);
    MoNetConfig cfg;
    cfg.in_dim = data.features.cols();
    cfg.hidden = 8;
    cfg.layers = 3;
    cfg.kernels = 3;
    cfg.pseudo_dim = 3;
    cfg.num_classes = data.num_classes;
    return api::MoNet(cfg).build(rng);
  };
  const Trajectory a = train(naive(), build(naive()), data.graph, data.features,
                             pseudo, data.labels, 5, 0.03f);
  const Trajectory b = train(ours(), build(ours()), data.graph, data.features,
                             pseudo, data.labels, 5, 0.03f);
  expect_same_trajectory(a, b, "3-layer MoNet");
}

TEST(Integration, ReorderedGraphSameTrainingLoss) {
  // Locality reordering composes with the optimization pipeline: training on
  // the BFS-clustered graph with permuted features yields the same losses.
  Rng drng(4);
  Dataset data = make_dataset("cora", drng, 0.06, 0.02);
  Permutation perm = bfs_clustering(data.graph);
  Graph pg = permute_graph(data.graph, perm);
  Tensor pf = permute_rows(data.features, perm);
  IntTensor pl = permute_rows(data.labels, perm);

  auto build = [&] {
    Rng rng(34);
    GcnConfig cfg;
    cfg.in_dim = data.features.cols();
    cfg.hidden = {12};
    cfg.num_classes = data.num_classes;
    return api::Gcn(cfg).build(rng);
  };
  const Trajectory orig = train(ours(), build(), data.graph, data.features, {},
                                data.labels, 5, 0.03f);
  const Trajectory perm_t = train(ours(), build(), pg, pf, {}, pl, 5, 0.03f);
  expect_same_trajectory(orig, perm_t, "reordered GCN");
}

TEST(Integration, MixedPrecisionOfCountsAcrossStrategies) {
  // The modeled IO of "Ours" must be below every other strategy for a
  // dense-enough GAT workload (the coordinated-optimization claim).
  Rng drng(5);
  Dataset data = make_dataset("pubmed", drng, 0.03, 0.02);
  auto io_of = [&](const Strategy& s) {
    Rng rng(35);
    GatConfig cfg;
    cfg.in_dim = data.features.cols();
    cfg.hidden = 16;
    cfg.layers = 2;
    cfg.num_classes = data.num_classes;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    return train(s, api::Gat(cfg).build(rng), data.graph, data.features, {},
                 data.labels, 2, 0.01f)
        .io;
  };
  const auto ours_io = io_of(ours());
  EXPECT_LT(ours_io, io_of(naive()));
  EXPECT_LT(ours_io, io_of(dgl_like()));
  EXPECT_LT(ours_io, io_of(fusegnn_like()));
}

TEST(Integration, AdamTrainsDeepGatUnderFullPipeline) {
  Rng drng(6);
  Dataset data = make_dataset("cora", drng, 0.06, 0.02);
  Rng rng(36);
  GatConfig cfg;
  cfg.in_dim = data.features.cols();
  cfg.hidden = 8;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = data.num_classes;
  Compiled c = compile_model(api::Gat(cfg).build(rng), ours(), true);
  MemoryPool pool;
  Trainer t(std::move(c), data.graph,
            data.features.clone(MemTag::kInput, &pool), Tensor{}, &pool);
  t.set_optimizer(std::make_unique<Adam>(0.02f));
  float first = 0.f, last = 0.f;
  for (int i = 0; i < 25; ++i) {
    const float loss = t.train_step(data.labels).loss;
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.8f);
  EXPECT_GT(t.evaluate(data.labels), 0.5f);
}

}  // namespace
}  // namespace triad
