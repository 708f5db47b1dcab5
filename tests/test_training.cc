// End-to-end training: losses decrease, accuracy rises above chance, and the
// optimized pipeline trains identically to the baseline over multiple steps.
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "graph/datasets.h"
#include "graph/knn.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

TEST(Training, GcnLearnsCitationLikeDataset) {
  Rng rng(1);
  Dataset data = make_dataset("cora", rng, 0.08, 0.03);
  GcnConfig cfg;
  cfg.in_dim = data.features.cols();
  cfg.hidden = {32};
  cfg.num_classes = data.num_classes;
  Compiled c = compile_model(api::Gcn(cfg).build(rng), ours(), true);
  MemoryPool pool;
  Trainer t(std::move(c), data.graph, data.features.clone(MemTag::kInput, &pool),
            Tensor{}, &pool);
  const float first = t.train_step(data.labels, 0.05f).loss;
  float last = first;
  for (int i = 0; i < 30; ++i) last = t.train_step(data.labels, 0.05f).loss;
  EXPECT_LT(last, first * 0.8f);
  EXPECT_GT(t.evaluate(data.labels), 1.5f / data.num_classes);
}

TEST(Training, GatLearnsUnderOursStrategy) {
  Rng rng(2);
  Dataset data = make_dataset("citeseer", rng, 0.08, 0.02);
  GatConfig cfg;
  cfg.in_dim = data.features.cols();
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = data.num_classes;
  Compiled c = compile_model(api::Gat(cfg).build(rng), ours(), true);
  MemoryPool pool;
  Trainer t(std::move(c), data.graph, data.features.clone(MemTag::kInput, &pool),
            Tensor{}, &pool);
  const float first = t.train_step(data.labels, 0.05f).loss;
  float last = first;
  for (int i = 0; i < 40; ++i) last = t.train_step(data.labels, 0.05f).loss;
  EXPECT_LT(last, first * 0.9f);
}

TEST(Training, MoNetLearns) {
  Rng rng(3);
  Dataset data = make_dataset("pubmed", rng, 0.02, 0.05);
  MoNetConfig cfg;
  cfg.in_dim = data.features.cols();
  cfg.hidden = 16;
  cfg.kernels = 2;
  cfg.pseudo_dim = 2;
  cfg.num_classes = data.num_classes;
  Compiled c = compile_model(api::MoNet(cfg).build(rng), ours(), true);
  MemoryPool pool;
  Trainer t(std::move(c), data.graph, data.features.clone(MemTag::kInput, &pool),
            make_pseudo_coords(data.graph, 2), &pool);
  const float first = t.train_step(data.labels, 0.05f).loss;
  float last = first;
  for (int i = 0; i < 40; ++i) last = t.train_step(data.labels, 0.05f).loss;
  EXPECT_LT(last, first * 0.9f);
}

TEST(Training, EdgeConvLearnsPointClouds) {
  Rng rng(4);
  PointCloudBatch batch = make_point_cloud_batch(48, 4, 8, 6, rng);
  // Per-point labels replicate the cloud label (systems-equivalent to cloud
  // classification; see DESIGN.md).
  IntTensor labels(batch.graph.num_vertices(), 1);
  for (std::int64_t v = 0; v < batch.graph.num_vertices(); ++v) {
    labels.at(v, 0) = batch.labels.at(v / 48, 0);
  }
  EdgeConvConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden = {16, 16};
  cfg.num_classes = 6;
  Compiled c = compile_model(api::EdgeConv(cfg).build(rng), ours(), true);
  MemoryPool pool;
  Trainer t(std::move(c), batch.graph, batch.coords.clone(MemTag::kInput, &pool),
            Tensor{}, &pool);
  const float first = t.train_step(labels, 0.03f).loss;
  float last = first;
  for (int i = 0; i < 40; ++i) last = t.train_step(labels, 0.03f).loss;
  EXPECT_LT(last, first * 0.9f);
}

TEST(Training, BaselineAndOursTrainIdentically) {
  // Multi-step weight trajectories must coincide (same updates).
  Rng drng(5);
  Dataset data = make_dataset("cora", drng, 0.05, 0.02);
  auto train = [&](const Strategy& s, int steps) {
    Rng rng(777);
    GatConfig cfg;
    cfg.in_dim = data.features.cols();
    cfg.hidden = 8;
    cfg.layers = 1;
    cfg.num_classes = data.num_classes;
    cfg.prereorganized = s.prereorganized_gat;
    cfg.builtin_softmax = s.builtin_softmax;
    Compiled c = compile_model(api::Gat(cfg).build(rng), s, true);
    MemoryPool pool;
    Trainer t(std::move(c), data.graph,
              data.features.clone(MemTag::kInput, &pool), Tensor{}, &pool);
    float loss = 0.f;
    for (int i = 0; i < steps; ++i) loss = t.train_step(data.labels, 0.02f).loss;
    return loss;
  };
  const float a = train(naive(), 8);
  const float b = train(ours(), 8);
  EXPECT_NEAR(a, b, 5e-3f);
}

TEST(Training, MetricsPopulated) {
  Rng rng(6);
  Dataset data = make_dataset("cora", rng, 0.04, 0.02);
  GcnConfig cfg;
  cfg.in_dim = data.features.cols();
  cfg.hidden = {8};
  cfg.num_classes = data.num_classes;
  Compiled c = compile_model(api::Gcn(cfg).build(rng), dgl_like(), true);
  MemoryPool pool;
  Trainer t(std::move(c), data.graph, data.features.clone(MemTag::kInput, &pool),
            Tensor{}, &pool);
  const StepMetrics m = t.train_step(data.labels, 0.01f);
  EXPECT_GT(m.loss, 0.f);
  EXPECT_GT(m.counters.io_bytes(), 0u);
  EXPECT_GT(m.counters.flops, 0u);
  EXPECT_GT(m.counters.kernel_launches, 0u);
  EXPECT_GT(m.peak_bytes, 0u);
  EXPECT_GE(m.seconds, 0.0);
}

TEST(Training, InferenceOnlyForwardThrowsOnTrainStep) {
  Rng rng(7);
  GcnConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden = {4};
  cfg.num_classes = 2;
  Compiled c = compile_model(api::Gcn(cfg).build(rng), ours(),
                             /*training=*/false);
  Rng drng(8);
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  MemoryPool pool;
  Trainer t(std::move(c), g, Tensor::randn(4, 4, drng, 1.f, MemTag::kInput, &pool),
            Tensor{}, &pool);
  IntTensor labels(4, 1);
  labels.fill(0);
  EXPECT_THROW(t.train_step(labels), Error);
  EXPECT_GT(t.forward(labels).loss, 0.f);
}

}  // namespace
}  // namespace triad
