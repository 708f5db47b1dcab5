// Failure injection: out-of-memory mid-run, malformed IR, bad bindings —
// the system must throw typed errors and leave the accounting consistent
// (no leaked bytes, no corrupted pool) so callers can recover, as the
// Figure-11 harness does when probing the fits/OOM boundary.
#include <gtest/gtest.h>

#include "baselines/strategy.h"
#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/autodiff.h"
#include <cstring>
#include <memory>

#include "api/models.h"
#include "graph/knn.h"
#include "models/models.h"
#include "models/trainer.h"
#include "serve/host.h"
#include "tensor/ops.h"
#include "support/rng.h"

namespace triad {
namespace {

Graph small_graph() {
  Rng rng(41);
  return gen::erdos_renyi(20, 120, rng);
}

TEST(FailureInjection, OomMidRunLeavesPoolConsistent) {
  Graph g = small_graph();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 64, "x");
  // Chain that allocates several big edge tensors.
  const int e1 = ir.scatter(ScatterFn::SubUV, x, x);
  const int e2 = ir.apply_unary(ApplyFn::ReLU, e1);
  const int e3 = ir.apply_unary(ApplyFn::Exp, e2);
  const int v = ir.gather(ReduceFn::Sum, e3);
  ir.mark_output(v);

  MemoryPool pool;
  // Enough for the input + one edge tensor, not two.
  pool.set_capacity(20 * 64 * 4 + 120 * 64 * 4 + 1024);
  {
    PlanRunner ex(g, ExecutionPlan::compile_shared(ir, g.num_vertices(),
                                                   g.num_edges()),
                  &pool);
    ex.bind(x, Tensor::zeros(20, 64, MemTag::kInput, &pool));
    EXPECT_THROW(ex.run(), OutOfMemory);
  }
  // Runner destroyed: everything it allocated must be returned.
  EXPECT_EQ(pool.live_bytes(), 0u);
}

TEST(FailureInjection, OomRecoveryRetryAtLargerCapacity) {
  // The Fig. 11 pattern: probe, catch, retry with a larger device.
  Graph g = small_graph();
  Rng rng(1);
  GcnConfig cfg;
  cfg.in_dim = 16;
  cfg.hidden = {32};
  cfg.num_classes = 3;
  IntTensor labels(20, 1);
  for (int i = 0; i < 20; ++i) labels.at(i, 0) = i % 3;

  auto attempt = [&](std::size_t cap) {
    Rng mrng(5);
    Compiled c = compile_model(api::Gcn(cfg).build(mrng), dgl_like(), true);
    MemoryPool pool;
    pool.set_capacity(cap);
    Rng frng(6);
    Trainer t(std::move(c), g,
              Tensor::randn(20, 16, frng, 1.f, MemTag::kInput, &pool), Tensor{},
              &pool);
    t.train_step(labels, 0.01f);
  };
  EXPECT_THROW(attempt(8 * 1024), OutOfMemory);
  EXPECT_NO_THROW(attempt(64 * 1024 * 1024));
}

TEST(FailureInjection, CyclicIrRejected) {
  IrGraph ir;
  Node n;
  n.kind = OpKind::Apply;
  n.afn = ApplyFn::ReLU;
  n.inputs = {0};  // self-reference at id 0
  EXPECT_THROW(ir.append(std::move(n)), Error);
}

TEST(FailureInjection, ForwardInputBoundToWrongSpaceThrows) {
  Graph g = small_graph();
  IrGraph ir;
  const int x = ir.input(Space::Edge, 0, 4, "edge_feat");
  const int v = ir.gather(ReduceFn::Sum, x);
  ir.mark_output(v);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  // Edge-space input needs |E| = 120 rows; 20 is wrong.
  EXPECT_THROW(ex.bind(x, Tensor::zeros(20, 4)), Error);
}

TEST(FailureInjection, MissingParamGradDetected) {
  // A param that the output does not depend on must be reported by
  // compile_model rather than silently skipped.
  Rng rng(2);
  ModelGraph m;
  m.features = m.ir.input(Space::Vertex, 0, 4, "features");
  const int w_used = m.ir.param(4, 4, "used");
  m.params.push_back(w_used);
  m.init.push_back(Tensor::xavier(4, 4, rng));
  const int orphan = m.ir.param(4, 4, "orphan");
  m.params.push_back(orphan);
  m.init.push_back(Tensor::xavier(4, 4, rng));
  m.output = m.ir.linear(m.features, w_used);
  m.ir.mark_output(m.output);
  EXPECT_THROW(compile_model(std::move(m), naive(), /*training=*/true), Error);
}

TEST(FailureInjection, BackwardBeforeForwardThrows) {
  Graph g = small_graph();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int w = ir.param(4, 4, "w");
  const int y = ir.linear(x, w);
  ir.mark_output(y);
  build_backward(ir, y);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  EXPECT_THROW(ex.run_backward(), Error);
}

TEST(FailureInjection, ResultOfFreedNodeThrows) {
  Graph g = small_graph();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int mid = ir.apply_unary(ApplyFn::ReLU, x);
  const int out = ir.apply_unary(ApplyFn::Neg, mid);
  ir.mark_output(out);
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  ex.bind(x, Tensor::zeros(20, 4));
  ex.run();
  EXPECT_THROW(ex.result(mid), Error);  // freed eagerly
  EXPECT_NO_THROW(ex.result(out));
}

TEST(FailureInjection, LabelsOutOfRangeThrow) {
  Tensor logits = Tensor::zeros(4, 3);
  IntTensor labels(4, 1);
  labels.fill(7);
  EXPECT_THROW(ops::softmax_cross_entropy(logits, labels, nullptr), Error);
}

// --- serving-host failure isolation ------------------------------------------

ModelGraph failinj_gcn() {
  GcnConfig cfg;
  cfg.in_dim = 6;
  cfg.hidden = {8};
  cfg.num_classes = 4;
  Rng rng(1234);
  return api::Gcn(cfg).build(rng);
}

serve::InferenceRequest failinj_request(std::int64_t points, unsigned seed,
                                        std::int64_t width = 6) {
  Rng rng(seed);
  const Tensor cloud = synthetic_point_cloud(points, 3, seed % 4, rng);
  serve::InferenceRequest req;
  req.graph = std::make_shared<const Graph>(points, knn_edges(cloud, 3));
  req.features = Tensor(points, width, MemTag::kInput);
  for (std::int64_t i = 0; i < req.features.numel(); ++i) {
    req.features.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return req;
}

TEST(FailureInjection, ReloadBuilderThrowLeavesServing) {
  // A builder that faults mid-reload must leave the old weights serving,
  // count nothing in reloads, and propagate its own error to the caller.
  serve::ServingHost host({.workers = 0});
  host.register_model("failinj/reload-throw", failinj_gcn);

  auto before = host.submit("failinj/reload-throw", failinj_request(8, 1));
  while (host.pump()) {
  }
  const Tensor expected = before.get().output;

  EXPECT_THROW(host.reload("failinj/reload-throw",
                           []() -> ModelGraph {
                             throw Error("weights store unavailable");
                           }),
               Error);
  EXPECT_EQ(host.stats("failinj/reload-throw").reloads, 0u);

  // Still serving, still the old weights.
  auto after = host.submit("failinj/reload-throw", failinj_request(8, 1));
  while (host.pump()) {
  }
  const Tensor out = after.get().output;
  ASSERT_EQ(out.rows(), expected.rows());
  EXPECT_EQ(std::memcmp(out.data(), expected.data(),
                        static_cast<std::size_t>(out.numel()) * sizeof(float)),
            0);
}

TEST(FailureInjection, ReloadShapeMismatchRejected) {
  // A reload whose parameters change shape (architecture drift) is refused
  // atomically: the error surfaces, the old weights keep serving.
  serve::ServingHost host({.workers = 0});
  host.register_model("failinj/reload-shape", failinj_gcn);
  EXPECT_THROW(host.reload("failinj/reload-shape",
                           [] {
                             GcnConfig cfg;
                             cfg.in_dim = 6;
                             cfg.hidden = {16};  // different hidden width
                             cfg.num_classes = 4;
                             Rng rng(1);
                             return api::Gcn(cfg).build(rng);
                           }),
               Error);
  EXPECT_EQ(host.stats("failinj/reload-shape").reloads, 0u);
  auto fut = host.submit("failinj/reload-shape", failinj_request(8, 2));
  while (host.pump()) {
  }
  EXPECT_NO_THROW(fut.get());
}

TEST(FailureInjection, WorkerFaultFailsOnlyThatBatch) {
  // One poisoned batch (wrong feature width) fails its own futures and
  // increments ServerStats::failed — while the same model and the *other*
  // model keep serving, and the host stays joinable.
  serve::HostConfig cfg;
  cfg.workers = 2;
  serve::ServingHost host(cfg);
  serve::ModelOptions mo;
  mo.batch.max_batch = 1;  // the poisoned request rides alone
  mo.batch.max_wait_us = 0;
  host.register_model("failinj/faulty", failinj_gcn, mo);
  host.register_model("failinj/healthy", failinj_gcn, mo);

  auto bad = host.submit("failinj/faulty", failinj_request(8, 3, /*width=*/3));
  EXPECT_THROW(bad.get(), Error);

  // The faulted model still serves the next request...
  auto good_same = host.submit("failinj/faulty", failinj_request(8, 4));
  EXPECT_NO_THROW(good_same.get());
  // ...and the other model never noticed.
  auto good_other = host.submit("failinj/healthy", failinj_request(8, 5));
  EXPECT_NO_THROW(good_other.get());

  host.shutdown();  // joinable: no worker died with the batch
  const serve::ServerStats faulty = host.stats("failinj/faulty");
  EXPECT_EQ(faulty.failed, 1u);
  EXPECT_EQ(faulty.completed, 1u);
  const serve::ServerStats healthy = host.stats("failinj/healthy");
  EXPECT_EQ(healthy.failed, 0u);
  EXPECT_EQ(healthy.completed, 1u);
}

}  // namespace
}  // namespace triad
