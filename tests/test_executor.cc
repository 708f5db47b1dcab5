// PlanRunner basics: dataflow through a compiled plan, eager freeing of
// intermediates, kept outputs, stash tags for backward-consumed tensors,
// the forward/backward split, and max-gather aux indices.
#include <gtest/gtest.h>

#include <memory>

#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/autodiff.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

Graph path3() { return Graph(3, {{0, 1}, {1, 2}, {0, 2}}); }

/// A private plan compiled for `g`: the one-shot form of compile-then-run.
std::shared_ptr<const ExecutionPlan> plan_for(const IrGraph& ir,
                                              const Graph& g) {
  return ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges());
}

TEST(PlanRunner, RunsScatterGatherChain) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 1, "x");
  const int e = ir.scatter(ScatterFn::CopyU, x, -1);
  const int v = ir.gather(ReduceFn::Sum, e);
  ir.mark_output(v);

  MemoryPool pool;
  PlanRunner ex(g, plan_for(ir, g), &pool);
  Tensor feat(3, 1, MemTag::kInput, &pool);
  feat.at(0, 0) = 1.f;
  feat.at(1, 0) = 2.f;
  feat.at(2, 0) = 4.f;
  ex.bind(x, feat);
  ex.run();
  const Tensor& out = ex.result(v);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 3.f);  // 2 + 1
}

TEST(PlanRunner, UnboundInputThrows) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 1, "x");
  const int e = ir.scatter(ScatterFn::CopyU, x, -1);
  ir.mark_output(e);
  PlanRunner ex(g, plan_for(ir, g));
  EXPECT_THROW(ex.run(), Error);
}

TEST(PlanRunner, BindShapeMismatchThrows) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  ir.mark_output(x);
  PlanRunner ex(g, plan_for(ir, g));
  EXPECT_THROW(ex.bind(x, Tensor::zeros(3, 3)), Error);   // wrong cols
  EXPECT_THROW(ex.bind(x, Tensor::zeros(2, 2)), Error);   // wrong rows
}

TEST(PlanRunner, FreesIntermediatesEagerly) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 64, "x");
  int h = x;
  // Long chain of elementwise ops: with eager freeing, peak should stay
  // near two live activations, not the whole chain.
  for (int i = 0; i < 16; ++i) h = ir.apply_unary(ApplyFn::ReLU, h);
  ir.mark_output(h);
  MemoryPool pool;
  PlanRunner ex(g, plan_for(ir, g), &pool);
  ex.bind(x, Tensor::zeros(3, 64, MemTag::kInput, &pool));
  ex.run();
  const std::size_t one = 3 * 64 * 4;
  EXPECT_LE(pool.peak_bytes(), 4 * one);  // input + ~2 activations headroom
}

TEST(PlanRunner, KeepsOutputsAlive) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int a = ir.apply_unary(ApplyFn::ReLU, x);
  const int b = ir.apply_unary(ApplyFn::Neg, a);
  ir.mark_output(a);
  ir.mark_output(b);
  PlanRunner ex(g, plan_for(ir, g));
  ex.bind(x, Tensor::full(3, 2, 2.f));
  ex.run();
  EXPECT_TRUE(ex.has_result(a));
  EXPECT_FLOAT_EQ(ex.result(a).at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(ex.result(b).at(0, 0), -2.f);
}

TEST(PlanRunner, RepeatedRunsAreStable) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 1, "x");
  const int e = ir.scatter(ScatterFn::CopyU, x, -1);
  const int v = ir.gather(ReduceFn::Sum, e);
  ir.mark_output(v);
  PlanRunner ex(g, plan_for(ir, g));
  ex.bind(x, Tensor::full(3, 1, 1.f));
  ex.run();
  const float first = ex.result(v).at(2, 0);
  ex.run();
  EXPECT_FLOAT_EQ(ex.result(v).at(2, 0), first);
}

TEST(PlanRunner, StashTagForBackwardConsumedTensors) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int w = ir.param(2, 2, "w");
  const int lin = ir.linear(x, w);
  const int act = ir.apply_unary(ApplyFn::ReLU, lin);
  ir.mark_output(act);
  BackwardResult bwd = build_backward(ir, act);
  ir.mark_output(bwd.param_grads[0].second);

  MemoryPool pool;
  PlanRunner ex(g, plan_for(ir, g), &pool);
  Rng rng(5);
  ex.bind(x, Tensor::randn(3, 2, rng, 1.f, MemTag::kInput, &pool));
  ex.bind(w, Tensor::randn(2, 2, rng, 1.f, MemTag::kWeights, &pool));
  ex.run_forward();
  // `lin` is consumed by ReLUGrad in the backward pass -> tagged stash.
  EXPECT_GT(pool.live_bytes(MemTag::kStash), 0u);
  Tensor seed = Tensor::full(3, 2, 1.f, MemTag::kGradient, &pool);
  ex.bind(bwd.seed_grad, seed);
  ex.run_backward();
  EXPECT_TRUE(ex.has_result(bwd.param_grads[0].second));
}

TEST(PlanRunner, SplitRunRequiresForwardFirst) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 2, "x");
  const int w = ir.param(2, 2, "w");
  const int lin = ir.linear(x, w);
  ir.mark_output(lin);
  BackwardResult bwd = build_backward(ir, lin);
  ir.mark_output(bwd.param_grads[0].second);
  PlanRunner ex(g, plan_for(ir, g));
  EXPECT_THROW(ex.run_backward(), Error);
}

TEST(PlanRunner, MaxGatherProducesAux) {
  Graph g = path3();
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 1, "x");
  const int e = ir.scatter(ScatterFn::CopyU, x, -1);
  const int v = ir.gather(ReduceFn::Max, e);
  ir.mark_output(v);
  PlanRunner ex(g, plan_for(ir, g));
  Tensor feat(3, 1);
  feat.at(0, 0) = 3.f;
  feat.at(1, 0) = 9.f;
  feat.at(2, 0) = 0.f;
  ex.bind(x, feat);
  ex.run();
  EXPECT_EQ(ex.aux_of(v).at(2, 0), 1);  // edge 1 (src 1, value 9) wins at v2
}

}  // namespace
}  // namespace triad
