// Gradient checking: every autodiff rule is validated against central finite
// differences of a scalar loss L = <seed, output> through a PlanRunner.
#include <gtest/gtest.h>

#include <functional>

#include "engine/plan.h"
#include "graph/generators.h"
#include "ir/autodiff.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

/// Builds ir via `make` (returns output node), runs autodiff, then compares
/// every param gradient against finite differences.
void grad_check(
    const Graph& g,
    const std::function<int(IrGraph&, std::vector<int>&)>& make,
    float tol = 2e-2f, unsigned seed = 7) {
  IrGraph ir;
  std::vector<int> params;
  const int out = make(ir, params);
  ir.mark_output(out);
  BackwardResult bwd = build_backward(ir, out);
  for (auto& [p, gr] : bwd.param_grads) ir.mark_output(gr);

  Rng rng(seed);
  // Bind inputs/params with random data.
  std::vector<std::pair<int, Tensor>> bound;
  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  for (const Node& n : ir.nodes()) {
    if (n.kind == OpKind::Param ||
        (n.kind == OpKind::Input && n.id != bwd.seed_grad)) {
      const std::int64_t rows = n.space == Space::Vertex ? g.num_vertices()
                                : n.space == Space::Edge ? g.num_edges()
                                                         : n.rows;
      Tensor t = Tensor::randn(rows, n.cols, rng, 0.7f);
      ex.bind(n.id, t);
      bound.emplace_back(n.id, t);
    }
  }
  const Node& on = ir.node(out);
  const std::int64_t orows =
      on.space == Space::Vertex ? g.num_vertices() : g.num_edges();
  Tensor seed_t = Tensor::randn(orows, on.cols, rng, 1.f);
  ex.bind(bwd.seed_grad, seed_t);

  auto loss = [&]() {
    ex.run_forward();
    const Tensor& o = ex.result(out);
    double l = 0;
    for (std::int64_t i = 0; i < o.numel(); ++i) {
      l += static_cast<double>(seed_t.data()[i]) * o.data()[i];
    }
    return l;
  };

  ex.run();
  std::vector<Tensor> grads;
  for (auto& [p, gr] : bwd.param_grads) grads.push_back(ex.result(gr).clone());

  const float eps = 1e-3f;
  for (std::size_t pi = 0; pi < bwd.param_grads.size(); ++pi) {
    const int pid = bwd.param_grads[pi].first;
    Tensor* pt = nullptr;
    for (auto& [id, t] : bound) {
      if (id == pid) pt = &t;
    }
    ASSERT_NE(pt, nullptr);
    // Probe a handful of entries.
    const std::int64_t n = pt->numel();
    for (std::int64_t i = 0; i < n; i += std::max<std::int64_t>(1, n / 7)) {
      float* v = pt->data() + i;
      const float save = *v;
      *v = save + eps;
      const double lp = loss();
      *v = save - eps;
      const double lm = loss();
      *v = save;
      const double num = (lp - lm) / (2 * eps);
      EXPECT_NEAR(grads[pi].data()[i], num, tol + 0.02 * std::fabs(num))
          << "param node " << pid << " entry " << i;
    }
  }
}

Graph small_graph() {
  Rng rng(3);
  return gen::erdos_renyi(10, 40, rng);
}

TEST(Autodiff, LinearBiasRelu) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 3, "x");
    const int w = ir.param(3, 4, "w");
    const int b = ir.param(1, 4, "b");
    return ir.apply_unary(ApplyFn::ReLU, ir.bias(ir.linear(x, w), b));
  });
}

TEST(Autodiff, ScatterCopyUGather) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 3, "x");
    const int w = ir.param(3, 3, "w");
    const int h = ir.linear(x, w);
    const int e = ir.scatter(ScatterFn::CopyU, h, -1);
    return ir.gather(ReduceFn::Sum, e);
  });
}

TEST(Autodiff, ScatterAddSubUV) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int wa = ir.param(2, 3, "wa");
    const int wb = ir.param(2, 3, "wb");
    const int a = ir.linear(x, wa);
    const int b = ir.linear(x, wb);
    const int e1 = ir.scatter(ScatterFn::AddUV, a, b);
    const int e2 = ir.scatter(ScatterFn::SubUV, a, b);
    const int s = ir.apply_binary(ApplyFn::Mul, e1, e2);
    return ir.gather(ReduceFn::Sum, s);
  });
}

TEST(Autodiff, ScatterMulUV) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int w = ir.param(2, 2, "w");
    const int h = ir.linear(x, w);
    const int e = ir.scatter(ScatterFn::MulUV, h, h);
    return ir.gather(ReduceFn::Sum, e);
  });
}

TEST(Autodiff, ScatterConcatLinear) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int w = ir.param(2, 2, "w");
    const int a = ir.param(4, 1, "a");
    const int h = ir.linear(x, w);
    const int cat = ir.scatter(ScatterFn::ConcatUV, h, h);
    const int s = ir.linear(cat, a);
    return ir.gather(ReduceFn::Sum, s);
  });
}

TEST(Autodiff, GatherMax) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 3, "x");
    const int w = ir.param(3, 3, "w");
    const int h = ir.linear(x, w);
    const int e = ir.scatter(ScatterFn::SubUV, h, h);
    return ir.gather(ReduceFn::Max, e);
  });
}

TEST(Autodiff, GatherMean) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 3, "x");
    const int w = ir.param(3, 2, "w");
    const int h = ir.linear(x, w);
    const int e = ir.scatter(ScatterFn::CopyU, h, -1);
    return ir.gather(ReduceFn::Mean, e);
  });
}

TEST(Autodiff, ActivationChain) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 3, "x");
    const int w = ir.param(3, 3, "w");
    int h = ir.linear(x, w);
    h = ir.apply_unary(ApplyFn::LeakyReLU, h, 0.1f);
    h = ir.apply_unary(ApplyFn::ELU, h, 1.f);
    h = ir.apply_unary(ApplyFn::Scale, h, 0.5f);
    h = ir.apply_unary(ApplyFn::Neg, h);
    return h;
  });
}

TEST(Autodiff, ExpDivSoftmaxPieces) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int w = ir.param(2, 1, "w");
    const int h = ir.linear(x, w);
    const int s = ir.scatter(ScatterFn::AddUV, h, h);
    const int mx = ir.gather(ReduceFn::Max, s);
    const int mxe = ir.scatter(ScatterFn::CopyV, mx, -1);
    const int sh = ir.apply_binary(ApplyFn::Sub, s, mxe);
    const int ex = ir.apply_unary(ApplyFn::Exp, sh);
    const int dn = ir.gather(ReduceFn::Sum, ex);
    const int dne = ir.scatter(ScatterFn::CopyV, dn, -1);
    const int sm = ir.apply_binary(ApplyFn::Div, ex, dne);
    return ir.gather(ReduceFn::Sum, sm);
  }, /*tol=*/3e-2f);
}

TEST(Autodiff, BuiltinEdgeSoftmax) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int w = ir.param(2, 1, "w");
    const int h = ir.linear(x, w);
    const int s = ir.scatter(ScatterFn::AddUV, h, h);
    const int sm = ir.special(SpecialFn::EdgeSoftmax, {s}, 0, 1, Space::Edge);
    return ir.gather(ReduceFn::Sum, sm);
  }, /*tol=*/3e-2f);
}

TEST(Autodiff, MulHeadDotHead) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int w = ir.param(2, 6, "w");   // 2 heads x 3
    const int ws = ir.param(2, 2, "ws");
    const int h = ir.linear(x, w);
    const int sc = ir.linear(x, ws);
    const int feat = ir.scatter(ScatterFn::CopyU, h, -1);
    const int s = ir.scatter(ScatterFn::AddUV, sc, sc);
    const int weighted = ir.apply_binary(ApplyFn::MulHead, feat, s, "", 2);
    return ir.gather(ReduceFn::Sum, weighted);
  });
}

TEST(Autodiff, GaussianParams) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int pseudo = ir.input(Space::Edge, 0, 2, "pseudo");
    const int mu = ir.param(3, 2, "mu");
    const int sigma = ir.param(3, 2, "sigma");
    const int w = ir.special(SpecialFn::Gaussian, {pseudo, mu, sigma}, 0, 3,
                             Space::Edge);
    return ir.gather(ReduceFn::Sum, w);
  }, /*tol=*/3e-2f);
}

TEST(Autodiff, HeadSumChain) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int w = ir.param(2, 6, "w");
    const int h = ir.linear(x, w);
    return ir.apply_head(ApplyFn::HeadSum, h, 3, 1.f / 3.f);
  });
}

TEST(Autodiff, SharedWeightRowWindows) {
  // The reorg trick: two linears reading disjoint row windows of one param
  // must accumulate gradient into the same tensor.
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int a = ir.param(4, 1, "a");
    const int lo = ir.linear(x, a, 0, 2);
    const int hi = ir.linear(x, a, 2, 4);
    const int e = ir.scatter(ScatterFn::AddUV, lo, hi);
    return ir.gather(ReduceFn::Sum, e);
  });
}

TEST(Autodiff, GradAccumulationAcrossConsumers) {
  grad_check(small_graph(), [](IrGraph& ir, std::vector<int>&) {
    const int x = ir.input(Space::Vertex, 0, 2, "x");
    const int w = ir.param(2, 2, "w");
    const int h = ir.linear(x, w);
    // h used by three consumers.
    const int e1 = ir.scatter(ScatterFn::CopyU, h, -1);
    const int e2 = ir.scatter(ScatterFn::CopyV, h, -1);
    const int e3 = ir.scatter(ScatterFn::AddUV, h, h);
    const int s = ir.apply_binary(ApplyFn::Add, e1, e2);
    const int t = ir.apply_binary(ApplyFn::Add, s, e3);
    return ir.gather(ReduceFn::Sum, t);
  });
}

TEST(Autodiff, RejectsFusedGraphs) {
  IrGraph ir;
  Node f;
  f.kind = OpKind::Fused;
  f.program = 0;
  ir.programs.emplace_back();
  const int id = ir.append(std::move(f));
  EXPECT_THROW(build_backward(ir, id), Error);
}

TEST(Autodiff, SeedShapeMatchesOutput) {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 5, "x");
  const int w = ir.param(5, 3, "w");
  const int y = ir.linear(x, w);
  BackwardResult bwd = build_backward(ir, y);
  EXPECT_EQ(ir.node(bwd.seed_grad).cols, 3);
  EXPECT_EQ(ir.node(bwd.seed_grad).space, Space::Vertex);
  EXPECT_EQ(ir.backward_start, bwd.seed_grad);
}

}  // namespace
}  // namespace triad
