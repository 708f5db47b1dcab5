#include "ir/autodiff.h"

#include <algorithm>

namespace triad {

namespace {

/// Accumulates gradient contributions per forward node and materializes the
/// sum lazily (a chain of Add applies when a node has several consumers).
class GradAccumulator {
 public:
  explicit GradAccumulator(IrGraph& g) : g_(g) {}

  void add(int node, int grad) {
    auto [it, inserted] = current_.try_emplace(node, grad);
    if (!inserted) {
      it->second = g_.apply_binary(ApplyFn::Add, it->second, grad,
                                   "grad_acc:" + g_.node(node).name);
    }
  }

  bool has(int node) const { return current_.count(node) != 0; }
  int get(int node) const { return current_.at(node); }
  const std::unordered_map<int, int>& all() const { return current_; }

 private:
  IrGraph& g_;
  std::unordered_map<int, int> current_;
};

}  // namespace

BackwardResult build_backward(IrGraph& g, int output) {
  const int n = g.size();
  TRIAD_CHECK(output >= 0 && output < n, "bad output node");

  // Which nodes need a gradient: params/flagged inputs and anything on a path
  // from them to the output.
  std::vector<char> needs(n, 0);
  for (int i = 0; i < n; ++i) {
    const Node& node = g.node(i);
    TRIAD_CHECK(node.kind != OpKind::Fused && node.kind != OpKind::FusedOut,
                "autodiff must run before fusion (node " << i << ")");
    if ((node.kind == OpKind::Param || node.kind == OpKind::Input) &&
        node.requires_grad) {
      needs[i] = 1;
    }
    for (int in : node.inputs) {
      if (needs[in]) needs[i] = 1;
    }
  }
  TRIAD_CHECK(needs[output], "output does not depend on any parameter");

  BackwardResult result;
  const Node& out_node = g.node(output);
  result.seed_grad =
      g.input(out_node.space, out_node.rows, out_node.cols, "grad_seed");
  g.backward_start = result.seed_grad;

  GradAccumulator acc(g);
  acc.add(output, result.seed_grad);

  for (int id = output; id >= 0; --id) {
    if (!needs[id] || !acc.has(id)) continue;
    const int grad = acc.get(id);
    result.grad_of[id] = grad;
    // Copy the node: builder calls below may reallocate the node vector.
    const Node node = g.node(id);

    switch (node.kind) {
      case OpKind::Input:
        break;  // recorded in grad_of; feature gradients readable if flagged
      case OpKind::Param:
        result.param_grads.emplace_back(id, grad);
        break;

      case OpKind::Scatter: {
        const int a = node.inputs[0];
        const int b = node.inputs.size() > 1 ? node.inputs[1] : -1;
        switch (node.sfn) {
          case ScatterFn::CopyU:
            if (needs[a]) acc.add(a, g.gather(ReduceFn::Sum, grad, /*reverse=*/true));
            break;
          case ScatterFn::CopyV:
            if (needs[a]) acc.add(a, g.gather(ReduceFn::Sum, grad, /*reverse=*/false));
            break;
          case ScatterFn::AddUV:
            if (needs[a]) acc.add(a, g.gather(ReduceFn::Sum, grad, true));
            if (needs[b]) acc.add(b, g.gather(ReduceFn::Sum, grad, false));
            break;
          case ScatterFn::SubUV:
            if (needs[a]) acc.add(a, g.gather(ReduceFn::Sum, grad, true));
            if (needs[b]) {
              acc.add(b, g.apply_unary(ApplyFn::Neg,
                                       g.gather(ReduceFn::Sum, grad, false)));
            }
            break;
          case ScatterFn::MulUV: {
            if (needs[a]) {
              const int bv = g.scatter(ScatterFn::CopyV, b, -1);
              const int prod = g.apply_binary(ApplyFn::Mul, grad, bv);
              acc.add(a, g.gather(ReduceFn::Sum, prod, true));
            }
            if (needs[b]) {
              const int au = g.scatter(ScatterFn::CopyU, a, -1);
              const int prod = g.apply_binary(ApplyFn::Mul, grad, au);
              acc.add(b, g.gather(ReduceFn::Sum, prod, false));
            }
            break;
          }
          case ScatterFn::ConcatUV: {
            const std::int64_t fa = g.node(a).cols;
            const std::int64_t fb = g.node(b).cols;
            if (needs[a]) {
              const int s = g.slice_cols(grad, 0, fa);
              acc.add(a, g.gather(ReduceFn::Sum, s, true));
            }
            if (needs[b]) {
              const int s = g.slice_cols(grad, fa, fa + fb);
              acc.add(b, g.gather(ReduceFn::Sum, s, false));
            }
            break;
          }
          case ScatterFn::DotUV:
            TRIAD_CHECK(false, "DotUV backward not supported");
        }
        break;
      }

      case OpKind::Gather: {
        const int e = node.inputs[0];
        if (!needs[e]) break;
        switch (node.rfn) {
          case ReduceFn::Sum:
            acc.add(e, g.scatter(node.reverse ? ScatterFn::CopyU : ScatterFn::CopyV,
                                 grad, -1));
            break;
          case ReduceFn::Max: {
            // Route grad to the winning edge, via the forward node's argmax aux.
            Node bw;
            bw.kind = OpKind::Special;
            bw.spfn = SpecialFn::GatherMaxBwd;
            bw.space = Space::Edge;
            bw.cols = node.cols;
            bw.reverse = node.reverse;
            bw.inputs = {grad, id};
            bw.name = "max_bwd:" + node.name;
            acc.add(e, g.append(std::move(bw)));
            break;
          }
          case ReduceFn::Mean: {
            Node deg;
            deg.kind = OpKind::Special;
            deg.spfn = SpecialFn::DegreeInv;
            deg.space = Space::Vertex;
            deg.cols = 1;
            deg.reverse = node.reverse;
            deg.name = "deg_inv";
            const int dinv = g.append(std::move(deg));
            const int scaled = g.apply_binary(ApplyFn::MulHead, grad, dinv,
                                              "mean_bwd_scale", /*heads=*/1);
            acc.add(e, g.scatter(node.reverse ? ScatterFn::CopyU : ScatterFn::CopyV,
                                 scaled, -1));
            break;
          }
        }
        break;
      }

      case OpKind::Apply: {
        const int x = node.inputs[0];
        const int y = node.inputs.size() > 1 ? node.inputs[1] : -1;
        switch (node.afn) {
          case ApplyFn::Linear: {
            // Copy the weight dims up front: the appends below reallocate
            // the node vector, so a reference would dangle.
            const std::int64_t w_rows = g.node(y).rows;
            const std::int64_t w_cols = g.node(y).cols;
            if (needs[x]) {
              Node xg;
              xg.kind = OpKind::Apply;
              xg.afn = ApplyFn::LinearXGrad;
              xg.space = node.space;
              xg.rows = g.node(x).rows;
              xg.cols = g.node(x).cols;
              xg.inputs = {grad, y};
              xg.wrow_lo = node.wrow_lo;
              xg.wrow_hi = node.wrow_hi;
              xg.name = "dX:" + node.name;
              acc.add(x, g.append(std::move(xg)));
            }
            if (needs[y]) {
              Node wg;
              wg.kind = OpKind::Apply;
              wg.afn = ApplyFn::LinearWGrad;
              wg.space = Space::Param;
              wg.rows = w_rows;
              wg.cols = w_cols;
              wg.inputs = {x, grad};
              wg.wrow_lo = node.wrow_lo;
              wg.wrow_hi = node.wrow_hi;
              wg.name = "dW:" + node.name;
              acc.add(y, g.append(std::move(wg)));
            }
            break;
          }
          case ApplyFn::Bias: {
            if (needs[x]) acc.add(x, grad);
            if (needs[y]) {
              Node bg;
              bg.kind = OpKind::Apply;
              bg.afn = ApplyFn::BiasGrad;
              bg.space = Space::Param;
              bg.rows = 1;
              bg.cols = node.cols;
              bg.inputs = {grad};
              bg.name = "dB:" + node.name;
              acc.add(y, g.append(std::move(bg)));
            }
            break;
          }
          case ApplyFn::LeakyReLU:
            if (needs[x]) {
              const int gx = g.apply_binary(ApplyFn::LeakyReLUGrad, grad, x);
              g.node_mut(gx).alpha = node.alpha;
              acc.add(x, gx);
            }
            break;
          case ApplyFn::ReLU:
            if (needs[x]) acc.add(x, g.apply_binary(ApplyFn::ReLUGrad, grad, x));
            break;
          case ApplyFn::ELU:
            if (needs[x]) {
              const int gx = g.apply_binary(ApplyFn::ELUGrad, grad, x);
              g.node_mut(gx).alpha = node.alpha;
              acc.add(x, gx);
            }
            break;
          case ApplyFn::Exp:
            // d/dx exp = exp(x) = the forward *output* — reference node id.
            if (needs[x]) acc.add(x, g.apply_binary(ApplyFn::ExpGrad, grad, id));
            break;
          case ApplyFn::Neg:
            if (needs[x]) acc.add(x, g.apply_unary(ApplyFn::Neg, grad));
            break;
          case ApplyFn::Scale:
            if (needs[x]) acc.add(x, g.apply_unary(ApplyFn::Scale, grad, node.alpha));
            break;
          case ApplyFn::Identity:
            if (needs[x]) acc.add(x, grad);
            break;
          case ApplyFn::Add:
            if (needs[x]) acc.add(x, grad);
            if (needs[y]) acc.add(y, grad);
            break;
          case ApplyFn::Sub:
            if (needs[x]) acc.add(x, grad);
            if (needs[y]) acc.add(y, g.apply_unary(ApplyFn::Neg, grad));
            break;
          case ApplyFn::Mul:
            if (needs[x]) acc.add(x, g.apply_binary(ApplyFn::Mul, grad, y));
            if (needs[y]) acc.add(y, g.apply_binary(ApplyFn::Mul, grad, x));
            break;
          case ApplyFn::Div: {
            // out = x / y: dx = g / y ; dy = -g*out/y.
            if (needs[x]) acc.add(x, g.apply_binary(ApplyFn::Div, grad, y));
            if (needs[y]) {
              const int gy = g.apply_binary(ApplyFn::Mul, grad, id);
              const int gyy = g.apply_binary(ApplyFn::Div, gy, y);
              acc.add(y, g.apply_unary(ApplyFn::Neg, gyy));
            }
            break;
          }
          case ApplyFn::MulHead:
            if (needs[x]) {
              acc.add(x, g.apply_binary(ApplyFn::MulHead, grad, y, "", node.heads));
            }
            if (needs[y]) {
              acc.add(y, g.apply_binary(ApplyFn::DotHead, grad, x, "", node.heads));
            }
            break;
          case ApplyFn::DotHead:
            if (needs[x]) {
              acc.add(x, g.apply_binary(ApplyFn::MulHead, y, grad, "", node.heads));
            }
            if (needs[y]) {
              acc.add(y, g.apply_binary(ApplyFn::MulHead, x, grad, "", node.heads));
            }
            break;
          case ApplyFn::HeadSum:
            if (needs[x]) {
              acc.add(x, g.apply_head(ApplyFn::HeadBroadcast, grad, node.heads,
                                      node.alpha));
            }
            break;
          case ApplyFn::HeadBroadcast:
            if (needs[x]) {
              acc.add(x, g.apply_head(ApplyFn::HeadSum, grad, node.heads,
                                      node.alpha));
            }
            break;
          case ApplyFn::SliceCols:
            TRIAD_CHECK(false, "SliceCols backward not supported "
                               "(slices only appear in backward graphs)");
            break;
          default:
            TRIAD_CHECK(false, "no backward rule for Apply."
                                   << to_string(node.afn));
        }
        break;
      }

      case OpKind::Special: {
        switch (node.spfn) {
          case SpecialFn::EdgeSoftmax: {
            const int x = node.inputs[0];
            if (!needs[x]) break;
            Node bw;
            bw.kind = OpKind::Special;
            bw.spfn = SpecialFn::EdgeSoftmaxGrad;
            bw.space = Space::Edge;
            bw.cols = node.cols;
            bw.inputs = {grad, id};
            bw.name = "edge_softmax_bwd";
            acc.add(x, g.append(std::move(bw)));
            break;
          }
          case SpecialFn::Gaussian: {
            // inputs: pseudo (fixed), mu, sigma.
            const int pseudo = node.inputs[0];
            const int mu = node.inputs[1];
            const int sigma = node.inputs[2];
            TRIAD_CHECK(!needs[pseudo],
                        "gradient w.r.t. pseudo-coordinates not supported");
            if (needs[mu]) {
              Node gm;
              gm.kind = OpKind::Special;
              gm.spfn = SpecialFn::GaussianGradMu;
              gm.space = Space::Param;
              gm.rows = g.node(mu).rows;
              gm.cols = g.node(mu).cols;
              gm.inputs = {grad, pseudo, mu, sigma, id};
              gm.name = "dMu";
              acc.add(mu, g.append(std::move(gm)));
            }
            if (needs[sigma]) {
              Node gs;
              gs.kind = OpKind::Special;
              gs.spfn = SpecialFn::GaussianGradSigma;
              gs.space = Space::Param;
              gs.rows = g.node(sigma).rows;
              gs.cols = g.node(sigma).cols;
              gs.inputs = {grad, pseudo, mu, sigma, id};
              gs.name = "dSigma";
              acc.add(sigma, g.append(std::move(gs)));
            }
            break;
          }
          default:
            TRIAD_CHECK(false, "no backward rule for Special."
                                   << to_string(node.spfn));
        }
        break;
      }

      case OpKind::Fused:
      case OpKind::FusedOut:
        TRIAD_UNREACHABLE("fused nodes rejected above");
    }
  }
  return result;
}

}  // namespace triad
