#include "ir/dgl_compat.h"

namespace triad::dgl {

int gsddmm(IrGraph& g, BinaryOp op, int u_feat, int v_feat, std::int64_t heads) {
  switch (op) {
    case BinaryOp::Add:
      return g.scatter(ScatterFn::AddUV, u_feat, v_feat, "gsddmm_add");
    case BinaryOp::Sub:
      return g.scatter(ScatterFn::SubUV, u_feat, v_feat, "gsddmm_sub");
    case BinaryOp::Mul:
      return g.scatter(ScatterFn::MulUV, u_feat, v_feat, "gsddmm_mul");
    case BinaryOp::Div: {
      // u / v = u * (1/v): no reciprocal primitive is needed by the models,
      // so expose Div as Mul of a precomputed reciprocal — reject here.
      TRIAD_CHECK(false, "gsddmm Div is not provided; precompute a reciprocal");
      break;
    }
    case BinaryOp::CopyLhs:
      return g.scatter(ScatterFn::CopyU, u_feat, -1, "gsddmm_copy_u");
    case BinaryOp::CopyRhs:
      return g.scatter(ScatterFn::CopyV, v_feat, -1, "gsddmm_copy_v");
    case BinaryOp::Dot:
      return g.scatter(ScatterFn::DotUV, u_feat, v_feat, "gsddmm_dot", heads);
  }
  TRIAD_UNREACHABLE("gsddmm");
}

int gspmm(IrGraph& g, BinaryOp op, ReduceFn reduce, int u_feat, int edge_feat,
          std::int64_t heads) {
  const int msg = g.scatter(ScatterFn::CopyU, u_feat, -1, "gspmm_copy_u");
  int combined = msg;
  if (edge_feat >= 0) {
    const Node& ef = g.node(edge_feat);
    TRIAD_CHECK(ef.space == Space::Edge, "gspmm edge operand must be edge-space");
    switch (op) {
      case BinaryOp::Mul:
        if (ef.cols == heads && g.node(msg).cols != ef.cols) {
          combined = g.apply_binary(ApplyFn::MulHead, msg, edge_feat,
                                    "gspmm_u_mul_e", heads);
        } else {
          combined = g.apply_binary(ApplyFn::Mul, msg, edge_feat, "gspmm_u_mul_e");
        }
        break;
      case BinaryOp::Add:
        combined = g.apply_binary(ApplyFn::Add, msg, edge_feat, "gspmm_u_add_e");
        break;
      case BinaryOp::Sub:
        combined = g.apply_binary(ApplyFn::Sub, msg, edge_feat, "gspmm_u_sub_e");
        break;
      case BinaryOp::Div:
        combined = g.apply_binary(ApplyFn::Div, msg, edge_feat, "gspmm_u_div_e");
        break;
      case BinaryOp::CopyLhs:
        break;  // ignore the edge operand
      case BinaryOp::CopyRhs:
        combined = g.apply_unary(ApplyFn::Identity, edge_feat, 0.f,
                                 "gspmm_copy_e");
        break;
      case BinaryOp::Dot:
        TRIAD_CHECK(false, "gspmm Dot(u, e) is not a DGL primitive");
    }
  }
  return g.gather(reduce, combined, false, "gspmm_reduce");
}

}  // namespace triad::dgl
