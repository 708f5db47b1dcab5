#include "ir/graph.h"

#include <sstream>

namespace triad {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::Input: return "Input";
    case OpKind::Param: return "Param";
    case OpKind::Scatter: return "Scatter";
    case OpKind::Gather: return "Gather";
    case OpKind::Apply: return "Apply";
    case OpKind::Special: return "Special";
    case OpKind::Fused: return "Fused";
    case OpKind::FusedOut: return "FusedOut";
  }
  return "?";
}

const char* to_string(ScatterFn f) {
  switch (f) {
    case ScatterFn::CopyU: return "copy_u";
    case ScatterFn::CopyV: return "copy_v";
    case ScatterFn::AddUV: return "u_add_v";
    case ScatterFn::SubUV: return "u_sub_v";
    case ScatterFn::MulUV: return "u_mul_v";
    case ScatterFn::ConcatUV: return "u_concat_v";
    case ScatterFn::DotUV: return "u_dot_v";
  }
  return "?";
}

const char* to_string(ReduceFn f) {
  switch (f) {
    case ReduceFn::Sum: return "sum";
    case ReduceFn::Max: return "max";
    case ReduceFn::Mean: return "mean";
  }
  return "?";
}

const char* to_string(ApplyFn f) {
  switch (f) {
    case ApplyFn::Linear: return "Linear";
    case ApplyFn::Bias: return "Bias";
    case ApplyFn::LeakyReLU: return "LeakyReLU";
    case ApplyFn::ReLU: return "ReLU";
    case ApplyFn::ELU: return "ELU";
    case ApplyFn::Exp: return "Exp";
    case ApplyFn::Neg: return "Neg";
    case ApplyFn::Scale: return "Scale";
    case ApplyFn::Identity: return "Identity";
    case ApplyFn::Add: return "Add";
    case ApplyFn::Sub: return "Sub";
    case ApplyFn::Mul: return "Mul";
    case ApplyFn::Div: return "Div";
    case ApplyFn::MulHead: return "MulHead";
    case ApplyFn::DotHead: return "DotHead";
    case ApplyFn::HeadSum: return "HeadSum";
    case ApplyFn::HeadBroadcast: return "HeadBroadcast";
    case ApplyFn::SliceCols: return "SliceCols";
    case ApplyFn::LinearWGrad: return "LinearWGrad";
    case ApplyFn::LinearXGrad: return "LinearXGrad";
    case ApplyFn::BiasGrad: return "BiasGrad";
    case ApplyFn::LeakyReLUGrad: return "LeakyReLUGrad";
    case ApplyFn::ReLUGrad: return "ReLUGrad";
    case ApplyFn::ELUGrad: return "ELUGrad";
    case ApplyFn::ExpGrad: return "ExpGrad";
  }
  return "?";
}

const char* to_string(SpecialFn f) {
  switch (f) {
    case SpecialFn::EdgeSoftmax: return "EdgeSoftmax";
    case SpecialFn::EdgeSoftmaxGrad: return "EdgeSoftmaxGrad";
    case SpecialFn::GatherMaxBwd: return "GatherMaxBwd";
    case SpecialFn::DegreeInv: return "DegreeInv";
    case SpecialFn::Gaussian: return "Gaussian";
    case SpecialFn::GaussianGradMu: return "GaussianGradMu";
    case SpecialFn::GaussianGradSigma: return "GaussianGradSigma";
  }
  return "?";
}

int IrGraph::append(Node n) {
  n.id = static_cast<int>(nodes_.size());
  for (int in : n.inputs) {
    TRIAD_CHECK(in >= 0 && in < n.id,
                "node " << n.id << " (" << n.name << ") input " << in
                        << " breaks topological order");
  }
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int IrGraph::input(Space space, std::int64_t rows, std::int64_t cols,
                   const std::string& name) {
  Node n;
  n.kind = OpKind::Input;
  n.space = space;
  n.rows = rows;
  n.cols = cols;
  n.name = name;
  return append(std::move(n));
}

int IrGraph::param(std::int64_t rows, std::int64_t cols, const std::string& name) {
  Node n;
  n.kind = OpKind::Param;
  n.space = Space::Param;
  n.rows = rows;
  n.cols = cols;
  n.name = name;
  n.requires_grad = true;
  return append(std::move(n));
}

int IrGraph::scatter(ScatterFn fn, int a, int b, const std::string& name,
                     std::int64_t heads) {
  const Node& na = node(a);
  Node n;
  n.kind = OpKind::Scatter;
  n.space = Space::Edge;
  n.sfn = fn;
  n.heads = heads;
  n.name = name.empty() ? to_string(fn) : name;
  TRIAD_CHECK(na.space == Space::Vertex,
              "scatter '" << n.name << "': input a must be vertex-space, got "
                          << describe(a));
  switch (fn) {
    case ScatterFn::CopyU:
    case ScatterFn::CopyV:
      n.inputs = {a};
      n.cols = na.cols;
      break;
    case ScatterFn::AddUV:
    case ScatterFn::SubUV:
    case ScatterFn::MulUV: {
      const Node& nb = node(b);
      TRIAD_CHECK(nb.space == Space::Vertex,
                  "scatter '" << n.name << "': input b must be vertex-space, got "
                              << describe(b));
      TRIAD_CHECK_EQ(na.cols, nb.cols,
                     "scatter '" << n.name << "' operand widths: " << describe(a)
                                 << " vs " << describe(b));
      n.inputs = {a, b};
      n.cols = na.cols;
      break;
    }
    case ScatterFn::ConcatUV: {
      const Node& nb = node(b);
      n.inputs = {a, b};
      n.cols = na.cols + nb.cols;
      break;
    }
    case ScatterFn::DotUV: {
      const Node& nb = node(b);
      TRIAD_CHECK_EQ(na.cols, nb.cols);
      TRIAD_CHECK_EQ(na.cols % heads, 0);
      n.inputs = {a, b};
      n.cols = heads;
      break;
    }
  }
  n.rows = 0;  // filled by validate/executor: |E|
  return append(std::move(n));
}

int IrGraph::gather(ReduceFn fn, int edge_in, bool reverse,
                    const std::string& name) {
  const Node& ne = node(edge_in);
  TRIAD_CHECK(ne.space == Space::Edge,
              "gather '" << name << "': input must be edge-space, got "
                         << describe(edge_in));
  Node n;
  n.kind = OpKind::Gather;
  n.space = Space::Vertex;
  n.rfn = fn;
  n.reverse = reverse;
  n.inputs = {edge_in};
  n.cols = ne.cols;
  n.name = name.empty() ? std::string("gather_") + to_string(fn) : name;
  return append(std::move(n));
}

int IrGraph::apply_unary(ApplyFn fn, int x, float alpha, const std::string& name) {
  const Node& nx = node(x);
  Node n;
  n.kind = OpKind::Apply;
  n.space = nx.space;
  n.afn = fn;
  n.alpha = alpha;
  n.inputs = {x};
  n.rows = nx.rows;
  n.cols = nx.cols;
  n.name = name.empty() ? to_string(fn) : name;
  return append(std::move(n));
}

int IrGraph::apply_head(ApplyFn fn, int x, std::int64_t heads, float alpha,
                        const std::string& name) {
  const Node& nx = node(x);
  Node n;
  n.kind = OpKind::Apply;
  n.space = nx.space;
  n.afn = fn;
  n.heads = heads;
  n.alpha = alpha;
  n.inputs = {x};
  n.rows = nx.rows;
  if (fn == ApplyFn::HeadSum) {
    TRIAD_CHECK_EQ(nx.cols % heads, 0);
    n.cols = nx.cols / heads;
  } else {
    TRIAD_CHECK(fn == ApplyFn::HeadBroadcast, "apply_head takes HeadSum/HeadBroadcast");
    n.cols = nx.cols * heads;
  }
  n.name = name.empty() ? to_string(fn) : name;
  return append(std::move(n));
}

int IrGraph::apply_binary(ApplyFn fn, int a, int b, const std::string& name,
                          std::int64_t heads) {
  const Node& na = node(a);
  const Node& nb = node(b);
  TRIAD_CHECK(na.space == nb.space,
              "binary apply '" << name << "' across spaces: " << describe(a)
                               << " vs " << describe(b));
  Node n;
  n.kind = OpKind::Apply;
  n.space = na.space;
  n.afn = fn;
  n.heads = heads;
  n.inputs = {a, b};
  n.rows = na.rows;
  n.name = name.empty() ? to_string(fn) : name;
  switch (fn) {
    case ApplyFn::MulHead:
      TRIAD_CHECK_EQ(nb.cols, heads);
      TRIAD_CHECK_EQ(na.cols % heads, 0);
      n.cols = na.cols;
      break;
    case ApplyFn::DotHead:
      TRIAD_CHECK_EQ(na.cols, nb.cols);
      TRIAD_CHECK_EQ(na.cols % heads, 0);
      n.cols = heads;
      break;
    default:
      TRIAD_CHECK_EQ(na.cols, nb.cols,
                     "binary apply '" << name << "' widths: " << describe(a)
                                      << " vs " << describe(b));
      n.cols = na.cols;
  }
  return append(std::move(n));
}

int IrGraph::linear(int x, int w, std::int64_t wrow_lo, std::int64_t wrow_hi,
                    const std::string& name) {
  const Node& nx = node(x);
  const Node& nw = node(w);
  if (wrow_hi == 0) wrow_hi = nw.rows;
  TRIAD_CHECK_EQ(nx.cols, wrow_hi - wrow_lo,
                 "linear '" << name << "': input width of " << describe(x)
                            << " vs selected weight rows of " << describe(w));
  Node n;
  n.kind = OpKind::Apply;
  n.space = nx.space;
  n.afn = ApplyFn::Linear;
  n.inputs = {x, w};
  n.rows = nx.rows;
  n.cols = nw.cols;
  n.wrow_lo = wrow_lo;
  n.wrow_hi = wrow_hi;
  n.name = name.empty() ? "Linear" : name;
  return append(std::move(n));
}

int IrGraph::bias(int x, int b, const std::string& name) {
  const Node& nx = node(x);
  const Node& nb = node(b);
  TRIAD_CHECK_EQ(nb.rows, 1);
  TRIAD_CHECK_EQ(nb.cols, nx.cols);
  Node n;
  n.kind = OpKind::Apply;
  n.space = nx.space;
  n.afn = ApplyFn::Bias;
  n.inputs = {x, b};
  n.rows = nx.rows;
  n.cols = nx.cols;
  n.name = name.empty() ? "Bias" : name;
  return append(std::move(n));
}

int IrGraph::slice_cols(int x, std::int64_t lo, std::int64_t hi,
                        const std::string& name) {
  const Node& nx = node(x);
  TRIAD_CHECK(lo >= 0 && lo < hi && hi <= nx.cols, "bad slice");
  Node n;
  n.kind = OpKind::Apply;
  n.space = nx.space;
  n.afn = ApplyFn::SliceCols;
  n.inputs = {x};
  n.rows = nx.rows;
  n.cols = hi - lo;
  n.slice_lo = lo;
  n.slice_hi = hi;
  n.name = name.empty() ? "SliceCols" : name;
  return append(std::move(n));
}

int IrGraph::special(SpecialFn fn, std::vector<int> inputs, std::int64_t rows,
                     std::int64_t cols, Space space, const std::string& name) {
  Node n;
  n.kind = OpKind::Special;
  n.spfn = fn;
  n.space = space;
  n.rows = rows;
  n.cols = cols;
  n.inputs = std::move(inputs);
  n.name = name.empty() ? to_string(fn) : name;
  return append(std::move(n));
}

std::string IrGraph::describe(int id) const {
  std::ostringstream os;
  os << "%" << id;
  if (id < 0 || id >= size()) {
    os << " <no such node>";
    return os.str();
  }
  const Node& n = nodes_[static_cast<std::size_t>(id)];
  os << " " << to_string(n.kind);
  switch (n.kind) {
    case OpKind::Scatter: os << "." << to_string(n.sfn); break;
    case OpKind::Gather: os << "." << to_string(n.rfn); break;
    case OpKind::Apply: os << "." << to_string(n.afn); break;
    case OpKind::Special: os << "." << to_string(n.spfn); break;
    default: break;
  }
  if (!n.name.empty()) os << " '" << n.name << "'";
  return os.str();
}

std::string IrGraph::dump() const {
  std::ostringstream os;
  for (const Node& n : nodes_) {
    os << "%" << n.id << " = " << to_string(n.kind);
    switch (n.kind) {
      case OpKind::Scatter: os << "." << to_string(n.sfn); break;
      case OpKind::Gather:
        os << "." << to_string(n.rfn) << (n.reverse ? ".rev" : "");
        break;
      case OpKind::Apply: os << "." << to_string(n.afn); break;
      case OpKind::Special: os << "." << to_string(n.spfn); break;
      case OpKind::Fused: os << "[program " << n.program << "]"; break;
      case OpKind::FusedOut: os << "[out " << n.out_index << "]"; break;
      default: break;
    }
    os << " (";
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      os << (i ? ", " : "") << "%" << n.inputs[i];
    }
    os << ") : " << (n.space == Space::Vertex ? "V" : n.space == Space::Edge ? "E" : "P")
       << "x" << n.cols;
    if (!n.name.empty()) os << "  // " << n.name;
    os << "\n";
  }
  return os.str();
}

void IrGraph::validate(std::int64_t num_vertices, std::int64_t num_edges) const {
  (void)num_vertices;
  (void)num_edges;
  for (const Node& n : nodes_) {
    for (int in : n.inputs) {
      TRIAD_CHECK(in >= 0 && in < n.id,
                  "topology violated: " << describe(n.id) << " consumes "
                                        << describe(in));
    }
    TRIAD_CHECK_GE(n.cols, 0, "node " << describe(n.id) << " has negative width");
    if (n.kind == OpKind::Fused) {
      TRIAD_CHECK(n.program >= 0 && n.program < static_cast<int>(programs.size()),
                  "node " << describe(n.id) << " has no program");
      // Cross-references must survive id compaction: every output slot and
      // every instruction tensor operand has to name a live node.
      const EdgeProgram& ep = programs[n.program];
      for (const VertexOutput& vo : ep.vertex_outputs) {
        TRIAD_CHECK(vo.node >= 0 && vo.node < size() &&
                        node(vo.node).kind == OpKind::FusedOut,
                    "program " << n.program << " of " << describe(n.id)
                               << ": vertex output " << describe(vo.node)
                               << " is not a FusedOut");
        TRIAD_CHECK_EQ(node(vo.node).inputs.at(0), n.id,
                       "vertex output " << describe(vo.node)
                                        << " detached from its fused node "
                                        << describe(n.id));
      }
      for (const EdgeOutput& eo : ep.edge_outputs) {
        TRIAD_CHECK(eo.node >= 0 && eo.node < size() &&
                        node(eo.node).kind == OpKind::FusedOut,
                    "program " << n.program << " of " << describe(n.id)
                               << ": edge output " << describe(eo.node)
                               << " is not a FusedOut");
      }
      for (const EPPhase& ph : ep.phases) {
        for (const EPInstr& in : ph.instrs) {
          for (int t : {in.tensor, in.tensor2}) {
            TRIAD_CHECK(t < size(), "program " << n.program << " of "
                                               << describe(n.id)
                                               << " references node " << t
                                               << " past the graph");
          }
        }
      }
    }
  }
  for (int out : outputs) {
    TRIAD_CHECK(out >= 0 && out < size(), "bad output id " << out);
  }
}

}  // namespace triad
