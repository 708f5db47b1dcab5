#include "ir/passes/fusion.h"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>
#include <vector>

namespace triad {

namespace {

bool is_lightweight_edge_apply(const Node& n) {
  if (n.kind != OpKind::Apply || n.space != Space::Edge) return false;
  switch (n.afn) {
    case ApplyFn::Linear:
    case ApplyFn::LinearWGrad:
    case ApplyFn::LinearXGrad:
    case ApplyFn::Bias:
    case ApplyFn::BiasGrad:
    case ApplyFn::SliceCols:
    case ApplyFn::HeadSum:       // no EPOp encoding (vertex-space in practice)
    case ApplyFn::HeadBroadcast:
      return false;
    default:
      return true;
  }
}

bool is_fusable(const Node& n, FusionMode mode) {
  switch (n.kind) {
    case OpKind::Scatter:
      return n.sfn != ScatterFn::ConcatUV && n.sfn != ScatterFn::DotUV;
    case OpKind::Apply:
      return is_lightweight_edge_apply(n);
    case OpKind::Gather:
      return mode == FusionMode::Unified;
    case OpKind::Special:
      if (n.spfn == SpecialFn::Gaussian) return true;
      if (n.spfn == SpecialFn::GatherMaxBwd) return mode == FusionMode::Unified;
      return false;
    default:
      return false;
  }
}

/// Region assignment state.
struct Assignment {
  std::vector<int> region;      // -1 = not fused
  int num_regions = 0;
};

/// Does `from` transitively depend on any node of region `r` (following
/// inputs)? Used to keep regions convex.
bool depends_on_region(const IrGraph& g, const Assignment& asg, int from, int r,
                       std::vector<char>& visited) {
  if (visited[from]) return false;
  visited[from] = 1;
  if (asg.region[from] == r) return true;
  for (int i : g.node(from).inputs) {
    if (depends_on_region(g, asg, i, r, visited)) return true;
  }
  return false;
}

bool depends_on_region(const IrGraph& g, const Assignment& asg, int from, int r) {
  std::vector<char> visited(g.size(), 0);
  return depends_on_region(g, asg, from, r, visited);
}

/// May node `n` consume region-internal node `j` inside the kernel?
/// Edge-space internals are register values (always fine). A Gather value is
/// only readable at the center vertex: legal for the v-side operand of a
/// Scatter when the gather reduces toward dst (non-reverse, dst-major).
bool legal_internal_edge(const IrGraph& g, int j, const Node& n) {
  const Node& p = g.node(j);
  if (p.space == Space::Edge) return true;
  if (p.kind != OpKind::Gather || p.reverse) return false;
  if (n.kind != OpKind::Scatter) return false;
  switch (n.sfn) {
    case ScatterFn::CopyV:
      return n.inputs[0] == j;
    case ScatterFn::AddUV:
    case ScatterFn::SubUV:
    case ScatterFn::MulUV:
      return n.inputs[1] == j && n.inputs[0] != j;
    default:
      return false;
  }
}

/// Checks the unit graph (regions + singleton nodes) stays acyclic.
bool units_acyclic(const IrGraph& g, const Assignment& asg) {
  // Unit id: region r -> r, singleton node v -> num_regions + v.
  const int nunits = asg.num_regions + g.size();
  auto unit_of = [&](int node) {
    return asg.region[node] >= 0 ? asg.region[node] : asg.num_regions + node;
  };
  std::vector<std::vector<int>> adj(nunits);
  for (const Node& n : g.nodes()) {
    const int un = unit_of(n.id);
    for (int i : n.inputs) {
      const int ui = unit_of(i);
      if (ui != un) adj[ui].push_back(un);
    }
  }
  // Kahn's algorithm.
  std::vector<int> indeg(nunits, 0);
  for (int u = 0; u < nunits; ++u) {
    for (int v : adj[u]) ++indeg[v];
  }
  std::vector<int> stack;
  for (int u = 0; u < nunits; ++u) {
    if (indeg[u] == 0) stack.push_back(u);
  }
  int seen = 0;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    ++seen;
    for (int v : adj[u]) {
      if (--indeg[v] == 0) stack.push_back(v);
    }
  }
  return seen == nunits;
}

/// Compiles one region into an EdgeProgram + Fused/FusedOut nodes.
class RegionCompiler {
 public:
  RegionCompiler(const IrGraph& in, const std::vector<int>& members,
                 const std::vector<int>& region_of, int region_id,
                 const std::vector<int>& remap, const FusionOptions& opts,
                 const std::vector<std::vector<int>>& consumers)
      : in_(in),
        members_(members),
        region_of_(region_of),
        region_id_(region_id),
        remap_(remap),
        opts_(opts),
        consumers_(consumers) {}

  /// Appends the Fused + FusedOut nodes to `out`; records remaps for every
  /// externally visible member into `remap_out`.
  void compile(IrGraph& out, std::vector<int>& remap_out, FusionStats* stats);

 private:
  bool in_region(int id) const { return region_of_[id] == region_id_; }

  int phase_of(int id) {
    auto it = phase_.find(id);
    if (it != phase_.end()) return it->second;
    const Node& n = in_.node(id);
    int p = 0;
    if (in_region(id)) {
      for (int i : n.inputs) {
        if (!in_region(i)) continue;
        const Node& pi = in_.node(i);
        if (pi.kind == OpKind::Gather) {
          p = std::max(p, phase_of(i) + 1);
        } else {
          p = std::max(p, phase_of(i));
        }
      }
    }
    phase_.emplace(id, p);
    return p;
  }

  int new_reg(std::int64_t width) {
    reg_width_.push_back(width);
    return static_cast<int>(reg_width_.size()) - 1;
  }

  /// Emits the edge-expression of region node `id` into phase `p`; returns
  /// the register holding its value for the current edge.
  int emit(int id, int p, EPPhase& phase);

  const IrGraph& in_;
  const std::vector<int>& members_;
  const std::vector<int>& region_of_;
  const int region_id_;
  const std::vector<int>& remap_;  // old -> new ids for external nodes
  const FusionOptions& opts_;
  const std::vector<std::vector<int>>& consumers_;

  std::unordered_map<int, int> phase_;
  std::vector<std::int64_t> reg_width_;
  std::map<std::pair<int, int>, int> memo_;        // (node, phase) -> reg
  std::unordered_map<int, int> gather_vo_;         // gather node -> vo index
  std::unordered_map<int, int> fusedout_of_;       // member -> FusedOut id
  EdgeProgram ep_;
};

int RegionCompiler::emit(int id, int p, EPPhase& phase) {
  const auto key = std::make_pair(id, p);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const Node& n = in_.node(id);

  // External edge tensor: plain load.
  if (!in_region(id)) {
    TRIAD_CHECK(n.space == Space::Edge,
                "fused region reads non-edge external %" << id << " as edge value");
    const int r = new_reg(n.cols);
    phase.instrs.push_back({EPOp::LoadE, r, -1, -1, remap_[id], -1, -1, 0.f, 1,
                            n.cols});
    memo_[key] = r;
    return r;
  }

  int r = -1;
  switch (n.kind) {
    case OpKind::Scatter: {
      auto load_side = [&](int input, bool u_side) {
        const Node& src = in_.node(input);
        const int reg = new_reg(src.cols);
        if (in_region(input)) {
          // Region-internal gather value, readable at the center vertex.
          TRIAD_CHECK(!u_side, "u-side read of in-region gather");
          phase.instrs.push_back({EPOp::LoadAcc, reg, -1, -1,
                                  fusedout_of_.at(input), -1, -1, 0.f, 1,
                                  src.cols});
        } else {
          phase.instrs.push_back({u_side ? EPOp::LoadU : EPOp::LoadV, reg, -1,
                                  -1, remap_[input], -1, -1, 0.f, 1, src.cols});
        }
        return reg;
      };
      switch (n.sfn) {
        case ScatterFn::CopyU:
          r = load_side(n.inputs[0], true);
          break;
        case ScatterFn::CopyV:
          r = load_side(n.inputs[0], false);
          break;
        case ScatterFn::AddUV:
        case ScatterFn::SubUV:
        case ScatterFn::MulUV: {
          const int ra = load_side(n.inputs[0], true);
          const int rb = load_side(n.inputs[1], false);
          r = new_reg(n.cols);
          const EPOp op = n.sfn == ScatterFn::AddUV  ? EPOp::Add
                          : n.sfn == ScatterFn::SubUV ? EPOp::Sub
                                                      : EPOp::Mul;
          phase.instrs.push_back({op, r, ra, rb, -1, -1, -1, 0.f, 1, n.cols});
          break;
        }
        default:
          TRIAD_CHECK(false, "unfusable scatter " << to_string(n.sfn));
      }
      break;
    }
    case OpKind::Apply: {
      if (n.inputs.size() == 1) {
        const int ra = emit(n.inputs[0], p, phase);
        r = new_reg(n.cols);
        EPOp op;
        switch (n.afn) {
          case ApplyFn::LeakyReLU: op = EPOp::LeakyReLU; break;
          case ApplyFn::ReLU: op = EPOp::ReLU; break;
          case ApplyFn::ELU: op = EPOp::ELU; break;
          case ApplyFn::Exp: op = EPOp::Exp; break;
          case ApplyFn::Neg: op = EPOp::Neg; break;
          case ApplyFn::Scale: op = EPOp::Scale; break;
          case ApplyFn::Identity: op = EPOp::Copy; break;
          default: TRIAD_CHECK(false, "unfusable unary " << to_string(n.afn));
        }
        phase.instrs.push_back({op, r, ra, -1, -1, -1, -1, n.alpha, 1, n.cols});
      } else {
        const int ra = emit(n.inputs[0], p, phase);
        const int rb = emit(n.inputs[1], p, phase);
        r = new_reg(n.cols);
        EPOp op;
        switch (n.afn) {
          case ApplyFn::Add: op = EPOp::Add; break;
          case ApplyFn::Sub: op = EPOp::Sub; break;
          case ApplyFn::Mul: op = EPOp::Mul; break;
          case ApplyFn::Div: op = EPOp::Div; break;
          case ApplyFn::MulHead: op = EPOp::MulHead; break;
          case ApplyFn::DotHead: op = EPOp::DotHead; break;
          case ApplyFn::LeakyReLUGrad: op = EPOp::LeakyReLUGrad; break;
          case ApplyFn::ReLUGrad: op = EPOp::ReLUGrad; break;
          case ApplyFn::ELUGrad: op = EPOp::ELUGrad; break;
          case ApplyFn::ExpGrad: op = EPOp::ExpGrad; break;
          default: TRIAD_CHECK(false, "unfusable binary " << to_string(n.afn));
        }
        phase.instrs.push_back({op, r, ra, rb, -1, -1, -1, n.alpha, n.heads,
                                n.cols});
      }
      break;
    }
    case OpKind::Special: {
      if (n.spfn == SpecialFn::Gaussian) {
        const int ra = emit(n.inputs[0], p, phase);
        r = new_reg(n.cols);
        phase.instrs.push_back({EPOp::Gauss, r, ra, -1, remap_[n.inputs[1]],
                                remap_[n.inputs[2]], -1, 0.f, 1, n.cols});
      } else if (n.spfn == SpecialFn::GatherMaxBwd) {
        // inputs: grad_v (vertex, external), forward max-gather (aux source).
        const Node& gv = in_.node(n.inputs[0]);
        const int rg = new_reg(gv.cols);
        phase.instrs.push_back({EPOp::LoadV, rg, -1, -1, remap_[n.inputs[0]],
                                -1, -1, 0.f, 1, gv.cols});
        r = new_reg(n.cols);
        phase.instrs.push_back({EPOp::MaxBwdMask, r, rg, -1, remap_[n.inputs[1]],
                                -1, -1, 0.f, 1, n.cols});
      } else {
        TRIAD_CHECK(false, "unfusable special " << to_string(n.spfn));
      }
      break;
    }
    default:
      TRIAD_CHECK(false, "cannot emit node kind " << to_string(n.kind));
  }
  memo_[key] = r;
  return r;
}

void RegionCompiler::compile(IrGraph& out, std::vector<int>& remap_out,
                             FusionStats* stats) {
  // Orientation: dst-major unless the region consists purely of reverse
  // gathers (then src-major avoids needless atomics).
  bool has_forward_gather = false, has_reverse_gather = false, needs_dst = false;
  for (int id : members_) {
    const Node& n = in_.node(id);
    if (n.kind == OpKind::Gather) {
      (n.reverse ? has_reverse_gather : has_forward_gather) = true;
    }
    if (n.kind == OpKind::Special && n.spfn == SpecialFn::GatherMaxBwd &&
        !n.reverse) {
      needs_dst = true;
    }
  }
  ep_.dst_major = needs_dst || has_forward_gather || !has_reverse_gather;

  // Phases.
  int max_phase = 0;
  for (int id : members_) max_phase = std::max(max_phase, phase_of(id));
  ep_.phases.resize(max_phase + 1);

  // Mapping: edge-balanced only when legal.
  bool edge_balanced_legal = max_phase == 0;
  for (int id : members_) {
    const Node& n = in_.node(id);
    if (n.kind == OpKind::Gather && n.rfn != ReduceFn::Sum) {
      edge_balanced_legal = false;
    }
    if (n.kind == OpKind::Special && n.spfn == SpecialFn::GatherMaxBwd) {
      edge_balanced_legal = false;  // needs per-center argmax lookup semantics
    }
  }
  ep_.mapping = (opts_.preferred == WorkMapping::EdgeBalanced && edge_balanced_legal)
                    ? WorkMapping::EdgeBalanced
                    : WorkMapping::VertexBalanced;

  // Create the Fused node first (external inputs filled below).
  Node fused;
  fused.kind = OpKind::Fused;
  fused.space = Space::Edge;  // nominal
  fused.cols = 0;
  fused.name = "fused_region_" + std::to_string(region_id_);
  fused.program = static_cast<int>(out.programs.size());
  const int fused_id = out.append(std::move(fused));

  // FusedOut nodes: every member Gather (vertex outputs) and every member
  // edge node consumed outside the region (edge outputs).
  auto make_fusedout = [&](int member) {
    const Node& n = in_.node(member);
    Node fo;
    fo.kind = OpKind::FusedOut;
    fo.space = n.space;
    fo.cols = n.cols;
    fo.rows = n.rows;
    fo.rfn = n.rfn;
    fo.inputs = {fused_id};
    fo.name = "out:" + n.name;
    fo.out_index = static_cast<int>(fusedout_of_.size());
    const int id = out.append(std::move(fo));
    fusedout_of_[member] = id;
    remap_out[member] = id;
    return id;
  };

  for (int id : members_) {
    const Node& n = in_.node(id);
    if (n.kind == OpKind::Gather) {
      const int fo = make_fusedout(id);
      VertexOutput vo;
      vo.node = fo;
      vo.rfn = static_cast<std::uint8_t>(n.rfn);
      vo.width = n.cols;
      vo.phase = phase_of(id);
      vo.reverse = n.reverse;
      vo.atomic = ep_.mapping == WorkMapping::EdgeBalanced ||
                  n.reverse == ep_.dst_major;
      vo.track_argmax = n.rfn == ReduceFn::Max;
      gather_vo_[id] = static_cast<int>(ep_.vertex_outputs.size());
      ep_.vertex_outputs.push_back(vo);
      TRIAD_CHECK(!(vo.atomic && n.rfn != ReduceFn::Sum),
                  "cross-orientation non-Sum reduction cannot be fused");
    }
  }

  // Emit reductions and stores phase by phase.
  for (int id : members_) {
    const Node& n = in_.node(id);
    const int p = phase_of(id);
    if (n.kind == OpKind::Gather) {
      const int reg = emit(n.inputs[0], p, ep_.phases[p]);
      ep_.phases[p].instrs.push_back({EPOp::Reduce, -1, reg, -1, -1, -1,
                                      gather_vo_[id], 0.f, 1,
                                      in_.node(n.inputs[0]).cols});
      continue;
    }
    // Edge-space member: store iff consumed outside the region.
    bool external_consumer = false;
    for (int c : consumers_[id]) {
      if (region_of_[c] != region_id_) external_consumer = true;
    }
    for (int o : in_.outputs) {
      if (o == id) external_consumer = true;
    }
    if (external_consumer) {
      const int fo = make_fusedout(id);
      ep_.edge_outputs.push_back({fo, n.cols});
      const int reg = emit(id, p, ep_.phases[p]);
      ep_.phases[p].instrs.push_back({EPOp::StoreE, -1, reg, -1, fo, -1, -1,
                                      0.f, 1, n.cols});
      if (stats != nullptr) ++stats->edge_tensors_stored;
    } else if (stats != nullptr) {
      ++stats->edge_tensors_eliminated;
    }
  }

  ep_.num_regs = static_cast<int>(reg_width_.size());
  ep_.reg_width = reg_width_;

  // External inputs for executor refcounting: every tensor id referenced by
  // Load*/Gauss/MaxBwdMask instructions (they are already remapped new ids).
  std::vector<int>& fin = out.node_mut(fused_id).inputs;
  for (const EPPhase& ph : ep_.phases) {
    for (const EPInstr& insn : ph.instrs) {
      for (int t : {insn.tensor, insn.tensor2}) {
        if (t < 0 || t == fused_id) continue;
        // Skip our own FusedOut ids (LoadAcc/StoreE targets).
        bool own = false;
        for (const auto& [member, foid] : fusedout_of_) {
          if (foid == t) own = true;
        }
        if (own) continue;
        if (std::find(fin.begin(), fin.end(), t) == fin.end()) fin.push_back(t);
      }
    }
  }
  std::sort(fin.begin(), fin.end());

  out.programs.push_back(std::move(ep_));
  if (stats != nullptr) {
    ++stats->regions;
    stats->fused_nodes += static_cast<int>(members_.size());
  }
}

}  // namespace

IrGraph fusion_pass(const IrGraph& in, const FusionOptions& opts,
                    FusionStats* stats) {
  if (opts.mode == FusionMode::None) return in;

  // Consumers.
  std::vector<std::vector<int>> consumers(in.size());
  for (const Node& n : in.nodes()) {
    for (int i : n.inputs) consumers[i].push_back(n.id);
  }

  // --- Region assignment ----------------------------------------------------
  Assignment asg;
  asg.region.assign(in.size(), -1);
  std::vector<std::vector<int>> members;

  for (const Node& n : in.nodes()) {
    if (!is_fusable(n, opts.mode)) continue;

    // Candidate regions through legally-consumable fusable inputs. Regions
    // must stay on one side of the fwd/bwd boundary: a mixed region would
    // execute forward work after the gradient seed is bound, breaking the
    // split run_forward/run_backward protocol.
    auto side_of = [&](int id) {
      return in.backward_start >= 0 && id >= in.backward_start;
    };
    std::vector<int> cands;
    for (int i : n.inputs) {
      const int r = asg.region[i];
      if (r < 0) continue;
      if (side_of(i) != side_of(n.id)) continue;
      if (!legal_internal_edge(in, i, n)) continue;
      if (std::find(cands.begin(), cands.end(), r) == cands.end()) {
        cands.push_back(r);
      }
    }

    int target = -1;
    for (int r : cands) {
      // Convexity: no other input may transitively depend on r.
      bool ok = true;
      for (int i : n.inputs) {
        if (asg.region[i] == r) continue;
        if (depends_on_region(in, asg, i, r)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      if (target < 0) {
        target = r;
        asg.region[n.id] = r;
        members[r].push_back(n.id);
        if (!units_acyclic(in, asg)) {  // paranoia net
          members[r].pop_back();
          asg.region[n.id] = -1;
          target = -1;
        }
        continue;
      }
      // Try merging a second candidate region into target.
      std::vector<int> saved = members[r];
      for (int m : members[r]) asg.region[m] = target;
      if (units_acyclic(in, asg)) {
        for (int m : saved) members[target].push_back(m);
        members[r].clear();
      } else {
        for (int m : saved) asg.region[m] = r;
      }
    }
    if (target < 0) {
      asg.region[n.id] = asg.num_regions;
      members.push_back({n.id});
      ++asg.num_regions;
    }
  }

  // Drop trivial single-node regions: a lone Gather or Scatter gains nothing
  // from the VM over the plain specialized kernel.
  for (int r = 0; r < asg.num_regions; ++r) {
    if (members[r].size() != 1) continue;
    asg.region[members[r][0]] = -1;
    members[r].clear();
  }

  // --- Unit topological order ------------------------------------------------
  const int nunits = asg.num_regions + in.size();
  auto unit_of = [&](int node) {
    return asg.region[node] >= 0 ? asg.region[node] : asg.num_regions + node;
  };
  std::vector<std::vector<int>> uadj(nunits);
  std::vector<int> indeg(nunits, 0);
  std::vector<char> active(nunits, 0);
  for (const Node& n : in.nodes()) {
    active[unit_of(n.id)] = 1;
    for (int i : n.inputs) {
      const int a = unit_of(i);
      const int b = unit_of(n.id);
      if (a != b) {
        uadj[a].push_back(b);
        ++indeg[b];
      }
    }
  }
  // Stable topological order keyed by each unit's smallest node id. This
  // keeps all forward units ahead of the gradient seed (and hence ahead of
  // every backward unit), preserving the fwd/bwd boundary semantics.
  std::vector<int> unit_key(nunits, 0);
  for (int u = 0; u < asg.num_regions; ++u) {
    int key = in.size();
    for (int m : members[u]) key = std::min(key, m);
    unit_key[u] = key;
  }
  for (int v = 0; v < in.size(); ++v) unit_key[asg.num_regions + v] = v;

  std::vector<int> order;
  {
    auto cmp = [&](int a, int b) { return unit_key[a] > unit_key[b]; };
    std::priority_queue<int, std::vector<int>, decltype(cmp)> ready(cmp);
    for (int u = 0; u < nunits; ++u) {
      if (active[u] && indeg[u] == 0) ready.push(u);
    }
    while (!ready.empty()) {
      const int u = ready.top();
      ready.pop();
      order.push_back(u);
      for (int v : uadj[u]) {
        if (--indeg[v] == 0) ready.push(v);
      }
    }
  }
  TRIAD_CHECK_EQ(static_cast<int>(order.size()), [&] {
    int c = 0;
    for (int u = 0; u < nunits; ++u) c += active[u];
    return c;
  }(), "fusion produced a cyclic unit graph");

  // --- Emit ------------------------------------------------------------------
  IrGraph out;
  out.programs = in.programs;
  std::vector<int> remap(in.size(), -1);

  for (int u : order) {
    if (u >= asg.num_regions) {
      const Node& n = in.node(u - asg.num_regions);
      Node copy = n;
      copy.inputs.clear();
      for (int i : n.inputs) {
        TRIAD_CHECK_GE(remap[i], 0,
                       "fusion remap hole: %" << i << " consumed by %" << n.id);
        copy.inputs.push_back(remap[i]);
      }
      remap[n.id] = out.append(std::move(copy));
      if (n.id == in.backward_start) out.backward_start = remap[n.id];
    } else {
      RegionCompiler rc(in, members[u], asg.region, u, remap, opts, consumers);
      rc.compile(out, remap, stats);
    }
  }

  // backward_start falls inside a region in rare cases (seed is an Input, so
  // in practice it never does); default to the earliest gradient node.
  if (in.backward_start >= 0 && out.backward_start < 0) {
    out.backward_start = remap[in.backward_start];
  }

  for (int o : in.outputs) {
    TRIAD_CHECK_GE(remap[o], 0, "fusion dropped output %" << o);
    out.mark_output(remap[o]);
  }
  return out;
}

}  // namespace triad
