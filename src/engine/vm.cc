#include "engine/vm.h"

#include "ir/graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "support/counters.h"
#include "support/macros.h"
#include "support/parallel.h"
#include "support/timer.h"

namespace triad {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Pre-resolved instruction: tensor handles resolved to raw pointers once per
// program execution, so the per-edge interpreter loop touches no hash maps
// or std::function. Registers are *pointers*: a Load aliases the source row
// (zero copy); compute ops write into a per-worker backing buffer.
struct RInstr {
  EPOp op;
  int dst, a, b, acc;
  const float* data = nullptr;        // Load*/Gauss mu
  const float* data2 = nullptr;       // Gauss sigma
  const std::int32_t* aux = nullptr;  // MaxBwdMask argmax
  float* out = nullptr;               // StoreE target
  std::int64_t data_cols = 0;         // row stride of `data`
  std::int64_t gauss_r = 0;           // pseudo-coordinate dim
  float alpha;
  std::int64_t heads;
  std::int64_t width;
  std::int64_t a_width = 0;  // operand width (DotHead)
};

struct ResolvedProgram {
  // Walk instructions per phase, pruned to what feeds a StoreE or a
  // sequential Reduce; the walk skips a phase left empty.
  std::vector<std::vector<RInstr>> phases;
  std::vector<float*> vout_data;        // per vertex_output
  std::vector<std::int32_t*> vout_aux;  // argmax outputs (or nullptr)
  // Boundary (cross-orientation) outputs are never stashed: the combine
  // replays, per edge, the dependency cone of the register their Reduce
  // folds. Registers are SSA per edge and the fold order is fixed, so the
  // replay reproduces the walk's value bit for bit. Indexed like
  // vertex_outputs; empty for sequential outputs.
  std::vector<std::vector<RInstr>> recompute;
  std::vector<int> src_reg;  // register the Reduce folds
  bool has_boundary = false;
};

struct WorkerState {
  std::vector<const float*> ptr;   // current value of each register
  std::vector<float> buf;          // backing storage for compute dsts
  std::vector<std::int64_t> base;  // register offsets into buf
  std::vector<float> acc;          // sequential accumulators
  std::vector<std::int64_t> acc_base;
  std::vector<std::int32_t> acc_arg;
  std::vector<std::int64_t> count;
};

// Sizes the worker scratch without zero-filling it: every buffer is fully
// written before it is read (registers are SSA per edge; accumulators and
// argmax slots are fill_n-initialized per vertex-phase; counts are reset per
// phase), so resize-only lets one thread-local WorkerState be reused across
// chunks, programs, and steps with no per-program allocation churn.
void init_worker(WorkerState& ws, const EdgeProgram& ep) {
  ws.base.resize(ep.num_regs);
  std::int64_t off = 0;
  for (int r = 0; r < ep.num_regs; ++r) {
    ws.base[r] = off;
    off += ep.reg_width[r];
  }
  ws.buf.resize(off);
  ws.ptr.resize(ep.num_regs);
  ws.acc_base.resize(ep.vertex_outputs.size());
  std::int64_t acc_off = 0;
  for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
    ws.acc_base[i] = acc_off;
    acc_off += ep.vertex_outputs[i].width;
  }
  ws.acc.resize(acc_off);
  ws.acc_arg.resize(acc_off);
  ws.count.resize(ep.vertex_outputs.size());
}

/// Per-thread scratch, reused across consecutive edge programs in a plan run
/// (pool worker threads are long-lived). init_worker only grows the vectors.
WorkerState& worker_scratch(const EdgeProgram& ep) {
  static thread_local WorkerState ws;
  init_worker(ws, ep);
  return ws;
}

/// True when this vertex output is reduced sequentially in the worker that
/// owns the center vertex; false = boundary (stash + combine).
inline bool sequential_reduce(const EdgeProgram& ep, const VertexOutput& vo) {
  return ep.mapping == WorkMapping::VertexBalanced && vo.reverse != ep.dst_major;
}

/// The instructions of `instrs` that `root` marks, plus every instruction
/// they transitively read, in program order (one backward liveness sweep).
/// Registers are SSA per edge, so this is exactly what the roots depend on.
template <class Root>
std::vector<RInstr> live_slice(const std::vector<RInstr>& instrs, int num_regs,
                               Root root) {
  std::vector<char> live(num_regs, 0);
  std::vector<RInstr> kept;
  for (auto it = instrs.rbegin(); it != instrs.rend(); ++it) {
    if (!root(*it) && (it->dst < 0 || !live[it->dst])) continue;
    if (it->a >= 0) live[it->a] = 1;
    if (it->b >= 0) live[it->b] = 1;
    kept.push_back(*it);
  }
  std::reverse(kept.begin(), kept.end());
  return kept;
}

ResolvedProgram resolve(const Graph& g, const EdgeProgram& ep,
                        const VmBindings& b) {
  ResolvedProgram rp;
  rp.phases.resize(ep.phases.size());
  for (std::size_t p = 0; p < ep.phases.size(); ++p) {
    for (const EPInstr& in : ep.phases[p].instrs) {
      RInstr r;
      r.op = in.op;
      r.dst = in.dst;
      r.a = in.a;
      r.b = in.b;
      r.acc = in.acc;
      r.alpha = in.alpha;
      r.heads = in.heads;
      r.width = in.width;
      switch (in.op) {
        case EPOp::LoadU:
        case EPOp::LoadV:
        case EPOp::LoadE: {
          const Tensor& t = b.tensor(in.tensor);
          r.data = t.data();
          r.data_cols = t.cols();
          break;
        }
        case EPOp::LoadAcc: {
          const Tensor& t = b.out(in.tensor);
          r.data = t.data();
          r.data_cols = t.cols();
          break;
        }
        case EPOp::Gauss: {
          const Tensor& mu = b.tensor(in.tensor);
          const Tensor& sigma = b.tensor(in.tensor2);
          r.data = mu.data();
          r.data2 = sigma.data();
          r.gauss_r = mu.cols();
          break;
        }
        case EPOp::MaxBwdMask:
          r.aux = b.aux(in.tensor).data();
          break;
        case EPOp::StoreE:
          r.out = b.out(in.tensor).data();
          r.data_cols = b.out(in.tensor).cols();
          break;
        case EPOp::DotHead:
          break;
        default:
          break;
      }
      if (in.op == EPOp::DotHead && in.a >= 0) r.a_width = ep.reg_width[in.a];
      rp.phases[p].push_back(r);
    }
  }
  rp.vout_data.resize(ep.vertex_outputs.size());
  rp.vout_aux.assign(ep.vertex_outputs.size(), nullptr);
  rp.recompute.resize(ep.vertex_outputs.size());
  rp.src_reg.assign(ep.vertex_outputs.size(), -1);
  for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
    const VertexOutput& vo = ep.vertex_outputs[i];
    rp.vout_data[i] = b.out(vo.node).data();
    if (vo.track_argmax) {
      rp.vout_aux[i] = b.out_aux(vo.node).data();
    }
    if (!sequential_reduce(ep, vo)) {
      TRIAD_CHECK(static_cast<ReduceFn>(vo.rfn) == ReduceFn::Sum,
                  "boundary reductions support Sum only");
      rp.has_boundary = true;
      std::vector<RInstr> cone =
          live_slice(rp.phases[vo.phase], ep.num_regs, [&](const RInstr& in) {
            return in.op == EPOp::Reduce && in.acc == static_cast<int>(i);
          });
      TRIAD_CHECK(!cone.empty(), "boundary output has no Reduce in its phase");
      rp.src_reg[i] = cone.back().a;
      cone.pop_back();  // the Reduce itself: the combine folds instead
      rp.recompute[i] = std::move(cone);
      global_counters().boundary_stash_saved_bytes +=
          static_cast<std::uint64_t>(g.num_edges()) *
          static_cast<std::uint64_t>(vo.width) * 4;
    }
  }
  // The walk keeps only what its own side effects need; values that feed a
  // boundary Reduce alone are computed once, by the combine.
  for (std::vector<RInstr>& phase : rp.phases) {
    phase = live_slice(phase, ep.num_regs, [&](const RInstr& in) {
      return in.op == EPOp::StoreE ||
             (in.op == EPOp::Reduce &&
              sequential_reduce(ep, ep.vertex_outputs[in.acc]));
    });
  }
  return rp;
}

/// Evaluates one instruction for the current edge. `center` is the vertex the
/// worker owns (dst in dst-major kernels).
inline void eval_instr(const RInstr& in, WorkerState& ws, const EdgeProgram& ep,
                       std::int64_t src, std::int64_t dst, std::int64_t eid,
                       std::int64_t center) {
  const float* a = in.a >= 0 ? ws.ptr[in.a] : nullptr;
  const float* bb = in.b >= 0 ? ws.ptr[in.b] : nullptr;
  float* d = nullptr;
  if (in.dst >= 0 && in.op != EPOp::LoadU && in.op != EPOp::LoadV &&
      in.op != EPOp::LoadE && in.op != EPOp::LoadAcc && in.op != EPOp::Copy) {
    d = ws.buf.data() + ws.base[in.dst];
    ws.ptr[in.dst] = d;
  }
  const std::int64_t w = in.width;
  switch (in.op) {
    case EPOp::LoadU:
      ws.ptr[in.dst] = in.data + src * in.data_cols;
      break;
    case EPOp::LoadV:
      ws.ptr[in.dst] = in.data + dst * in.data_cols;
      break;
    case EPOp::LoadE:
      ws.ptr[in.dst] = in.data + eid * in.data_cols;
      break;
    case EPOp::LoadAcc:
      ws.ptr[in.dst] = in.data + center * in.data_cols;
      break;
    case EPOp::Copy:
      ws.ptr[in.dst] = a;  // pure alias
      break;
    case EPOp::Add:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] + bb[j];
      break;
    case EPOp::Sub:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] - bb[j];
      break;
    case EPOp::Mul:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] * bb[j];
      break;
    case EPOp::Div:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] / bb[j];
      break;
    case EPOp::MulHead: {
      const std::int64_t f = w / in.heads;
      for (std::int64_t h = 0; h < in.heads; ++h) {
        const float s = bb[h];
        for (std::int64_t j = 0; j < f; ++j) d[h * f + j] = s * a[h * f + j];
      }
      break;
    }
    case EPOp::DotHead: {
      const std::int64_t f_in = in.a_width / in.heads;
      for (std::int64_t h = 0; h < in.heads; ++h) {
        float s = 0.f;
        for (std::int64_t j = 0; j < f_in; ++j) {
          s += a[h * f_in + j] * bb[h * f_in + j];
        }
        d[h] = s;
      }
      break;
    }
    case EPOp::LeakyReLU:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] > 0.f ? a[j] : in.alpha * a[j];
      break;
    case EPOp::ReLU:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] > 0.f ? a[j] : 0.f;
      break;
    case EPOp::ELU:
      for (std::int64_t j = 0; j < w; ++j) {
        d[j] = a[j] > 0.f ? a[j] : in.alpha * (std::exp(a[j]) - 1.f);
      }
      break;
    case EPOp::Exp:
      for (std::int64_t j = 0; j < w; ++j) d[j] = std::exp(a[j]);
      break;
    case EPOp::Neg:
      for (std::int64_t j = 0; j < w; ++j) d[j] = -a[j];
      break;
    case EPOp::Scale:
      for (std::int64_t j = 0; j < w; ++j) d[j] = in.alpha * a[j];
      break;
    case EPOp::LeakyReLUGrad:
      for (std::int64_t j = 0; j < w; ++j) d[j] = bb[j] > 0.f ? a[j] : in.alpha * a[j];
      break;
    case EPOp::ReLUGrad:
      for (std::int64_t j = 0; j < w; ++j) d[j] = bb[j] > 0.f ? a[j] : 0.f;
      break;
    case EPOp::ELUGrad:
      for (std::int64_t j = 0; j < w; ++j) {
        d[j] = bb[j] > 0.f ? a[j] : a[j] * in.alpha * std::exp(bb[j]);
      }
      break;
    case EPOp::ExpGrad:
      for (std::int64_t j = 0; j < w; ++j) d[j] = a[j] * bb[j];
      break;
    case EPOp::Gauss: {
      for (std::int64_t k = 0; k < w; ++k) {
        const float* pm = in.data + k * in.gauss_r;
        const float* ps = in.data2 + k * in.gauss_r;
        float accv = 0.f;
        for (std::int64_t j = 0; j < in.gauss_r; ++j) {
          const float diff = a[j] - pm[j];
          accv += ps[j] * ps[j] * diff * diff;
        }
        d[k] = std::exp(-0.5f * accv);
      }
      break;
    }
    case EPOp::MaxBwdMask: {
      const std::int32_t* pm = in.aux + dst * w;
      for (std::int64_t j = 0; j < w; ++j) {
        d[j] = pm[j] == static_cast<std::int32_t>(eid) ? a[j] : 0.f;
      }
      break;
    }
    case EPOp::Reduce: {
      // Only sequential reductions reach the walk: resolve() prunes boundary
      // Reduces, which the combine folds from its replayed cone instead.
      const VertexOutput& vo = ep.vertex_outputs[in.acc];
      float* accp = ws.acc.data() + ws.acc_base[in.acc];
      switch (static_cast<ReduceFn>(vo.rfn)) {
        case ReduceFn::Sum:
        case ReduceFn::Mean:
          for (std::int64_t j = 0; j < w; ++j) accp[j] += a[j];
          break;
        case ReduceFn::Max: {
          std::int32_t* argp = ws.acc_arg.data() + ws.acc_base[in.acc];
          for (std::int64_t j = 0; j < w; ++j) {
            if (a[j] > accp[j]) {
              accp[j] = a[j];
              argp[j] = static_cast<std::int32_t>(eid);
            }
          }
          break;
        }
      }
      ws.count[in.acc] += 1;
      break;
    }
    case EPOp::StoreE:
      std::copy_n(a, w, in.out + eid * in.data_cols);
      break;
  }
}

/// Walks vertices [v_lo, v_hi) of the primary orientation, running every
/// live phase per vertex. Vertices share no walk state, so disjoint ranges
/// may run concurrently. Strictly serial — shard bodies and chunk bodies call
/// this from pool workers, so it must not spawn nested parallelism.
void walk_vertex_range(const Graph& g, const EdgeProgram& ep,
                       const ResolvedProgram& rp, std::int64_t v_lo,
                       std::int64_t v_hi) {
  const auto& ptr = ep.dst_major ? g.in_ptr() : g.out_ptr();
  const auto& adj = ep.dst_major ? g.in_src() : g.out_dst();
  const auto& eid = ep.dst_major ? g.in_eid() : g.out_eid();
  WorkerState& ws = worker_scratch(ep);
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    for (std::size_t p = 0; p < ep.phases.size(); ++p) {
      const std::vector<RInstr>& instrs = rp.phases[p];
      if (instrs.empty()) continue;
      // Init sequential accumulators fed by this phase.
      for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
        const VertexOutput& vo = ep.vertex_outputs[i];
        if (vo.phase != static_cast<int>(p)) continue;
        if (!sequential_reduce(ep, vo)) continue;  // boundary, no local acc
        float* accp = ws.acc.data() + ws.acc_base[i];
        const float init =
            static_cast<ReduceFn>(vo.rfn) == ReduceFn::Max ? kNegInf : 0.f;
        std::fill_n(accp, vo.width, init);
        std::fill_n(ws.acc_arg.data() + ws.acc_base[i], vo.width, -1);
        ws.count[i] = 0;
      }
      for (std::int64_t i = elo; i < ehi; ++i) {
        const std::int64_t other = adj[i];
        const std::int64_t e = eid[i];
        const std::int64_t src = ep.dst_major ? other : v;
        const std::int64_t dst = ep.dst_major ? v : other;
        for (const RInstr& in : instrs) {
          eval_instr(in, ws, ep, src, dst, e, v);
        }
      }
      // Finalize this phase's sequential reductions for vertex v.
      for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
        const VertexOutput& vo = ep.vertex_outputs[i];
        if (vo.phase != static_cast<int>(p)) continue;
        if (!sequential_reduce(ep, vo)) continue;
        float* accp = ws.acc.data() + ws.acc_base[i];
        const auto rf = static_cast<ReduceFn>(vo.rfn);
        if (rf == ReduceFn::Mean && ws.count[i] > 0) {
          const float inv = 1.f / static_cast<float>(ws.count[i]);
          for (std::int64_t j = 0; j < vo.width; ++j) accp[j] *= inv;
        }
        if (rf == ReduceFn::Max && ws.count[i] == 0) {
          std::fill_n(accp, vo.width, 0.f);  // isolated vertex
        }
        std::copy_n(accp, vo.width, rp.vout_data[i] + v * vo.width);
        if (vo.track_argmax) {
          std::copy_n(ws.acc_arg.data() + ws.acc_base[i], vo.width,
                      rp.vout_aux[i] + v * vo.width);
        }
      }
    }
  }
}

/// Edge-balanced walk over edges [e_lo, e_hi). Serial; see walk_vertex_range.
void walk_edge_range(const Graph& g, const EdgeProgram& ep,
                     const ResolvedProgram& rp, std::int64_t e_lo,
                     std::int64_t e_hi) {
  const std::vector<RInstr>& instrs = rp.phases[0];
  if (instrs.empty()) return;  // every output is folded by the combine
  const auto& esrc = g.edge_src();
  const auto& edst = g.edge_dst();
  WorkerState& ws = worker_scratch(ep);
  for (std::int64_t e = e_lo; e < e_hi; ++e) {
    const std::int64_t src = esrc[e];
    const std::int64_t dst = edst[e];
    for (const RInstr& in : instrs) eval_instr(in, ws, ep, src, dst, e, dst);
  }
}

/// Boundary combine over target vertices [t_lo, t_hi). Folds each target row
/// in its fixed reverse-orientation edge-list order; that order is a property
/// of the graph, so the reduction result is bit-identical for every
/// thread/shard count and for every scheduling of disjoint target ranges.
/// Each edge's contribution is recomputed by replaying the output's
/// dependency cone (registers are SSA per edge, so the replay reproduces the
/// value the walk would have computed, bit for bit). Serial; callers
/// schedule disjoint target ranges concurrently.
void combine_boundary_targets(const Graph& g, const EdgeProgram& ep,
                              const ResolvedProgram& rp, std::int64_t t_lo,
                              std::int64_t t_hi) {
  WorkerState& ws = worker_scratch(ep);
  for (std::size_t i = 0; i < ep.vertex_outputs.size(); ++i) {
    if (sequential_reduce(ep, ep.vertex_outputs[i])) continue;
    const VertexOutput& vo = ep.vertex_outputs[i];
    const std::int64_t w = vo.width;
    // Targets are src vertices when reverse, dst vertices otherwise; the
    // walker is the opposite endpoint.
    const auto& ptr = vo.reverse ? g.out_ptr() : g.in_ptr();
    const auto& adj = vo.reverse ? g.out_dst() : g.in_src();
    const auto& eid = vo.reverse ? g.out_eid() : g.in_eid();
    const std::vector<RInstr>& replay = rp.recompute[i];
    const int sreg = rp.src_reg[i];
    float* out = rp.vout_data[i];
    for (std::int64_t t = t_lo; t < t_hi; ++t) {
      float* row = out + t * w;
      std::fill_n(row, w, 0.f);
      for (std::int64_t k = ptr[t]; k < ptr[t + 1]; ++k) {
        const std::int64_t e = eid[k];
        const std::int64_t other = adj[k];
        const std::int64_t src = vo.reverse ? t : other;
        const std::int64_t dst = vo.reverse ? other : t;
        for (const RInstr& in : replay) {
          eval_instr(in, ws, ep, src, dst, e, /*center=*/other);
        }
        const float* c = ws.ptr[sreg];
        for (std::int64_t j = 0; j < w; ++j) row[j] += c[j];
      }
    }
  }
}

/// Single-shard boundary combine: chunked sweep over all vertices.
void combine_boundary(const Graph& g, const EdgeProgram& ep,
                      const ResolvedProgram& rp) {
  if (!rp.has_boundary) return;
  parallel_for_chunks(0, g.num_vertices(),
                      [&](std::int64_t t_lo, std::int64_t t_hi) {
                        combine_boundary_targets(g, ep, rp, t_lo, t_hi);
                      },
                      /*grain=*/256);
}

/// Analytic cost accounting for one kernel covering `n_v` vertices and `m_e`
/// edges of the primary orientation — the whole graph for a single-shard
/// run, one shard's owned range for sharded runs (counters are charged per
/// shard; shard sums partition the single-shard totals exactly). The model
/// is unchanged from the paper's: boundary reductions are charged as the
/// conventional GPU atomic discipline regardless of how the CPU realizes
/// them, so figures stay comparable across runtimes.
void charge_program(std::int64_t n_v, std::int64_t m_e, const EdgeProgram& ep) {
  PerfCounters& c = global_counters();
  const auto m = static_cast<std::uint64_t>(m_e);
  const auto n = static_cast<std::uint64_t>(n_v);
  std::uint64_t read = 0, write = 0, flops = 0, atomics = 0, onchip = 0;
  for (std::size_t p = 0; p < ep.phases.size(); ++p) {
    read += m * 4 + n * 8;  // adjacency per phase sweep
    for (const EPInstr& in : ep.phases[p].instrs) {
      const auto w = static_cast<std::uint64_t>(in.width);
      switch (in.op) {
        case EPOp::LoadU:
        case EPOp::LoadV:
        case EPOp::LoadE:
          read += m * w * 4;
          break;
        case EPOp::LoadAcc:
          read += n * w * 4;  // cached in registers per vertex
          break;
        case EPOp::StoreE:
          write += m * w * 4;
          onchip += m * w * 4;
          break;
        case EPOp::Reduce: {
          const VertexOutput& vo = ep.vertex_outputs[in.acc];
          if (sequential_reduce(ep, vo)) {
            flops += m * w;
            onchip += m * w * 4;
          } else {
            read += m * w * 4;
            write += m * w * 4;
            atomics += m * w;
            flops += m * w;
          }
          break;
        }
        case EPOp::Gauss:
          read += 2ull * in.width * 4;  // mu/sigma, cached
          flops += m * w * 5;
          onchip += m * w * 4;
          break;
        case EPOp::MaxBwdMask:
          read += n * w * 4;  // argmax aux per vertex
          onchip += m * w * 4;
          break;
        case EPOp::DotHead:
          flops += m * w * 2;
          onchip += m * w * 4;
          break;
        default:
          flops += m * w;
          onchip += m * w * 4;
      }
    }
  }
  for (const VertexOutput& vo : ep.vertex_outputs) {
    if (sequential_reduce(ep, vo)) {
      write += n * static_cast<std::uint64_t>(vo.width) * 4;
    }
  }
  c.dram_read_bytes += read;
  c.dram_write_bytes += write;
  c.flops += flops;
  c.atomic_ops += atomics;
  c.onchip_bytes += onchip;
  c.kernel_launches += 1;
}

/// Extra accounting a sharded run incurs on top of the per-shard kernels:
/// cross-shard boundary contributions must leave the shard and be folded at
/// the owner — one modeled read + write per crossing element per boundary
/// reduction (the halo-exchange analogue of Dorylus/NeutronStar).
void charge_sharded_combine(const Partitioning& part, const EdgeProgram& ep) {
  PerfCounters& c = global_counters();
  const auto cut = static_cast<std::uint64_t>(part.cut_edges());
  for (const VertexOutput& vo : ep.vertex_outputs) {
    if (sequential_reduce(ep, vo)) continue;
    c.combine_bytes += cut * static_cast<std::uint64_t>(vo.width) * 8;
    c.kernel_launches += 1;  // the combine sweep is its own kernel
  }
}

void check_program(const EdgeProgram& ep) {
  TRIAD_CHECK_GT(ep.phases.size(), 0u, "empty edge program");
  if (ep.mapping == WorkMapping::EdgeBalanced) {
    TRIAD_CHECK_EQ(ep.phases.size(), 1u,
                   "edge-balanced programs are single-phase");
    for (const VertexOutput& vo : ep.vertex_outputs) {
      TRIAD_CHECK(static_cast<ReduceFn>(vo.rfn) == ReduceFn::Sum,
                  "edge-balanced mapping supports Sum reductions only");
    }
    for (const EPInstr& in : ep.phases[0].instrs) {
      TRIAD_CHECK(in.op != EPOp::LoadAcc,
                  "LoadAcc is invalid under edge-balanced mapping");
    }
  }
}

}  // namespace

namespace {

/// Counter bookkeeping shared by both runners for a specialized execution:
/// the fwd/bwd edge split, plus the stash bytes a boundary combine core
/// avoided by recomputing per-edge values instead of stashing them (the
/// interpreter's combine charges the same counter; neither path stashes).
void charge_specialized(const Graph& g, const EdgeProgram& ep,
                        const CoreBinding& core, bool backward) {
  PerfCounters& c = global_counters();
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  (backward ? c.specialized_bwd_edges : c.specialized_fwd_edges) += m;
  if (core.has_boundary()) {
    const auto w = static_cast<std::uint64_t>(
        ep.vertex_outputs[core.boundary_out].width);
    c.boundary_stash_saved_bytes += m * w * 4;
  }
}

}  // namespace

void run_edge_program(const Graph& g, const EdgeProgram& ep, const VmBindings& b,
                      const CoreBinding* core, bool backward) {
  check_program(ep);
  PerfCounters& c = global_counters();
  if (core != nullptr && core->specialized()) {
    // Specialized path: the walk core handles every phase, sequential
    // reduction, and edge store of the program; a binding with a boundary
    // output is finalized by the combine core afterwards (never a stash —
    // the combine recomputes, see engine/specialize.h).
    const CoreArgs args = resolve_core_args(*core, ep, b);
    parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
      run_core_span(g, ep, *core, args, lo, hi);
    }, /*grain=*/64);
    if (core->has_boundary()) {
      parallel_for_chunks(0, g.num_vertices(),
                          [&](std::int64_t lo, std::int64_t hi) {
                            run_core_combine_span(g, ep, *core, args, lo, hi);
                          },
                          /*grain=*/256);
    }
    charge_specialized(g, ep, *core, backward);
  } else {
    const ResolvedProgram rp = resolve(g, ep, b);
    if (ep.mapping == WorkMapping::VertexBalanced) {
      parallel_for_chunks(0, g.num_vertices(), [&](std::int64_t lo, std::int64_t hi) {
        walk_vertex_range(g, ep, rp, lo, hi);
      }, /*grain=*/64);
    } else {
      parallel_for_chunks(0, g.num_edges(), [&](std::int64_t lo, std::int64_t hi) {
        walk_edge_range(g, ep, rp, lo, hi);
      }, /*grain=*/4096);
    }
    combine_boundary(g, ep, rp);
    (backward ? c.interpreted_bwd_edges : c.interpreted_fwd_edges) +=
        static_cast<std::uint64_t>(g.num_edges());
  }

  charge_program(g.num_vertices(), g.num_edges(), ep);
}

namespace {

/// Barrier path: walk all shards, join, then combine as K owner-range tasks.
/// Per-task walk/combine durations land in `walk_s` / `comb_s` (seconds).
void run_sharded_barrier(const Graph& g, const Partitioning& part,
                         const EdgeProgram& ep, const ResolvedProgram& rp,
                         std::vector<double>& walk_s,
                         std::vector<double>& comb_s) {
  const int k = part.num_shards();
  if (ep.mapping == WorkMapping::VertexBalanced) {
    // One unit of pool work per shard: the shard is the placement unit, so
    // there is deliberately no intra-shard work stealing.
    parallel_for(0, k, [&](std::int64_t s) {
      const Shard& sh = part.shard(static_cast<int>(s));
      Timer t;
      walk_vertex_range(g, ep, rp, sh.v_lo, sh.v_hi);
      walk_s[s] = t.seconds();
    }, /*grain=*/1);
  } else {
    // Edge-balanced programs shard the flat edge list into K even ranges;
    // vertex ownership is irrelevant to the walk and the combine restores
    // determinism regardless.
    const std::int64_t m = g.num_edges();
    parallel_for(0, k, [&](std::int64_t s) {
      const EdgeRange r = edge_shard_range(m, k, static_cast<int>(s));
      Timer t;
      walk_edge_range(g, ep, rp, r.lo, r.hi);
      walk_s[s] = t.seconds();
    }, /*grain=*/1);
  }
  if (rp.has_boundary) {
    // Owner-range combine: shard ranges partition [0, |V|), and the fold
    // order within each row is fixed, so K concurrent tasks reproduce the
    // serial sweep bit for bit.
    parallel_for(0, k, [&](std::int64_t s) {
      const Shard& sh = part.shard(static_cast<int>(s));
      Timer t;
      combine_boundary_targets(g, ep, rp, sh.v_lo, sh.v_hi);
      comb_s[s] = t.seconds();
    }, /*grain=*/1);
  }
}

/// Specialized barrier path: per-shard walk-core tasks, join, then — when the
/// binding has a boundary output — per-shard owner-range combine-core tasks
/// (shard ranges partition [0, |V|) and each row's fold order is fixed, so K
/// concurrent tasks reproduce the serial sweep bit for bit).
void run_sharded_core_barrier(const Graph& g, const Partitioning& part,
                              const EdgeProgram& ep, const CoreBinding& core,
                              const CoreArgs& args,
                              std::vector<double>& walk_s,
                              std::vector<double>& comb_s) {
  const int k = part.num_shards();
  parallel_for(0, k, [&](std::int64_t s) {
    const Shard& sh = part.shard(static_cast<int>(s));
    Timer t;
    run_core_span(g, ep, core, args, sh.v_lo, sh.v_hi);
    walk_s[s] = t.seconds();
  }, /*grain=*/1);
  if (core.has_boundary()) {
    parallel_for(0, k, [&](std::int64_t s) {
      const Shard& sh = part.shard(static_cast<int>(s));
      Timer t;
      run_core_combine_span(g, ep, core, args, sh.v_lo, sh.v_hi);
      comb_s[s] = t.seconds();
    }, /*grain=*/1);
  }
}

}  // namespace

void run_edge_program_sharded(const Graph& g, const Partitioning& part,
                              const EdgeProgram& ep, const VmBindings& b,
                              const CoreBinding* core, bool backward) {
  check_program(ep);
  TRIAD_CHECK_EQ(part.num_vertices(), g.num_vertices(),
                 "partitioning built for a different graph");

  const int k = part.num_shards();
  PerfCounters& c = global_counters();
  std::vector<double> walk_s(k, 0.0), comb_s(k, 0.0);
  if (core != nullptr && core->specialized()) {
    // Specialized path: shard-per-pool-task like the interpreter. Bindings
    // with a boundary output run their combine core per owner shard after
    // the walk join. Bit-identical to the single-shard core (same per-vertex
    // loops, same fold order).
    const CoreArgs args = resolve_core_args(*core, ep, b);
    run_sharded_core_barrier(g, part, ep, *core, args, walk_s, comb_s);
    charge_specialized(g, ep, *core, backward);
  } else {
    const ResolvedProgram rp = resolve(g, ep, b);
    run_sharded_barrier(g, part, ep, rp, walk_s, comb_s);
    (backward ? c.interpreted_bwd_edges : c.interpreted_fwd_edges) +=
        static_cast<std::uint64_t>(g.num_edges());
  }
  for (int s = 0; s < k; ++s) {
    c.walk_ns += static_cast<std::uint64_t>(walk_s[s] * 1e9);
    c.combine_ns += static_cast<std::uint64_t>(comb_s[s] * 1e9);
  }

  // Per-shard charging: each shard is one modeled kernel over its owned
  // slice; the shard sums partition the single-shard totals exactly (modulo
  // per-shard parameter reloads, which are real).
  for (int s = 0; s < k; ++s) {
    const Shard& sh = part.shard(s);
    std::int64_t m_s;
    if (ep.mapping == WorkMapping::EdgeBalanced) {
      const EdgeRange r = edge_shard_range(g.num_edges(), k, s);
      m_s = r.hi - r.lo;
    } else {
      m_s = ep.dst_major ? sh.num_in_edges() : sh.num_out_edges();
    }
    charge_program(sh.num_vertices(), m_s, ep);
  }
  charge_sharded_combine(part, ep);
}

}  // namespace triad
