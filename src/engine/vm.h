/// \file
/// The EdgeProgram interpreter — execution of fused graph kernels (Section 5).
///
/// One invocation = one device kernel. Under vertex-balanced mapping the VM
/// walks destination (or source) vertices, evaluating the per-edge register
/// program phase by phase; reductions matching the kernel orientation use
/// sequential per-vertex accumulators (zero atomics), cross-orientation Sum
/// reductions are finalized by a deterministic boundary-combine sweep over
/// the reverse adjacency that recomputes each edge's contribution from its
/// dependency cone (fixed edge order per target vertex — no atomics, no
/// per-edge stash, bit-identical for any thread or shard count). Edge
/// intermediates live in a register file (no DRAM traffic), which is where
/// the fusion IO savings come from; the cost model charges accordingly.
///
/// Sharded execution (run_edge_program_sharded) walks each shard's owned
/// vertex range as one unit of work on the thread pool; because shards are
/// contiguous and the combine order is fixed by the graph, sharded output is
/// bit-identical to the single-shard path. Analytic costs are charged per
/// shard (one modeled kernel launch each), and the boundary-combine traffic
/// of cross-shard reductions is charged to PerfCounters::combine_bytes.
#pragma once

#include <functional>

#include "engine/specialize.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "ir/edge_program.h"
#include "tensor/tensor.h"

namespace triad {

/// Tensor environment the VM reads from / writes to, keyed by IR node id.
struct VmBindings {
  std::function<const Tensor&(int)> tensor;  ///< inputs (vertex/edge/param)
  std::function<const IntTensor&(int)> aux;  ///< argmax auxes (MaxBwdMask)
  std::function<Tensor&(int)> out;           ///< program outputs
  std::function<IntTensor&(int)> out_aux;    ///< argmax aux outputs
};

/// Executes the program over `g` as a single shard (fine-grained chunked
/// parallelism). Charges PerfCounters analytically.
///
/// `core`: optional specialized-core binding produced by match_core at plan
/// compile time. When it names a core, the walk runs that core instead of the
/// interpreter — bit-identical output (see engine/specialize.h) — and, for
/// bindings with a boundary output, run_core_combine_span finalizes it after
/// the walk. Specialized runs charge PerfCounters::specialized_{fwd,bwd}_edges
/// and null/unmatched runs charge interpreted_{fwd,bwd}_edges, split by
/// `backward` (true = the program belongs to the training backward pass). The
/// analytic device-cost model is charged identically either way (it models
/// the program, not the CPU realization).
void run_edge_program(const Graph& g, const EdgeProgram& ep, const VmBindings& b,
                      const CoreBinding* core = nullptr, bool backward = false);

/// Executes the program shard-by-shard: each shard's owned range is one unit
/// of pool work (shard = unit of placement; no intra-shard work stealing).
/// All shards walk, join, then — for programs with a boundary output — each
/// owner shard's vertex range is combined as one task. Output is
/// bit-identical to run_edge_program for every K. `backward` selects the
/// fwd/bwd counter split as in run_edge_program.
void run_edge_program_sharded(const Graph& g, const Partitioning& part,
                              const EdgeProgram& ep, const VmBindings& b,
                              const CoreBinding* core = nullptr,
                              bool backward = false);

}  // namespace triad
