/// \file
/// Performance accounting: the analytic cost model behind every number the
/// benchmark harness reports.
///
/// Each engine kernel *executes* the real math on the CPU and additionally
/// charges this ledger with the DRAM traffic / FLOPs / atomics that a GPU
/// kernel with the same thread mapping would incur (the paper's IO analysis in
/// Sections 4–5 uses exactly this naive global-memory model, e.g. the GAT
/// pre-fusion IO of |V|hf + 7|E|h + 3|E|hf).
#pragma once

#include <cstdint>
#include <string>

namespace triad {

/// How PerfCounters::to_string() prints one counter.
enum class CounterKind : std::uint8_t {
  Bytes,  ///< human_bytes
  Count,  ///< human_count
  Ns,     ///< human_count + "ns"
  Int,    ///< plain decimal
};

/// The counter field table: one X(member, kind) row per field, in report
/// order. PerfCounters' members, operator-, operator+=, to_string() and the
/// benches' BENCH JSON counter fields are all generated from it, so adding a
/// counter is one row here.
///
/// Specialized-vs-interpreted edges are split by pass so training benches can
/// prove the backward cores engage (forward-only runs leave *_bwd_edges
/// zero). walk_ns/combine_ns are per-shard task times summed over shards;
/// combine_overlap_ns is combine time that ran while a shard was still
/// walking, always 0 under the walk-join-combine schedule and kept so trace
/// consumers read a stable field. transport_msgs/bytes count ParamServer
/// messages; the push/pull pair isolates their gradient and parameter bytes.
#define TRIAD_PERF_COUNTERS(X)                                               \
  X(dram_read_bytes, Bytes)        /* modeled global-memory reads */         \
  X(dram_write_bytes, Bytes)       /* modeled global-memory writes */        \
  X(flops, Count)                  /* floating point ops executed */         \
  X(atomic_ops, Count)             /* cross-thread atomic reductions */      \
  X(kernel_launches, Int)          /* device kernels issued */               \
  X(onchip_bytes, Bytes)           /* traffic fusion keeps on chip */        \
  X(combine_bytes, Bytes)          /* boundary combine of sharded runs */    \
  X(ir_passes, Int)                /* IR passes executed (compile time) */   \
  X(graph_rewrites, Int)           /* optimizer rule hits (compile time) */  \
  X(plan_compiles, Int)            /* ExecutionPlans built (compile time) */ \
  X(specialized_fwd_edges, Count)  /* forward edges run by cores */          \
  X(specialized_bwd_edges, Count)  /* backward edges run by cores */         \
  X(interpreted_fwd_edges, Count)  /* forward edges interpreted */           \
  X(interpreted_bwd_edges, Count)  /* backward edges interpreted */          \
  X(walk_ns, Ns)                   /* sharded walk task time, summed */      \
  X(combine_ns, Ns)                /* sharded combine task time, summed */   \
  X(combine_overlap_ns, Ns)        /* combine under still-walking shards */  \
  X(boundary_stash_bytes, Bytes)   /* per-edge stash actually allocated */   \
  X(boundary_stash_saved_bytes, Bytes) /* stash elided by recompute */       \
  X(transport_msgs, Int)           /* ParamServer messages */                \
  X(transport_bytes, Bytes)        /* modeled wire bytes of those */         \
  X(param_push_bytes, Bytes)       /* gradient bytes pushed */               \
  X(param_pull_bytes, Bytes)       /* parameter bytes pulled back */

/// Aggregate cost counters. Plain struct so snapshots/diffs are trivial.
struct PerfCounters {
#define TRIAD_COUNTER_MEMBER(name, kind) std::uint64_t name = 0;
  TRIAD_PERF_COUNTERS(TRIAD_COUNTER_MEMBER)
#undef TRIAD_COUNTER_MEMBER

  std::uint64_t io_bytes() const { return dram_read_bytes + dram_write_bytes; }
  /// Totals over both passes — the pre-split counters every report keeps.
  std::uint64_t specialized_edges() const {
    return specialized_fwd_edges + specialized_bwd_edges;
  }
  std::uint64_t interpreted_edges() const {
    return interpreted_fwd_edges + interpreted_bwd_edges;
  }
  /// Total compile-phase events; zero across a window proves the window ran
  /// entirely from a prebuilt ExecutionPlan (no re-analysis in the hot loop).
  std::uint64_t compile_events() const { return ir_passes + plan_compiles; }

  /// Calls `f(name, value, kind)` for every counter, in table order.
  template <typename F>
  void for_each(F&& f) const {
#define TRIAD_COUNTER_VISIT(name, kind) f(#name, name, CounterKind::kind);
    TRIAD_PERF_COUNTERS(TRIAD_COUNTER_VISIT)
#undef TRIAD_COUNTER_VISIT
  }

  PerfCounters operator-(const PerfCounters& o) const {
    PerfCounters r;
#define TRIAD_COUNTER_SUB(name, kind) r.name = name - o.name;
    TRIAD_PERF_COUNTERS(TRIAD_COUNTER_SUB)
#undef TRIAD_COUNTER_SUB
    return r;
  }
  PerfCounters& operator+=(const PerfCounters& o) {
#define TRIAD_COUNTER_ADD(name, kind) name += o.name;
    TRIAD_PERF_COUNTERS(TRIAD_COUNTER_ADD)
#undef TRIAD_COUNTER_ADD
    return *this;
  }

  void reset() { *this = PerfCounters{}; }

  std::string to_string() const;
};

#define TRIAD_COUNTER_ONE(name, kind) +1
/// Every member is a table row: a member declared outside the table would be
/// silently dropped by the generated arithmetic and reports.
static_assert(sizeof(PerfCounters) ==
                  (0 TRIAD_PERF_COUNTERS(TRIAD_COUNTER_ONE)) *
                      sizeof(std::uint64_t),
              "every PerfCounters member must be a TRIAD_PERF_COUNTERS row");
#undef TRIAD_COUNTER_ONE

/// Per-thread counter ledger the engine charges into. Kernels charge on the
/// thread that launches them, so concurrent PlanRunners on different threads
/// account independently (and without data races).
PerfCounters& global_counters();

/// RAII scope that measures the counter delta across its lifetime.
class CounterScope {
 public:
  CounterScope() : start_(global_counters()) {}
  PerfCounters delta() const { return global_counters() - start_; }

 private:
  PerfCounters start_;
};

/// Pretty-print helpers for benchmark tables.
std::string human_bytes(std::uint64_t bytes);
std::string human_count(std::uint64_t n);

}  // namespace triad
