// Sharded-execution tests: bit-identical determinism across shard counts,
// a partitioned PlanRunner, per-shard plan schedules, the
// combine-traffic accounting of the device model, repeated direct VM runs of
// the boundary combine, and its cone replay (no per-edge stash).
//
// The determinism guarantee is structural, not statistical: owned-vertex
// ranges are contiguous (per-vertex sequential reductions see the same edge
// order for every K) and boundary reductions fold recomputed per-edge
// contributions in fixed reverse-adjacency order, so K ∈ {1, 2, 4, 8}
// sharded training must produce the same float bits as the single-shard
// path — not merely close values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "api/models.h"
#include "baselines/strategy.h"
#include "engine/device.h"
#include "engine/vm.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/counters.h"
#include "support/rng.h"

namespace triad {
namespace {

Graph test_graph() {
  Rng rng(11);
  return gen::rmat(7, 1500, rng);  // 128 vertices, skewed degrees
}

Tensor random_features(std::int64_t n, std::int64_t d, MemoryPool* pool) {
  Rng rng(23);
  Tensor t(n, d, MemTag::kInput, pool);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

IntTensor random_labels(std::int64_t n, std::int32_t classes) {
  Rng rng(29);
  IntTensor t(n, 1);
  for (std::int64_t v = 0; v < n; ++v) {
    t.at(v, 0) = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return t;
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise";
}

/// Trains `steps` and returns (logits, all parameter tensors) as clones.
struct RunResult {
  Tensor logits;
  std::vector<Tensor> params;
};

template <typename BuildFn>
RunResult train_run(const Graph& g, BuildFn&& build, int shards,
                    PartitionStrategy strategy, int steps, std::int64_t in_dim,
                    const Strategy& strat = ours()) {
  Rng mrng(7);  // fixed: identical initial weights across runs
  Compiled c = compile_model(build(mrng), strat, /*training=*/true, g, shards,
                             strategy);
  const Compiled& model = c;
  std::vector<int> param_nodes = model.params;
  MemoryPool pool;
  Trainer t(std::move(c), g, random_features(g.num_vertices(), in_dim, &pool),
            Tensor{}, &pool);
  const IntTensor labels = random_labels(g.num_vertices(), 4);
  for (int i = 0; i < steps; ++i) t.train_step(labels, 1e-2f);
  RunResult r{t.logits().clone(MemTag::kWorkspace), {}};
  for (int p : param_nodes) {
    r.params.push_back(t.runner().result(p).clone(MemTag::kWorkspace));
  }
  return r;
}

ModelGraph gat_model(Rng& rng, std::int64_t in_dim) {
  GatConfig cfg;
  cfg.in_dim = in_dim;
  cfg.hidden = 8;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = 4;
  return api::Gat(cfg).build(rng);
}

ModelGraph edgeconv_model(Rng& rng, std::int64_t in_dim) {
  EdgeConvConfig cfg;
  cfg.in_dim = in_dim;
  cfg.hidden = {8, 8};
  cfg.num_classes = 4;
  return api::EdgeConv(cfg).build(rng);
}

TEST(Sharded, GatTrainingBitIdenticalAcrossShardCounts) {
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return gat_model(r, 6); };
  const RunResult base =
      train_run(g, build, /*shards=*/0, PartitionStrategy::VertexRange, 2, 6);
  for (int k : {1, 2, 4, 8}) {
    for (const auto strategy :
         {PartitionStrategy::VertexRange, PartitionStrategy::DegreeBalanced}) {
      const RunResult sharded = train_run(g, build, k, strategy, 2, 6);
      expect_bit_identical(base.logits, sharded.logits, "GAT logits");
      ASSERT_EQ(base.params.size(), sharded.params.size());
      for (std::size_t i = 0; i < base.params.size(); ++i) {
        expect_bit_identical(base.params[i], sharded.params[i], "GAT weights");
      }
    }
  }
}

TEST(Sharded, EdgeConvTrainingBitIdenticalAcrossShardCounts) {
  // EdgeConv exercises Max reductions (argmax tracking + MaxBwdMask) and
  // reverse-orientation gradient reductions through the boundary combine.
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return edgeconv_model(r, 5); };
  const RunResult base =
      train_run(g, build, /*shards=*/0, PartitionStrategy::VertexRange, 2, 5);
  for (int k : {1, 2, 4, 8}) {
    const RunResult sharded =
        train_run(g, build, k, PartitionStrategy::DegreeBalanced, 2, 5);
    expect_bit_identical(base.logits, sharded.logits, "EdgeConv logits");
    for (std::size_t i = 0; i < base.params.size(); ++i) {
      expect_bit_identical(base.params[i], sharded.params[i],
                           "EdgeConv weights");
    }
  }
}

TEST(Sharded, UnfusedKernelsBitIdenticalWhenSharded) {
  // The DGL-like strategy runs op-by-op (Scatter/Gather/EdgeSoftmax special
  // kernels, no fused programs) — this pins down the shard-view refactor of
  // kernels.cc rather than the VM.
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return gat_model(r, 6); };
  const RunResult base = train_run(g, build, 0, PartitionStrategy::VertexRange,
                                   2, 6, dgl_like());
  for (int k : {2, 4}) {
    const RunResult sharded = train_run(
        g, build, k, PartitionStrategy::DegreeBalanced, 2, 6, dgl_like());
    expect_bit_identical(base.logits, sharded.logits, "DGL-like logits");
    for (std::size_t i = 0; i < base.params.size(); ++i) {
      expect_bit_identical(base.params[i], sharded.params[i],
                           "DGL-like weights");
    }
  }
}

TEST(Sharded, PartitionedPlanRunnerMatchesPlanRunner) {
  const Graph g = test_graph();
  Rng mrng(7);
  Compiled c = compile_model(gat_model(mrng, 6), ours(), /*training=*/false, g);
  MemoryPool pool_a, pool_b;

  PlanRunner serial(g, c.plan, &pool_a);
  serial.bind(c.features, random_features(g.num_vertices(), 6, &pool_a));
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    serial.bind(c.params[i], c.init[i].clone(MemTag::kWeights, &pool_a));
  }
  serial.run();

  const Partitioning part = Partitioning::build(
      g, /*num_shards=*/4, PartitionStrategy::DegreeBalanced);
  PlanRunner sharded(g, c.plan, &pool_b);
  sharded.set_partitioning(&part);
  EXPECT_EQ(sharded.partitioning()->num_shards(), 4);
  sharded.bind(c.features, random_features(g.num_vertices(), 6, &pool_b));
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    sharded.bind(c.params[i], c.init[i].clone(MemTag::kWeights, &pool_b));
  }
  sharded.run();

  expect_bit_identical(serial.result(c.output), sharded.result(c.output),
                       "inference logits");
}

TEST(Sharded, PlanCarriesPerShardSchedule) {
  const Graph g = test_graph();
  Rng mrng(7);
  Compiled c = compile_model(gat_model(mrng, 6), ours(), /*training=*/true, g,
                             /*num_shards=*/4, PartitionStrategy::DegreeBalanced);
  ASSERT_NE(c.plan, nullptr);
  ASSERT_NE(c.partition, nullptr);
  EXPECT_EQ(c.plan->num_shards(), 4);

  std::int64_t vertices = 0, edges = 0;
  for (int s = 0; s < 4; ++s) {
    const ShardSchedule& ss = c.plan->shard_schedule(s);
    vertices += ss.num_vertices;
    edges += ss.local_edges;
    // A shard's slice of the run must not need more memory than the whole
    // run, and every shard still replicates the parameters.
    EXPECT_LE(ss.estimated_peak_bytes, c.plan->estimated_peak_bytes());
    EXPECT_GT(ss.persistent_bytes, 0u);
  }
  EXPECT_EQ(vertices, g.num_vertices());
  EXPECT_EQ(edges, g.num_edges());
  EXPECT_LE(c.plan->max_shard_peak_bytes(), c.plan->estimated_peak_bytes());
  EXPECT_TRUE(c.plan->shards_fit(c.plan->estimated_peak_bytes()));

  // The partitioning step is visible in the compile report.
  bool saw_partition_pass = false;
  for (const PassInfo& p : c.stats.passes) {
    if (p.name.rfind("partition", 0) == 0) saw_partition_pass = true;
  }
  EXPECT_TRUE(saw_partition_pass);
}

TEST(Sharded, CombineBytesChargedOnlyWhenSharded) {
  const Graph g = test_graph();
  const auto build = [](Rng& r) { return gat_model(r, 6); };

  CounterScope unsharded_scope;
  train_run(g, build, 0, PartitionStrategy::VertexRange, 1, 6);
  const PerfCounters unsharded = unsharded_scope.delta();
  EXPECT_EQ(unsharded.combine_bytes, 0u);

  CounterScope sharded_scope;
  train_run(g, build, 4, PartitionStrategy::DegreeBalanced, 1, 6);
  const PerfCounters sharded = sharded_scope.delta();
  EXPECT_GT(sharded.combine_bytes, 0u);

  // The device model must price the combine traffic: same device, same
  // counters except combine_bytes => strictly larger projected latency.
  PerfCounters with = sharded;
  PerfCounters without = sharded;
  without.combine_bytes = 0;
  const DeviceProfile dev = rtx2080();
  EXPECT_GT(dev.modeled_seconds(with), dev.modeled_seconds(without));
}

// --- direct VM runs: repeated sharded combines and boundary cone replay ------

struct Env {
  std::unordered_map<int, Tensor> tensors;
  std::unordered_map<int, Tensor> outs;
  std::unordered_map<int, IntTensor> auxes;

  VmBindings bindings() {
    VmBindings b;
    b.tensor = [this](int id) -> const Tensor& { return tensors.at(id); };
    b.aux = [this](int id) -> const IntTensor& { return auxes.at(id); };
    b.out = [this](int id) -> Tensor& { return outs.at(id); };
    b.out_aux = [this](int id) -> IntTensor& { return auxes[id]; };
    return b;
  }
};

EPInstr load(EPOp op, int dst, int tensor, std::int64_t w) {
  EPInstr i;
  i.op = op;
  i.dst = dst;
  i.tensor = tensor;
  i.width = w;
  return i;
}
EPInstr binop(EPOp op, int dst, int a, int b, std::int64_t w) {
  EPInstr i;
  i.op = op;
  i.dst = dst;
  i.a = a;
  i.b = b;
  i.width = w;
  return i;
}
EPInstr reduce(int a, int acc, std::int64_t w) {
  EPInstr i;
  i.op = EPOp::Reduce;
  i.a = a;
  i.acc = acc;
  i.width = w;
  return i;
}

/// Dst-major walk with a reduce-to-src Sum: every edge contributes through
/// the boundary combine — the program shape sharding depends on most.
/// `long_chain` grows the per-edge value from one arithmetic op to three, so
/// the combine replays a deeper cone.
EdgeProgram boundary_program(std::int64_t f, bool long_chain) {
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  if (long_chain) {
    // ((x_u + x_v) * x_u) - x_v: 3 arithmetic ops.
    ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, f),
                           load(EPOp::LoadV, 1, 0, f),
                           binop(EPOp::Add, 2, 0, 1, f),
                           binop(EPOp::Mul, 3, 2, 0, f),
                           binop(EPOp::Sub, 4, 3, 1, f),
                           reduce(4, 0, f)};
    ep.num_regs = 5;
    ep.reg_width = {f, f, f, f, f};
  } else {
    // x_u + x_v: 1 arithmetic op.
    ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, f),
                           load(EPOp::LoadV, 1, 0, f),
                           binop(EPOp::Add, 2, 0, 1, f), reduce(2, 0, f)};
    ep.num_regs = 3;
    ep.reg_width = {f, f, f};
  }
  ep.vertex_outputs.push_back({1, static_cast<std::uint8_t>(ReduceFn::Sum), f,
                               0, /*reverse=*/true, false, false});
  return ep;
}

TEST(Sharded, BoundarySumRepeatedRunsBitIdentical) {
  // Repeated K=8 sharded runs against a fixed unsharded reference: every
  // interleaving of the shard walk and owner-range combine tasks must produce
  // the same bits. (Single-core hosts serialize the tasks; the CI TSan job
  // runs this with real threads.)
  Rng rng(11);
  const Graph g = test_graph();
  const std::int64_t n = g.num_vertices(), f = 4;
  const Partitioning part =
      Partitioning::build(g, 8, PartitionStrategy::DegreeBalanced);
  for (const bool long_chain : {false, true}) {
    const EdgeProgram ep = boundary_program(f, long_chain);
    Env env;
    env.tensors.emplace(0, Tensor::randn(n, f, rng));
    env.outs.emplace(1, Tensor::zeros(n, f));
    run_edge_program(g, ep, env.bindings());
    const Tensor ref = env.outs.at(1).clone();
    for (int rep = 0; rep < 25; ++rep) {
      env.outs.at(1).fill(0.f);
      run_edge_program_sharded(g, part, ep, env.bindings());
      expect_bit_identical(ref, env.outs.at(1), "sharded boundary sum");
    }
  }
}

EPInstr unop(EPOp op, int dst, int a, std::int64_t w, float alpha = 0.f) {
  EPInstr i = binop(op, dst, a, -1, w);
  i.alpha = alpha;
  return i;
}
EPInstr store(int a, int tensor, std::int64_t w) {
  EPInstr i;
  i.op = EPOp::StoreE;
  i.a = a;
  i.tensor = tensor;
  i.width = w;
  return i;
}

constexpr float kSlope = 0.2f;

/// The interpreted GAT attention-backward program (one head, feature width
/// w), as fusion emits it for training. Inputs: 0 src score, 1 dst score,
/// 2 upstream gradient at dst (w), 3 softmax max at dst, 4 softmax sum at
/// dst, 5 src features (w). Phase 0 folds the attention-weighted gradient to
/// the source (output 10, the boundary, width w), stores the raw score
/// (edge output 13) and folds the attention-score gradient to the dst
/// (output 11). Phase 1 reads output 11 back (LoadAcc), stores the softmax
/// gradient (edge output 14) and folds it to the dst (output 12).
EdgeProgram gat_attention_backward(std::int64_t w) {
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(2);
  EPInstr mh = binop(EPOp::MulHead, 10, 3, 9, w);
  EPInstr dot0 = binop(EPOp::DotHead, 12, 3, 11, 1);
  EPInstr dot1 = binop(EPOp::DotHead, 17, 15, 16, 1);
  ep.phases[0].instrs = {
      load(EPOp::LoadU, 0, 0, 1), load(EPOp::LoadV, 1, 1, 1),
      binop(EPOp::Add, 2, 0, 1, 1), store(2, 13, 1),
      load(EPOp::LoadV, 3, 2, w), unop(EPOp::LeakyReLU, 4, 2, 1, kSlope),
      load(EPOp::LoadV, 5, 3, 1), binop(EPOp::Sub, 6, 4, 5, 1),
      unop(EPOp::Exp, 7, 6, 1), load(EPOp::LoadV, 8, 4, 1),
      binop(EPOp::Div, 9, 7, 8, 1), mh, reduce(10, 0, w),
      load(EPOp::LoadU, 11, 5, w), dot0, binop(EPOp::Mul, 13, 12, 9, 1),
      binop(EPOp::Div, 14, 13, 8, 1), reduce(14, 1, 1)};
  ep.phases[1].instrs = {
      load(EPOp::LoadV, 15, 2, w), load(EPOp::LoadU, 16, 5, w), dot1,
      load(EPOp::LoadV, 18, 4, 1), binop(EPOp::Div, 19, 17, 18, 1),
      load(EPOp::LoadAcc, 20, 11, 1), binop(EPOp::Sub, 21, 19, 20, 1),
      load(EPOp::LoadU, 22, 0, 1), load(EPOp::LoadV, 23, 1, 1),
      binop(EPOp::Add, 24, 22, 23, 1), unop(EPOp::LeakyReLU, 25, 24, 1, kSlope),
      load(EPOp::LoadV, 26, 3, 1), binop(EPOp::Sub, 27, 25, 26, 1),
      unop(EPOp::Exp, 28, 27, 1), binop(EPOp::ExpGrad, 29, 21, 28, 1),
      store(29, 14, 1), reduce(29, 2, 1)};
  ep.num_regs = 30;
  ep.reg_width.assign(30, 1);
  for (const int r : {3, 10, 11, 15, 16}) ep.reg_width[r] = w;
  const auto sum = static_cast<std::uint8_t>(ReduceFn::Sum);
  ep.vertex_outputs = {{10, sum, w, 0, /*reverse=*/true, true, false},
                       {11, sum, 1, 0, false, false, false},
                       {12, sum, 1, 1, false, false, false}};
  ep.edge_outputs = {{13, 1}, {14, 1}};
  return ep;
}

Tensor uniform_rows(std::int64_t n, std::int64_t d, double lo, double hi,
                    Rng& rng) {
  Tensor t(n, d);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

/// Reference for a reverse (reduce-to-src) Sum: out[u] folds `value(u, v)`
/// over u's outgoing edges in out_eid order, starting from 0.
template <class Value>
Tensor fold_to_src(const Graph& g, std::int64_t w, Value value) {
  Tensor out = Tensor::zeros(g.num_vertices(), w);
  std::vector<float> c(static_cast<std::size_t>(w));
  for (std::int64_t u = 0; u < g.num_vertices(); ++u) {
    float* row = out.row(u);
    for (std::int64_t k = g.out_ptr()[u]; k < g.out_ptr()[u + 1]; ++k) {
      value(u, g.out_dst()[k], c.data());
      for (std::int64_t j = 0; j < w; ++j) row[j] += c[j];
    }
  }
  return out;
}

/// Runs `ep` unsharded (k = 0) or over k degree-balanced shards, asserting
/// the boundary output's stash is never allocated: its |E| x w x 4 bytes
/// are charged as saved.
void run_counted(const Graph& g, const EdgeProgram& ep, Env& env, int k,
                 std::int64_t boundary_w) {
  CounterScope scope;
  if (k == 0) {
    run_edge_program(g, ep, env.bindings());
  } else {
    const Partitioning part =
        Partitioning::build(g, k, PartitionStrategy::DegreeBalanced);
    run_edge_program_sharded(g, part, ep, env.bindings());
  }
  EXPECT_EQ(scope.delta().boundary_stash_saved_bytes,
            static_cast<std::uint64_t>(g.num_edges()) * boundary_w * 4)
      << "K=" << k;
}

TEST(Sharded, WideConeReplaysExactly) {
  // The combine replays each boundary value's dependency cone instead of
  // reading a stash; the fold must still match a plain loop bit for bit,
  // for 1- and 3-op chains and for the GAT attention-backward cone (6
  // arithmetic ops, ending in a width-w mul_head), unsharded and at every K.
  Rng rng(17);
  const Graph g = test_graph();
  const std::int64_t n = g.num_vertices(), m = g.num_edges(), f = 4;
  const std::vector<int> ks = {0, 1, 3, 8};

  for (const bool long_chain : {false, true}) {
    const EdgeProgram chain = boundary_program(f, long_chain);
    Env cenv;
    cenv.tensors.emplace(0, Tensor::randn(n, f, rng));
    const Tensor& x = cenv.tensors.at(0);
    const Tensor chain_ref =
        fold_to_src(g, f, [&](std::int64_t u, std::int64_t v, float* c) {
          for (std::int64_t j = 0; j < f; ++j) {
            const float xu = x.row(u)[j], xv = x.row(v)[j];
            c[j] = long_chain ? ((xu + xv) * xu) - xv : xu + xv;
          }
        });
    for (const int k : ks) {
      cenv.outs.insert_or_assign(1, Tensor::zeros(n, f));
      run_counted(g, chain, cenv, k, f);
      expect_bit_identical(chain_ref, cenv.outs.at(1), "boundary chain");
    }
  }

  for (const std::int64_t w : {std::int64_t{16}, std::int64_t{128}}) {
    const EdgeProgram ep = gat_attention_backward(w);
    Env env;
    env.tensors.emplace(0, Tensor::randn(n, 1, rng));
    env.tensors.emplace(1, Tensor::randn(n, 1, rng));
    env.tensors.emplace(2, Tensor::randn(n, w, rng));
    env.tensors.emplace(3, Tensor::randn(n, 1, rng));
    env.tensors.emplace(4, uniform_rows(n, 1, 0.5, 2.0, rng));
    env.tensors.emplace(5, Tensor::randn(n, w, rng));
    const auto in = [&](int id, std::int64_t v) {
      return env.tensors.at(id).row(v);
    };
    const Tensor ref =
        fold_to_src(g, w, [&](std::int64_t u, std::int64_t v, float* c) {
          const float s = in(0, u)[0] + in(1, v)[0];
          const float l = s > 0.f ? s : kSlope * s;
          const float att = std::exp(l - in(3, v)[0]) / in(4, v)[0];
          for (std::int64_t j = 0; j < w; ++j) c[j] = att * in(2, v)[j];
        });
    std::vector<Tensor> unsharded;
    for (const int k : ks) {
      for (const int id : {10, 11, 12}) {
        env.outs.insert_or_assign(
            id, Tensor::zeros(n, ep.vertex_outputs[id - 10].width));
      }
      env.outs.insert_or_assign(13, Tensor::zeros(m, 1));
      env.outs.insert_or_assign(14, Tensor::zeros(m, 1));
      run_counted(g, ep, env, k, w);
      expect_bit_identical(ref, env.outs.at(10), "GAT attention backward");
      // The walk-side outputs must not depend on K either.
      for (int id = 11; id <= 14; ++id) {
        if (k == 0) {
          unsharded.push_back(env.outs.at(id).clone());
        } else {
          expect_bit_identical(unsharded[id - 11], env.outs.at(id),
                               "GAT attention backward walk output");
        }
      }
    }
  }
}

TEST(Sharded, WalkPrunesBoundaryOnlyValues) {
  // One phase with all three kinds of side effect: a StoreE and a sequential
  // Reduce of the score, and a wide register (the score times the dst
  // features) that feeds only the boundary Reduce. The walk drops the wide
  // value and the combine computes it; every output must stay exact.
  Rng rng(19);
  const Graph g = test_graph();
  const std::int64_t n = g.num_vertices(), m = g.num_edges(), w = 32;
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  ep.phases[0].instrs = {load(EPOp::LoadU, 0, 0, 1),
                         load(EPOp::LoadV, 1, 1, 1),
                         binop(EPOp::Add, 2, 0, 1, 1),
                         store(2, 12, 1),
                         reduce(2, 0, 1),
                         load(EPOp::LoadV, 3, 2, w),
                         binop(EPOp::MulHead, 4, 3, 2, w),
                         reduce(4, 1, w)};
  ep.num_regs = 5;
  ep.reg_width = {1, 1, 1, w, w};
  const auto sum = static_cast<std::uint8_t>(ReduceFn::Sum);
  ep.vertex_outputs = {{10, sum, 1, 0, false, false, false},
                       {11, sum, w, 0, /*reverse=*/true, false, false}};
  ep.edge_outputs = {{12, 1}};

  Env env;
  env.tensors.emplace(0, Tensor::randn(n, 1, rng));
  env.tensors.emplace(1, Tensor::randn(n, 1, rng));
  env.tensors.emplace(2, Tensor::randn(n, w, rng));
  const auto score = [&](std::int64_t u, std::int64_t v) {
    return env.tensors.at(0).row(u)[0] + env.tensors.at(1).row(v)[0];
  };
  Tensor store_ref(m, 1), seq_ref = Tensor::zeros(n, 1);
  for (std::int64_t v = 0; v < n; ++v) {
    for (std::int64_t k = g.in_ptr()[v]; k < g.in_ptr()[v + 1]; ++k) {
      const float s = score(g.in_src()[k], v);
      store_ref.data()[g.in_eid()[k]] = s;
      seq_ref.data()[v] += s;
    }
  }
  const Tensor wide_ref =
      fold_to_src(g, w, [&](std::int64_t u, std::int64_t v, float* c) {
        const float s = score(u, v);
        for (std::int64_t j = 0; j < w; ++j) {
          c[j] = s * env.tensors.at(2).row(v)[j];
        }
      });
  for (const int k : {0, 4}) {
    env.outs.insert_or_assign(10, Tensor::zeros(n, 1));
    env.outs.insert_or_assign(11, Tensor::zeros(n, w));
    env.outs.insert_or_assign(12, Tensor::zeros(m, 1));
    run_counted(g, ep, env, k, w);
    expect_bit_identical(store_ref, env.outs.at(12), "pruned-walk StoreE");
    expect_bit_identical(seq_ref, env.outs.at(10), "pruned-walk sequential");
    expect_bit_identical(wide_ref, env.outs.at(11), "pruned-walk boundary");
  }
}

TEST(Sharded, WalkTimeChargedAndNoCombineOverlap) {
  const Graph g = test_graph();
  const auto build = [](Rng& r) {
    GcnConfig cfg;
    cfg.in_dim = 6;
    cfg.hidden = {8};
    cfg.num_classes = 4;
    return api::Gcn(cfg).build(r);
  };
  CounterScope scope;
  train_run(g, build, 4, PartitionStrategy::DegreeBalanced, 1, 6,
            ours_no_specialize());
  const PerfCounters d = scope.delta();
  EXPECT_GT(d.walk_ns, 0u);
  // Every combine runs after the walk join, so none overlaps a walk.
  EXPECT_EQ(d.combine_overlap_ns, 0u);
}

}  // namespace
}  // namespace triad
