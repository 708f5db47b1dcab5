// Sharded-execution scaling on a multi-million-edge synthetic power-law
// graph.
//
// For each shard count K in {1, 8, 16, 32} the bench trains the same GAT
// under the sharded schedule (all shards walk, join, then each owner shard's
// range is combined as one task) and reports one row per K, with the speedup
// column taken against the K=1 row. walk_ns / combine_ns in the JSON rows are
// per-task time sums over shards.
//
// --scale shrinks the graph for smoke runs (CI uses --scale<=0.01);
// --edges=N overrides the pre-scale edge-count target (default 4M).
#include <cmath>

#include "bench_common.h"
#include "graph/generators.h"

using namespace triad;
using namespace triad::bench;

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  std::int64_t edge_target = 4000000;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--edges")) {
      edge_target = std::atoll(v);
    }
  }
  const auto m = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(std::llround(
              static_cast<double>(edge_target) * opt.scale)));
  // Vertex count tracks |E|/8 (average degree ~8, Reddit-like regime).
  std::int64_t vscale = 3;
  while ((std::int64_t{1} << vscale) < m / 8) ++vscale;
  const std::int64_t n = std::int64_t{1} << vscale;

  print_header("Scaling — sharded execution across K (GAT)",
               "same plan, same graph; only the shard count differs "
               "(combine order is identical, outputs bit-identical)");
  JsonReport rep("scaling", opt);

  Rng rng(opt.seed);
  Graph g = gen::rmat(vscale, m, rng);
  const auto f = std::max<std::int64_t>(
      4, static_cast<std::int64_t>(std::llround(64 * opt.feat_scale)));
  constexpr std::int64_t kClasses = 8;
  Tensor features = Tensor::randn(n, f, rng, 1.f, MemTag::kInput);
  IntTensor labels(n, 1, MemTag::kInput);
  for (std::int64_t v = 0; v < n; ++v) {
    labels.at(v, 0) = static_cast<std::int32_t>(rng.uniform_int(kClasses));
  }
  const std::string workload =
      "rmat_" + std::to_string(m / 1000000) + "." +
      std::to_string(m / 100000 % 10) + "M";
  std::printf("graph: |V|=%lld |E|=%lld feat=%lld\n",
              static_cast<long long>(n), static_cast<long long>(m),
              static_cast<long long>(f));

  // GAT, not GCN: pure-Sum models reduce sequentially in whichever
  // orientation each program walks, so they never hit the boundary combine.
  // The fused GAT softmax/attention programs mix orientations — the regime
  // the sharded combine actually runs.
  GatConfig cfg;
  cfg.in_dim = f;
  cfg.hidden = 64;
  cfg.heads = 1;
  cfg.layers = 2;
  cfg.num_classes = kClasses;

  auto run = [&](int k) {
    Options ok = opt;
    ok.shards = k;
    // Pin the interpreter: every boundary output then goes through the
    // owner-range combine, so combine_ns covers each program's combine.
    auto c = engine_compile(std::make_shared<api::Gat>(cfg),
                            ours_no_specialize(), /*training=*/true, g, ok);
    MemoryPool pool;
    return measure_training(std::move(c), g, features, Tensor{}, labels,
                            opt.steps, true, &pool);
  };

  Measurement base;
  for (const int k : {1, 8, 16, 32}) {
    const Measurement m = run(k);
    if (k == 1) base = m;
    rep.row(workload, "sharded K=" + std::to_string(k), m, base,
            "\"k\": " + std::to_string(k));
  }
  print_footnote(opt);
  rep.write();
  return 0;
}
