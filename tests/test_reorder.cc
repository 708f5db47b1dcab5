// Tests for graph reordering: permutation validity and model invariance
// (reordering may change layout/locality but never results).
#include <gtest/gtest.h>

#include "baselines/strategy.h"
#include "engine/plan.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "ir/graph.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace triad {
namespace {

TEST(Reorder, DegreeOrderingIsPermutation) {
  Rng rng(1);
  Graph g = gen::rmat(8, 2000, rng);
  Permutation p = degree_ordering(g);
  EXPECT_TRUE(is_permutation(p));
}

TEST(Reorder, DegreeOrderingPutsHubsFirst) {
  Rng rng(2);
  Graph g = gen::rmat(8, 2000, rng);
  Permutation p = degree_ordering(g);
  // The vertex ranked 0 must have max total degree.
  std::int64_t best = 0;
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    best = std::max(best, g.in_degree(v) + g.out_degree(v));
  }
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    if (p[v] == 0) {
      EXPECT_EQ(g.in_degree(v) + g.out_degree(v), best);
    }
  }
}

TEST(Reorder, BfsClusteringIsPermutation) {
  Rng rng(3);
  Graph g = gen::erdos_renyi(200, 600, rng);
  Permutation p = bfs_clustering(g);
  EXPECT_TRUE(is_permutation(p));
}

TEST(Reorder, BfsClusteringKeepsComponentsContiguous) {
  // Two disjoint cliques -> ids of each clique must form a contiguous range.
  std::vector<Edge> edges;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) {
        edges.push_back({a, b});
        edges.push_back({a + 4, b + 4});
      }
    }
  }
  Graph g(8, edges);
  Permutation p = bfs_clustering(g);
  ASSERT_TRUE(is_permutation(p));
  std::int32_t max_first = -1, min_second = 8;
  for (int v = 0; v < 4; ++v) max_first = std::max(max_first, p[v]);
  for (int v = 4; v < 8; ++v) min_second = std::min(min_second, p[v]);
  EXPECT_LT(max_first, min_second);
}

TEST(Reorder, PermuteGraphPreservesEdgeMultiset) {
  Rng rng(4);
  Graph g = gen::erdos_renyi(50, 300, rng);
  Permutation p = bfs_clustering(g);
  Graph h = permute_graph(g, p);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // Edge e maps endpoint-wise.
  for (std::int64_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge_src()[e], p[g.edge_src()[e]]);
    EXPECT_EQ(h.edge_dst()[e], p[g.edge_dst()[e]]);
  }
}

TEST(Reorder, PermuteRowsRoundTrip) {
  Rng rng(5);
  Tensor t = Tensor::randn(20, 3, rng);
  Permutation p(20);
  for (int i = 0; i < 20; ++i) p[i] = (i * 7) % 20;
  ASSERT_TRUE(is_permutation(p));
  Tensor moved = permute_rows(t, p);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ(moved.at(p[i], j), t.at(i, j));
  }
}

TEST(Reorder, EdgelessGraphOrderings) {
  // No edges: degree ordering is a stable identity-ish ranking, BFS visits
  // every singleton component, and permuting is a no-op on edges.
  Graph g(6, {});
  Permutation d = degree_ordering(g);
  Permutation b = bfs_clustering(g);
  EXPECT_TRUE(is_permutation(d));
  EXPECT_TRUE(is_permutation(b));
  // All degrees tie, so stable sort keeps the identity.
  for (int v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
  Graph h = permute_graph(g, b);
  EXPECT_EQ(h.num_edges(), 0);
  EXPECT_EQ(h.num_vertices(), 6);
}

TEST(Reorder, IsolatedVerticesGetIdsAfterTheirDiscovery) {
  // 0-1 connected, 2 isolated, 3-4 connected: BFS clustering must assign
  // every isolated vertex its own cluster without skipping ids.
  Graph g(5, {{0, 1}, {3, 4}});
  Permutation p = bfs_clustering(g);
  ASSERT_TRUE(is_permutation(p));
  // Cluster starts follow root order 0, 2, 3; members stay contiguous.
  EXPECT_LT(std::max(p[0], p[1]), p[2]);
  EXPECT_LT(p[2], std::min(p[3], p[4]));
}

TEST(Reorder, SingleVertexGraphOrderings) {
  Graph g(1, {{0, 0}});  // one vertex, one self-loop
  Permutation d = degree_ordering(g);
  Permutation b = bfs_clustering(g);
  EXPECT_EQ(d, Permutation{0});
  EXPECT_EQ(b, Permutation{0});
  Graph h = permute_graph(g, d);
  EXPECT_EQ(h.num_edges(), 1);
  EXPECT_EQ(h.edge_src()[0], 0);
}

TEST(Reorder, PermuteRowsOnEmptyTensor) {
  Tensor t(0, 3, MemTag::kWorkspace);
  Permutation p;
  Tensor out = permute_rows(t, p);
  EXPECT_EQ(out.rows(), 0);
  EXPECT_EQ(out.cols(), 3);
}

TEST(Reorder, IsPermutationRejectsBadVectors) {
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 2}));
  EXPECT_FALSE(is_permutation({-1, 0}));
  EXPECT_TRUE(is_permutation({2, 0, 1}));
}

TEST(Reorder, ModelResultsInvariantUnderReordering) {
  // Running the same GNN on a reordered graph with reordered features must
  // give the reordered outputs (reordering is a pure layout change).
  Rng rng(6);
  Graph g = gen::rmat(6, 400, rng);
  const std::int64_t f = 5;
  Tensor x = Tensor::randn(g.num_vertices(), f, rng);

  IrGraph ir;
  const int xin = ir.input(Space::Vertex, 0, f, "x");
  const int e = ir.scatter(ScatterFn::SubUV, xin, xin);
  const int r = ir.apply_unary(ApplyFn::LeakyReLU, e, 0.2f);
  const int out = ir.gather(ReduceFn::Sum, r);
  ir.mark_output(out);

  PlanRunner ex(
      g, ExecutionPlan::compile_shared(ir, g.num_vertices(), g.num_edges()));
  ex.bind(xin, x);
  ex.run();
  Tensor base = ex.result(out).clone();

  Permutation p = bfs_clustering(g);
  Graph pg = permute_graph(g, p);
  PlanRunner ex2(
      pg, ExecutionPlan::compile_shared(ir, pg.num_vertices(), pg.num_edges()));
  ex2.bind(xin, permute_rows(x, p));
  ex2.run();
  Tensor permuted_out = ex2.result(out).clone();

  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    for (std::int64_t j = 0; j < f; ++j) {
      EXPECT_NEAR(permuted_out.at(p[v], j), base.at(v, j), 1e-4f);
    }
  }
}

}  // namespace
}  // namespace triad
