#include "graph/partition.h"

#include <algorithm>
#include <sstream>

#include "support/macros.h"

namespace triad {

const char* to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::VertexRange: return "vertex-range";
    case PartitionStrategy::DegreeBalanced: return "degree-balanced";
  }
  return "?";
}

namespace {

/// Range boundaries (K+1 entries, first 0, last n) for equal vertex counts.
std::vector<std::int64_t> vertex_range_bounds(std::int64_t n, int k) {
  std::vector<std::int64_t> bounds(k + 1, 0);
  for (int s = 0; s <= k; ++s) bounds[s] = n * s / k;
  return bounds;
}

/// Boundaries balancing total degree (in + out) per shard: a linear sweep
/// closes a shard once its degree sum reaches the remaining average. Every
/// shard keeps at least one vertex while vertices remain, so no shard is
/// starved by a run of hubs.
std::vector<std::int64_t> degree_bounds(const Graph& g, int k) {
  const std::int64_t n = g.num_vertices();
  std::vector<std::int64_t> bounds(k + 1, n);
  bounds[0] = 0;
  const std::int64_t total = 2 * g.num_edges();
  std::int64_t v = 0;
  std::int64_t consumed = 0;
  for (int s = 0; s < k; ++s) {
    const std::int64_t shards_left = k - s;
    const std::int64_t vertices_left = n - v;
    if (vertices_left <= 0) {
      bounds[s + 1] = n;
      continue;
    }
    // Remaining-average target keeps later shards from ending up empty when
    // early shards overshoot on a hub.
    const std::int64_t target = (total - consumed + shards_left - 1) / shards_left;
    std::int64_t acc = 0;
    // Leave at least (shards_left - 1) vertices for the remaining shards.
    const std::int64_t v_max = n - (shards_left - 1);
    do {
      acc += g.in_degree(v) + g.out_degree(v);
      ++v;
    } while (v < v_max && acc < target);
    consumed += acc;
    bounds[s + 1] = v;
  }
  bounds[k] = n;
  return bounds;
}

}  // namespace

Partitioning Partitioning::build(const Graph& g, int num_shards,
                                 PartitionStrategy strategy) {
  TRIAD_CHECK_GT(num_shards, 0, "partitioning needs at least one shard");
  Partitioning p;
  p.strategy_ = strategy;
  p.num_vertices_ = g.num_vertices();
  p.num_edges_ = g.num_edges();

  const std::vector<std::int64_t> bounds =
      strategy == PartitionStrategy::DegreeBalanced
          ? degree_bounds(g, num_shards)
          : vertex_range_bounds(g.num_vertices(), num_shards);

  p.shards_.resize(num_shards);
  p.range_starts_.resize(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    Shard& sh = p.shards_[s];
    sh.id = s;
    sh.v_lo = bounds[s];
    sh.v_hi = bounds[s + 1];
    sh.e_in_lo = g.in_ptr()[sh.v_lo];
    sh.e_in_hi = g.in_ptr()[sh.v_hi];
    sh.e_out_lo = g.out_ptr()[sh.v_lo];
    sh.e_out_hi = g.out_ptr()[sh.v_hi];
    p.range_starts_[s] = sh.v_lo;

    // Halo collection in one sweep over the local edge slices; cut-edge
    // counting rides along.
    std::vector<std::int32_t> halo;
    for (std::int64_t i = sh.e_in_lo; i < sh.e_in_hi; ++i) {
      const std::int32_t u = g.in_src()[i];
      if (!sh.owns(u)) {
        halo.push_back(u);
        ++sh.cut_in_edges;
      }
    }
    for (std::int64_t i = sh.e_out_lo; i < sh.e_out_hi; ++i) {
      const std::int32_t w = g.out_dst()[i];
      if (!sh.owns(w)) {
        halo.push_back(w);
        ++sh.cut_out_edges;
      }
    }
    std::sort(halo.begin(), halo.end());
    halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
    sh.halo = std::move(halo);
    p.total_halo_ += static_cast<std::int64_t>(sh.halo.size());
    // Each cut edge is foreign-src for exactly one shard, so summing the
    // incoming side counts every crossing once.
    p.cut_edges_ += sh.cut_in_edges;
  }
  return p;
}

int Partitioning::owner_of(std::int64_t v) const {
  TRIAD_CHECK(v >= 0 && v < num_vertices_, "vertex " << v << " out of range");
  const auto it =
      std::upper_bound(range_starts_.begin(), range_starts_.end(), v);
  int s = static_cast<int>(it - range_starts_.begin()) - 1;
  // Empty shards share a range start with their successor; ownership belongs
  // to the shard whose range actually contains v.
  while (s > 0 && !shards_[s].owns(v)) --s;
  return s;
}

double Partitioning::edge_imbalance() const {
  if (num_edges_ == 0 || shards_.empty()) return 1.0;
  std::int64_t max_in = 0;
  for (const Shard& sh : shards_) max_in = std::max(max_in, sh.num_in_edges());
  const double ideal =
      static_cast<double>(num_edges_) / static_cast<double>(shards_.size());
  return ideal > 0 ? static_cast<double>(max_in) / ideal : 1.0;
}

std::string Partitioning::stats() const {
  std::ostringstream os;
  os << "K=" << shards_.size() << " strategy=" << to_string(strategy_)
     << " cut_edges=" << cut_edges_ << " halo=" << total_halo_
     << " imbalance=" << edge_imbalance();
  return os.str();
}

}  // namespace triad
