#include "models/models.h"

#include <cmath>

namespace triad {

Tensor make_pseudo_coords(const Graph& g, std::int64_t dim) {
  Tensor p(g.num_edges(), dim, MemTag::kInput);
  for (std::int64_t e = 0; e < g.num_edges(); ++e) {
    float* row = p.row(e);
    const auto du = static_cast<float>(std::max<std::int64_t>(
        1, g.out_degree(g.edge_src()[e])));
    const auto dv = static_cast<float>(std::max<std::int64_t>(
        1, g.in_degree(g.edge_dst()[e])));
    for (std::int64_t j = 0; j < dim; ++j) {
      switch (j % 3) {
        case 0: row[j] = 1.f / std::sqrt(du); break;
        case 1: row[j] = 1.f / std::sqrt(dv); break;
        default: row[j] = 1.f; break;
      }
    }
  }
  return p;
}

}  // namespace triad
