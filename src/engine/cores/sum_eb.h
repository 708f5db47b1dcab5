/// \file
/// Specialized core for edge-balanced Sum gathers of the non-target
/// endpoint:
///
///   r0 = load(other)          // LoadU (target = dst) or LoadV (target = src)
///   reduce r0 -> acc0 (Sum, atomic)
///
/// Under WorkMapping::EdgeBalanced the interpreter fully elides this shape's
/// edge walk (the contribution is a pure load) and realizes the program as
/// its deterministic combine alone: each target row is folded over the
/// output's reverse-orientation adjacency in fixed edge order. This core IS
/// that fold — a flat per-target loop over in- (or out-, when the output is
/// reverse) adjacency summing neighbor rows, so it charges zero atomics and
/// stays bit-identical to the interpreter for any thread or shard count.
/// The per-edge atomic discipline `gather_edge_balanced` models remains the
/// analytic cost charged for the program; this is the CPU realization.
#pragma once

#include <cstdint>

#include "support/macros.h"

namespace triad::cores {

template <int kW>
inline void sum_eb(const std::int64_t* TRIAD_RESTRICT ptr,
                   const std::int32_t* TRIAD_RESTRICT adj,
                   const float* TRIAD_RESTRICT feat, std::int64_t feat_cols,
                   float* TRIAD_RESTRICT out, std::int64_t w_rt,
                   std::int64_t t_lo, std::int64_t t_hi) {
  const std::int64_t w = kW > 0 ? kW : w_rt;
  constexpr std::int64_t kPrefetchDist = 8;
  for (std::int64_t t = t_lo; t < t_hi; ++t) {
    float* TRIAD_RESTRICT row = out + t * w;
    for (std::int64_t j = 0; j < w; ++j) row[j] = 0.f;
    const std::int64_t klo = ptr[t];
    const std::int64_t khi = ptr[t + 1];
    for (std::int64_t k = klo; k < khi; ++k) {
      if (k + kPrefetchDist < khi) {
        TRIAD_PREFETCH(feat +
                       static_cast<std::int64_t>(adj[k + kPrefetchDist]) *
                           feat_cols);
      }
      const float* TRIAD_RESTRICT c =
          feat + static_cast<std::int64_t>(adj[k]) * feat_cols;
      TRIAD_SIMD
      for (std::int64_t j = 0; j < w; ++j) row[j] += c[j];
    }
  }
}

}  // namespace triad::cores
