/// \file
/// Specialized core for the EdgeConv max-reduce shape (dst-major):
///
///   r0 = load_u x             // neighbor features
///   r1 = load_v x             // center features, same tensor
///   r2 = sub r0 r1
///   r3 = load_v y
///   r4 = add r2 r3
///   reduce r4 -> acc0 (Max, argmax tracked)
///
/// Bit-identity: per element the core evaluates (x_u[j] - x_v[j]) + y_v[j]
/// with the interpreter's association, compares with the same strict `>`,
/// records the same int32 edge id on a win, and applies the identical
/// isolated-vertex fixup (degree 0 -> zeros, argmax stays -1).
#pragma once

#include <cstdint>
#include <limits>

#include "support/macros.h"

namespace triad::cores {

template <int kW>
inline void edgeconv_max(const std::int64_t* TRIAD_RESTRICT ptr,
                         const std::int32_t* TRIAD_RESTRICT adj,
                         const std::int32_t* TRIAD_RESTRICT eid,
                         const float* TRIAD_RESTRICT x, std::int64_t x_cols,
                         const float* TRIAD_RESTRICT y, std::int64_t y_cols,
                         float* TRIAD_RESTRICT out,
                         std::int32_t* TRIAD_RESTRICT aux, std::int64_t w_rt,
                         std::int64_t v_lo, std::int64_t v_hi) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const std::int64_t w = kW > 0 ? kW : w_rt;
  constexpr std::int64_t kBlock = 64;
  constexpr std::int64_t kPrefetchDist = 8;
  for (std::int64_t blk = v_lo; blk < v_hi; blk += kBlock) {
    const std::int64_t blk_hi = blk + kBlock < v_hi ? blk + kBlock : v_hi;
    for (std::int64_t v = blk; v < blk_hi; ++v) {
      float* TRIAD_RESTRICT acc = out + v * w;
      std::int32_t* TRIAD_RESTRICT arg = aux + v * w;
      for (std::int64_t j = 0; j < w; ++j) acc[j] = kNegInf;
      for (std::int64_t j = 0; j < w; ++j) arg[j] = -1;
      const float* TRIAD_RESTRICT xv = x + v * x_cols;
      const float* TRIAD_RESTRICT yv = y + v * y_cols;
      const std::int64_t elo = ptr[v];
      const std::int64_t ehi = ptr[v + 1];
      for (std::int64_t i = elo; i < ehi; ++i) {
        if (i + kPrefetchDist < ehi) {
          TRIAD_PREFETCH(
              x + static_cast<std::int64_t>(adj[i + kPrefetchDist]) * x_cols);
        }
        const float* TRIAD_RESTRICT xu =
            x + static_cast<std::int64_t>(adj[i]) * x_cols;
        const std::int32_t e = eid[i];
        // Lanes are independent (each j carries its own max/argmax), but the
        // argmax side effect makes the autovectorizer give up on its own —
        // the explicit simd pragma recovers ~w-wide compare/blend code while
        // keeping the per-lane `>` and edge-id semantics exactly.
        TRIAD_SIMD
        for (std::int64_t j = 0; j < w; ++j) {
          const float t = (xu[j] - xv[j]) + yv[j];
          if (t > acc[j]) {
            acc[j] = t;
            arg[j] = e;
          }
        }
      }
      if (elo == ehi) {
        for (std::int64_t j = 0; j < w; ++j) acc[j] = 0.f;  // isolated vertex
      }
    }
  }
}

}  // namespace triad::cores
