/// \file
/// Specialized core for the MoNet gaussian-weighted gather:
///
///   r0 = load(other) feat     // (K*f) transformed neighbor features
///   r1 = load_e pseudo        // (r) edge pseudo-coordinates
///   r2 = gauss r1 mu sigma    // (K) mixture weights
///   r3 = mul_head r0 r2       // (K*f)
///   reduce r3 -> acc0 (Sum)
///
/// Bit-identity: the gaussian accumulation copies the interpreter's exact
/// expression (accv += sigma^2 * diff^2 with the same association), the same
/// std::exp call, and the weighted gather accumulates per element in the same
/// edge order with a plain mul-then-add (-ffp-contract=off).
#pragma once

#include <cmath>
#include <cstdint>

#include "support/macros.h"

namespace triad::cores {

/// kF is the per-kernel feature width (W / kernels); 0 = runtime width.
/// `r` is the pseudo-coordinate dimension (row stride of mu/sigma).
template <int kF>
inline void monet_gauss(const std::int64_t* TRIAD_RESTRICT ptr,
                        const std::int32_t* TRIAD_RESTRICT adj,
                        const std::int32_t* TRIAD_RESTRICT eid,
                        const float* TRIAD_RESTRICT feat, std::int64_t feat_cols,
                        const float* TRIAD_RESTRICT pseudo,
                        std::int64_t pseudo_cols,
                        const float* TRIAD_RESTRICT mu,
                        const float* TRIAD_RESTRICT sigma, std::int64_t r,
                        std::int64_t kernels, std::int64_t f_rt,
                        float* TRIAD_RESTRICT out, std::int64_t v_lo,
                        std::int64_t v_hi) {
  const std::int64_t f = kF > 0 ? kF : f_rt;
  const std::int64_t wout = kernels * f;
  constexpr std::int64_t kPrefetchDist = 8;
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    float* TRIAD_RESTRICT acc = out + v * wout;
    for (std::int64_t j = 0; j < wout; ++j) acc[j] = 0.f;
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    for (std::int64_t i = elo; i < ehi; ++i) {
      if (i + kPrefetchDist < ehi) {
        TRIAD_PREFETCH(feat +
                       static_cast<std::int64_t>(adj[i + kPrefetchDist]) *
                           feat_cols);
      }
      const float* TRIAD_RESTRICT xu =
          feat + static_cast<std::int64_t>(adj[i]) * feat_cols;
      const float* TRIAD_RESTRICT ps =
          pseudo + static_cast<std::int64_t>(eid[i]) * pseudo_cols;
      for (std::int64_t k = 0; k < kernels; ++k) {
        const float* TRIAD_RESTRICT pm = mu + k * r;
        const float* TRIAD_RESTRICT sg = sigma + k * r;
        float accv = 0.f;
        for (std::int64_t j = 0; j < r; ++j) {
          const float diff = ps[j] - pm[j];
          accv += sg[j] * sg[j] * diff * diff;
        }
        const float wgt = std::exp(-0.5f * accv);
        const float* TRIAD_RESTRICT xr = xu + k * f;
        float* TRIAD_RESTRICT arow = acc + k * f;
        // Lane-parallel (independent per-j chains): vectorize without
        // reassociating any accumulator.
        TRIAD_SIMD
        for (std::int64_t j = 0; j < f; ++j) arow[j] += wgt * xr[j];
      }
    }
  }
}

}  // namespace triad::cores
