/// \file
/// Specialized core for the GCN weighted-sum shape:
///
///   r0 = load(other)          // pre-scaled neighbor features
///   reduce r0 -> acc0 (Sum)
///
/// Bit-identity with the interpreter: the accumulation walks the same CSR
/// edge order and performs the identical scalar `+=` per element (the build
/// pins -ffp-contract=off, so neither side contracts into FMA). The core
/// accumulates directly into the output row — same value sequence as the
/// interpreter's local-accumulate-then-copy, hence the same bits.
#pragma once

#include <cstdint>

#include "support/macros.h"

namespace triad::cores {

/// kW > 0 fixes the feature width at compile time so the j-loop fully
/// unrolls/vectorizes; kW == 0 is the runtime-width fallback (same loop,
/// width read from `w_rt`). Visits the vertex range [v_lo, v_hi).
template <int kW>
inline void gcn_wsum(const std::int64_t* TRIAD_RESTRICT ptr,
                     const std::int32_t* TRIAD_RESTRICT adj,
                     const float* TRIAD_RESTRICT feat, std::int64_t feat_cols,
                     float* TRIAD_RESTRICT out, std::int64_t w_rt,
                     std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t w = kW > 0 ? kW : w_rt;
  constexpr std::int64_t kBlock = 64;        // vertices per cache block
  constexpr std::int64_t kPrefetchDist = 8;  // edges ahead
  for (std::int64_t blk = v_lo; blk < v_hi; blk += kBlock) {
    const std::int64_t blk_hi = blk + kBlock < v_hi ? blk + kBlock : v_hi;
    for (std::int64_t v = blk; v < blk_hi; ++v) {
      float* TRIAD_RESTRICT acc = out + v * w;
      for (std::int64_t j = 0; j < w; ++j) acc[j] = 0.f;
      const std::int64_t elo = ptr[v];
      const std::int64_t ehi = ptr[v + 1];
      for (std::int64_t i = elo; i < ehi; ++i) {
        if (i + kPrefetchDist < ehi) {
          TRIAD_PREFETCH(feat +
                         static_cast<std::int64_t>(adj[i + kPrefetchDist]) *
                             feat_cols);
        }
        const float* TRIAD_RESTRICT row =
            feat + static_cast<std::int64_t>(adj[i]) * feat_cols;
        // Lane-parallel: each j is an independent accumulator chain, so the
        // pragma vectorizes across lanes without reassociating any chain.
        TRIAD_SIMD
        for (std::int64_t j = 0; j < w; ++j) acc[j] += row[j];
      }
    }
  }
}

}  // namespace triad::cores
