/// \file
/// Specialized core for the GAT 3-phase softmax-weighted gather (dst-major):
///
///   phase 0: score = leaky_relu(a_l[u] + a_r[v]);  reduce -> max (argmax)
///   phase 1: exp(score - max[v])                ;  reduce -> sum
///   phase 2: (exp(score - max[v]) / sum[v]) per head * feat[u];  reduce -> Sum
///
/// The per-edge score is recomputed each phase exactly as the interpreter
/// recomputes it (the paper's recompute-over-materialize trade), and phases
/// communicate only through the finalized per-vertex max/sum rows — the same
/// values LoadAcc reads back. Per element the arithmetic, association, libm
/// calls (std::exp), comparison (strict >) and isolated-vertex fixups match
/// the interpreter exactly, so output is bit-identical.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "support/macros.h"

namespace triad::cores {

/// kF is the per-head feature width (W / heads) — the hot inner loop of
/// phase 2; 0 = runtime width.
template <int kF>
inline void gat_softmax(const std::int64_t* TRIAD_RESTRICT ptr,
                        const std::int32_t* TRIAD_RESTRICT adj,
                        const std::int32_t* TRIAD_RESTRICT eid,
                        const float* TRIAD_RESTRICT feat, std::int64_t feat_cols,
                        const float* TRIAD_RESTRICT al, std::int64_t al_cols,
                        const float* TRIAD_RESTRICT ar, std::int64_t ar_cols,
                        float alpha, std::int64_t heads, std::int64_t f_rt,
                        float* TRIAD_RESTRICT out_max,
                        std::int32_t* TRIAD_RESTRICT aux_max,
                        float* TRIAD_RESTRICT out_sum,
                        float* TRIAD_RESTRICT out_feat, std::int64_t v_lo,
                        std::int64_t v_hi) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const std::int64_t f = kF > 0 ? kF : f_rt;
  const std::int64_t wout = heads * f;
  constexpr std::int64_t kPrefetchDist = 8;
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    const float* TRIAD_RESTRICT arv = ar + v * ar_cols;
    // Phase 0: per-head running max of the leaky-relu'd score, argmax = the
    // winning edge id. Accumulates straight into the finalized output row.
    float* TRIAD_RESTRICT mx = out_max + v * heads;
    std::int32_t* TRIAD_RESTRICT ax = aux_max + v * heads;
    for (std::int64_t h = 0; h < heads; ++h) mx[h] = kNegInf;
    for (std::int64_t h = 0; h < heads; ++h) ax[h] = -1;
    for (std::int64_t i = elo; i < ehi; ++i) {
      const float* TRIAD_RESTRICT alu =
          al + static_cast<std::int64_t>(adj[i]) * al_cols;
      const std::int32_t e = eid[i];
      for (std::int64_t h = 0; h < heads; ++h) {
        const float s = alu[h] + arv[h];
        const float ls = s > 0.f ? s : alpha * s;
        if (ls > mx[h]) {
          mx[h] = ls;
          ax[h] = e;
        }
      }
    }
    if (elo == ehi) {
      for (std::int64_t h = 0; h < heads; ++h) mx[h] = 0.f;  // isolated vertex
    }
    // Phase 1: sum of exp(score - max); reads the finalized max row.
    float* TRIAD_RESTRICT sm = out_sum + v * heads;
    for (std::int64_t h = 0; h < heads; ++h) sm[h] = 0.f;
    for (std::int64_t i = elo; i < ehi; ++i) {
      const float* TRIAD_RESTRICT alu =
          al + static_cast<std::int64_t>(adj[i]) * al_cols;
      for (std::int64_t h = 0; h < heads; ++h) {
        const float s = alu[h] + arv[h];
        const float ls = s > 0.f ? s : alpha * s;
        sm[h] += std::exp(ls - mx[h]);
      }
    }
    // Phase 2: normalized-weight gather of neighbor features.
    float* TRIAD_RESTRICT ov = out_feat + v * wout;
    for (std::int64_t j = 0; j < wout; ++j) ov[j] = 0.f;
    for (std::int64_t i = elo; i < ehi; ++i) {
      if (i + kPrefetchDist < ehi) {
        TRIAD_PREFETCH(feat +
                       static_cast<std::int64_t>(adj[i + kPrefetchDist]) *
                           feat_cols);
      }
      const std::int64_t u = adj[i];
      const float* TRIAD_RESTRICT alu = al + u * al_cols;
      const float* TRIAD_RESTRICT xu = feat + u * feat_cols;
      for (std::int64_t h = 0; h < heads; ++h) {
        const float s = alu[h] + arv[h];
        const float ls = s > 0.f ? s : alpha * s;
        const float ex = std::exp(ls - mx[h]);
        const float wgt = ex / sm[h];
        const float* TRIAD_RESTRICT xr = xu + h * f;
        float* TRIAD_RESTRICT orow = ov + h * f;
        for (std::int64_t j = 0; j < f; ++j) orow[j] += wgt * xr[j];
      }
    }
  }
}

}  // namespace triad::cores
