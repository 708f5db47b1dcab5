/// \file
/// Specialized core for the GAT attention-score gradient (dst-major):
///
///   r0 = load_e eg            // gradient wrt exp(score - max), per edge
///   r1 = load_v gs            // per-vertex gradient sum (softmax jacobian)
///   r2 = max_bwd_mask r1 aux  // replay of the score-max argmax
///   r3 = sub r0 r2
///   r4 = load_e sc            // raw pre-activation score
///   r5 = leaky_relu_grad r3 r4
///   reduce r5 -> acc_rev (Sum, rev)   // src-side a_l gradient (boundary)
///   reduce r5 -> acc_seq (Sum)        // dst-side a_r gradient
///
/// Per edge the value is SSA — it depends only on (e, dst) — so the combine
/// recomputes it as one flat loop, as the interpreter's cone replay does;
/// same bits (the expression, association, and fold order are identical).
#pragma once

#include <cstdint>

#include "support/macros.h"

namespace triad::cores {

/// The per-edge gradient value shared by walk and combine. `j` indexes the
/// head; callers hoist the per-edge row pointers.
inline float gat_scorebwd_val(const float* TRIAD_RESTRICT ege,
                              const float* TRIAD_RESTRICT sce,
                              const float* TRIAD_RESTRICT gsd,
                              const std::int32_t* TRIAD_RESTRICT auxd,
                              std::int32_t e, float alpha, std::int64_t j) {
  const float m = auxd[j] == e ? gsd[j] : 0.f;
  const float a = ege[j] - m;
  return sce[j] > 0.f ? a : alpha * a;
}

/// Walk: sequential (dst-side) reduction over in-edges of each visited dst.
template <int kH>
inline void gat_scorebwd(const std::int64_t* TRIAD_RESTRICT ptr,
                         const std::int32_t* TRIAD_RESTRICT eid,
                         const float* TRIAD_RESTRICT eg, std::int64_t eg_cols,
                         const float* TRIAD_RESTRICT sc, std::int64_t sc_cols,
                         const float* TRIAD_RESTRICT gs, std::int64_t gs_cols,
                         const std::int32_t* TRIAD_RESTRICT aux,
                         std::int64_t aux_cols, float alpha,
                         float* TRIAD_RESTRICT out, std::int64_t h_rt,
                         std::int64_t v_lo, std::int64_t v_hi) {
  const std::int64_t h = kH > 0 ? kH : h_rt;
  for (std::int64_t v = v_lo; v < v_hi; ++v) {
    float* TRIAD_RESTRICT acc = out + v * h;
    for (std::int64_t j = 0; j < h; ++j) acc[j] = 0.f;
    const float* TRIAD_RESTRICT gsv = gs + v * gs_cols;
    const std::int32_t* TRIAD_RESTRICT av = aux + v * aux_cols;
    const std::int64_t elo = ptr[v];
    const std::int64_t ehi = ptr[v + 1];
    for (std::int64_t i = elo; i < ehi; ++i) {
      const std::int32_t e = eid[i];
      const float* TRIAD_RESTRICT ege = eg + static_cast<std::int64_t>(e) * eg_cols;
      const float* TRIAD_RESTRICT sce = sc + static_cast<std::int64_t>(e) * sc_cols;
      TRIAD_SIMD
      for (std::int64_t j = 0; j < h; ++j) {
        acc[j] += gat_scorebwd_val(ege, sce, gsv, av, e, alpha, j);
      }
    }
  }
}

/// Combine: boundary (src-side) reduction over the out-adjacency of each
/// target; `adj[k]` is the dst vertex the replayed value reads.
template <int kH>
inline void gat_scorebwd_combine(
    const std::int64_t* TRIAD_RESTRICT ptr,
    const std::int32_t* TRIAD_RESTRICT adj,
    const std::int32_t* TRIAD_RESTRICT eid, const float* TRIAD_RESTRICT eg,
    std::int64_t eg_cols, const float* TRIAD_RESTRICT sc, std::int64_t sc_cols,
    const float* TRIAD_RESTRICT gs, std::int64_t gs_cols,
    const std::int32_t* TRIAD_RESTRICT aux, std::int64_t aux_cols, float alpha,
    float* TRIAD_RESTRICT out, std::int64_t h_rt,
    std::int64_t t_lo, std::int64_t t_hi) {
  const std::int64_t h = kH > 0 ? kH : h_rt;
  for (std::int64_t t = t_lo; t < t_hi; ++t) {
    float* TRIAD_RESTRICT row = out + t * h;
    for (std::int64_t j = 0; j < h; ++j) row[j] = 0.f;
    const std::int64_t klo = ptr[t];
    const std::int64_t khi = ptr[t + 1];
    for (std::int64_t k = klo; k < khi; ++k) {
      const std::int64_t d = adj[k];
      const std::int32_t e = eid[k];
      const float* TRIAD_RESTRICT ege = eg + static_cast<std::int64_t>(e) * eg_cols;
      const float* TRIAD_RESTRICT sce = sc + static_cast<std::int64_t>(e) * sc_cols;
      const float* TRIAD_RESTRICT gsd = gs + d * gs_cols;
      const std::int32_t* TRIAD_RESTRICT ad = aux + d * aux_cols;
      TRIAD_SIMD
      for (std::int64_t j = 0; j < h; ++j) {
        row[j] += gat_scorebwd_val(ege, sce, gsd, ad, e, alpha, j);
      }
    }
  }
}

}  // namespace triad::cores
