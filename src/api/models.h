/// \file
/// Stock modules: the paper's four workloads on the typed front-end.
///
/// Each module builds the *paper-order* forward computation (Scatter before
/// ApplyEdge, expanded edge-softmax) so that the optimization passes, not the
/// module, are responsible for every speedup; `Gat(cfg).build(rng)` returns
/// the ModelGraph. The config structs live in models/models.h, including the
/// baseline hand-optimization flags (`GatConfig::prereorganized`,
/// `builtin_softmax`).
///
/// Parameters are registered per layer under a "layerN" scope, so a module
/// constructed with a name — `Gat(cfg, "gat")` — exposes `gat.layer0.aL`
/// style parameter names; the default (anonymous) modules expose
/// `layer0.W`, `layer0.b`, ….
#pragma once

#include "api/module.h"
#include "models/models.h"

namespace triad::api {

/// Graph convolutional network: per layer Linear → copy_u → gather_sum →
/// bias (+ ReLU between layers).
class Gcn final : public Module {
 public:
  explicit Gcn(GcnConfig cfg, std::string name = "")
      : Module(std::move(name)), cfg_(std::move(cfg)) {}
  std::string signature() const override;
  std::int64_t in_dim() const override { return cfg_.in_dim; }
  Value forward(GraphBuilder& g, const Value& features,
                const Value& pseudo) const override;
  const GcnConfig& config() const { return cfg_; }

 private:
  GcnConfig cfg_;
};

/// Graph attention network with the paper-order attention chain
/// (u_concat_v → Linear → LeakyReLU → expanded softmax) or, under the
/// baseline flags, DGL's hand-reorganized aL/aR form and built-in fused
/// edge-softmax.
class Gat final : public Module {
 public:
  explicit Gat(GatConfig cfg, std::string name = "")
      : Module(std::move(name)), cfg_(cfg) {}
  std::string signature() const override;
  std::int64_t in_dim() const override { return cfg_.in_dim; }
  Value forward(GraphBuilder& g, const Value& features,
                const Value& pseudo) const override;
  const GatConfig& config() const { return cfg_; }

 private:
  GatConfig cfg_;
};

/// EdgeConv (DGCNN): per layer Θ·(h_u − h_v) + Φ·h_v, max-pooled — with the
/// expensive Linear deliberately in edge space (the redundancy ReorgPass
/// removes).
class EdgeConv final : public Module {
 public:
  explicit EdgeConv(EdgeConvConfig cfg, std::string name = "")
      : Module(std::move(name)), cfg_(std::move(cfg)) {}
  std::string signature() const override;
  std::int64_t in_dim() const override { return cfg_.in_dim; }
  Value forward(GraphBuilder& g, const Value& features,
                const Value& pseudo) const override;
  const EdgeConvConfig& config() const { return cfg_; }

 private:
  EdgeConvConfig cfg_;
};

/// MoNet / GMMConv: learnable gaussian mixture weights over per-edge
/// pseudo-coordinates (the module with a pseudo input).
class MoNet final : public Module {
 public:
  explicit MoNet(MoNetConfig cfg, std::string name = "")
      : Module(std::move(name)), cfg_(cfg) {}
  std::string signature() const override;
  std::int64_t in_dim() const override { return cfg_.in_dim; }
  std::int64_t pseudo_dim() const override { return cfg_.pseudo_dim; }
  Value forward(GraphBuilder& g, const Value& features,
                const Value& pseudo) const override;
  const MoNetConfig& config() const { return cfg_; }

 private:
  MoNetConfig cfg_;
};

}  // namespace triad::api
