// Structural tests for the EdgeProgram representation and the programs the
// FusionPass emits for the paper's model patterns.
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "ir/passes/fusion.h"
#include "ir/passes/recompute.h"
#include "ir/autodiff.h"
#include "models/models.h"
#include "support/rng.h"

namespace triad {
namespace {

TEST(EdgeProgramStruct, DumpIsReadable) {
  EdgeProgram ep;
  ep.mapping = WorkMapping::VertexBalanced;
  ep.dst_major = true;
  ep.phases.resize(1);
  EPInstr load;
  load.op = EPOp::LoadU;
  load.dst = 0;
  load.tensor = 3;
  load.width = 8;
  EPInstr red;
  red.op = EPOp::Reduce;
  red.a = 0;
  red.acc = 0;
  red.width = 8;
  ep.phases[0].instrs = {load, red};
  ep.vertex_outputs.push_back({7, 0, 8, 0, false, false, false});
  ep.num_regs = 1;
  ep.reg_width = {8};
  const std::string d = ep.dump();
  EXPECT_NE(d.find("load_u"), std::string::npos);
  EXPECT_NE(d.find("reduce"), std::string::npos);
  EXPECT_NE(d.find("mapping=vertex"), std::string::npos);
}

TEST(EdgeProgramStruct, GatForwardProgramShape) {
  // The optimized GAT forward region must be: 3 phases (softmax), vertex
  // outputs for max, denominator and the aggregate, and no StoreE in
  // inference mode (everything lives in registers).
  Rng rng(1);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.num_classes = 3;
  Compiled c = compile_model(api::Gat(cfg).build(rng), ours(),
                             /*training=*/false);
  ASSERT_EQ(c.ir.programs.size(), 1u);
  const EdgeProgram& ep = c.ir.programs[0];
  EXPECT_EQ(ep.phases.size(), 3u);
  EXPECT_EQ(ep.vertex_outputs.size(), 3u);
  EXPECT_TRUE(ep.edge_outputs.empty());
  EXPECT_EQ(ep.mapping, WorkMapping::VertexBalanced);
  EXPECT_TRUE(ep.dst_major);
}

TEST(EdgeProgramStruct, GatTrainingStashesNothingPerEdgeUnderRecompute) {
  // Fusion+recompute: the forward program keeps max/denominator (vertex) but
  // materializes no O(|E|) tensor; the backward program recomputes the
  // softmax chain (its instruction stream contains Exp).
  Rng rng(2);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.num_classes = 3;
  Compiled c = compile_model(api::Gat(cfg).build(rng), ours(),
                             /*training=*/true);
  ASSERT_GE(c.ir.programs.size(), 2u);
  const EdgeProgram& fwd = c.ir.programs[0];
  EXPECT_TRUE(fwd.edge_outputs.empty())
      << "forward fused kernel stored an edge tensor despite recompute";
  bool backward_recomputes_exp = false;
  for (std::size_t p = 1; p < c.ir.programs.size(); ++p) {
    for (const EPPhase& ph : c.ir.programs[p].phases) {
      for (const EPInstr& in : ph.instrs) {
        backward_recomputes_exp |= in.op == EPOp::Exp;
      }
    }
  }
  EXPECT_TRUE(backward_recomputes_exp);
}

TEST(EdgeProgramStruct, GatTrainingWithStashStoresEdgeTensors) {
  Rng rng(3);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.num_classes = 3;
  Compiled c =
      compile_model(api::Gat(cfg).build(rng), ours_fusion_stash(),
                    /*training=*/true);
  std::size_t stored = 0;
  for (const EdgeProgram& ep : c.ir.programs) {
    stored += ep.edge_outputs.size();
  }
  EXPECT_GE(stored, 1u) << "stash mode must StoreE at least one edge tensor";
}

TEST(EdgeProgramStruct, EdgeConvBackwardUsesMaxBwdMask) {
  Rng rng(4);
  EdgeConvConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden = {8};
  cfg.num_classes = 3;
  Compiled c = compile_model(api::EdgeConv(cfg).build(rng), ours(), true);
  bool has_mask = false, has_atomic_reverse = false;
  for (const EdgeProgram& ep : c.ir.programs) {
    for (const EPPhase& ph : ep.phases) {
      for (const EPInstr& in : ph.instrs) has_mask |= in.op == EPOp::MaxBwdMask;
    }
    for (const VertexOutput& vo : ep.vertex_outputs) {
      has_atomic_reverse |= vo.reverse && vo.atomic;
    }
  }
  EXPECT_TRUE(has_mask);
  EXPECT_TRUE(has_atomic_reverse)
      << "grad toward the source endpoint needs a cross-orientation reduce";
}

TEST(EdgeProgramStruct, MonetForwardFusesGaussian) {
  Rng rng(5);
  MoNetConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.kernels = 2;
  cfg.pseudo_dim = 2;
  cfg.num_classes = 3;
  Compiled c = compile_model(api::MoNet(cfg).build(rng), ours(), false);
  ASSERT_GE(c.ir.programs.size(), 1u);
  bool has_gauss = false;
  for (const EPPhase& ph : c.ir.programs[0].phases) {
    for (const EPInstr& in : ph.instrs) has_gauss |= in.op == EPOp::Gauss;
  }
  EXPECT_TRUE(has_gauss);
}

TEST(EdgeProgramStruct, RegisterWidthsConsistent) {
  // Every instruction's dst width must match the declared register width.
  Rng rng(6);
  GatConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = 8;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = 3;
  Compiled c = compile_model(api::Gat(cfg).build(rng), ours(), true);
  for (const EdgeProgram& ep : c.ir.programs) {
    for (const EPPhase& ph : ep.phases) {
      for (const EPInstr& in : ph.instrs) {
        if (in.dst >= 0) {
          ASSERT_LT(in.dst, ep.num_regs);
          EXPECT_EQ(ep.reg_width[in.dst], in.width)
              << to_string(in.op) << " writes r" << in.dst;
        }
      }
    }
  }
}

}  // namespace
}  // namespace triad
