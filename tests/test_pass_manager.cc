// Tests for the PassManager: registration order, timing report, counter
// charging, and the compile_model pipeline it drives.
#include <gtest/gtest.h>

#include "api/models.h"
#include "baselines/strategy.h"
#include "graph/generators.h"
#include "ir/passes/pass_manager.h"
#include "models/models.h"
#include "support/counters.h"

namespace triad {
namespace {

IrGraph tiny_graph() {
  IrGraph ir;
  const int x = ir.input(Space::Vertex, 0, 4, "x");
  const int y = ir.apply_unary(ApplyFn::ReLU, x);
  ir.mark_output(y);
  return ir;
}

TEST(PassManager, RunsRegisteredPassesInOrder) {
  std::vector<std::string> executed;
  PassManager pm;
  pm.add("first",
         [&](IrGraph g) {
           executed.push_back("first");
           g.apply_unary(ApplyFn::Neg, g.outputs[0]);
           return g;
         })
      .add("second", [&](IrGraph g) {
        executed.push_back("second");
        return g;
      });
  IrGraph out = pm.run(tiny_graph());
  ASSERT_EQ(executed.size(), 2u);
  EXPECT_EQ(executed[0], "first");
  EXPECT_EQ(executed[1], "second");
  ASSERT_EQ(pm.report().size(), 2u);
  EXPECT_EQ(pm.report()[0].name, "first");
  EXPECT_EQ(pm.report()[0].nodes_before, 2);
  EXPECT_EQ(pm.report()[0].nodes_after, 3);
  EXPECT_EQ(pm.report()[1].nodes_before, 3);
  EXPECT_EQ(pm.report()[1].nodes_after, 3);
  EXPECT_GE(pm.total_seconds(), 0.0);
  EXPECT_EQ(out.size(), 3);
}

TEST(PassManager, ChargesIrPassCounter) {
  PassManager pm;
  pm.add("a", [](IrGraph g) { return g; });
  pm.add("b", [](IrGraph g) { return g; });
  CounterScope scope;
  pm.run(tiny_graph());
  EXPECT_EQ(scope.delta().ir_passes, 2u);
  EXPECT_EQ(scope.delta().plan_compiles, 0u);
}

TEST(PassManager, RerunClearsReport) {
  PassManager pm;
  pm.add("only", [](IrGraph g) { return g; });
  pm.run(tiny_graph());
  pm.run(tiny_graph());
  EXPECT_EQ(pm.report().size(), 1u);
}

TEST(PassManager, CompileModelReportsFullPipeline) {
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {8};
  cfg.num_classes = 3;
  Rng rng(5);
  Compiled c = compile_model(api::Gcn(cfg).build(rng), ours(),
                             /*training=*/true);
  ASSERT_EQ(c.stats.passes.size(), 5u);
  EXPECT_EQ(c.stats.passes[0].name, "reorg");
  EXPECT_EQ(c.stats.passes[1].name, "autodiff");
  EXPECT_EQ(c.stats.passes[2].name, "optimize");
  EXPECT_EQ(c.stats.passes[3].name, "recompute");
  EXPECT_EQ(c.stats.passes[4].name, "fusion");
  // The optimizer reports its per-rule hit counters through PassInfo.
  EXPECT_FALSE(c.stats.passes[2].rules.empty());
  // Autodiff appends the backward graph: node count must grow.
  EXPECT_GT(c.stats.passes[1].nodes_after, c.stats.passes[1].nodes_before);
  EXPECT_GE(c.stats.pass_seconds, 0.0);
  // No dims supplied -> no plan baked.
  EXPECT_EQ(c.plan, nullptr);
  EXPECT_EQ(c.stats.plan_seconds, 0.0);
}

TEST(PassManager, CompileModelInferenceBaselineSkipsTrainingPasses) {
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {8};
  cfg.num_classes = 3;
  Rng rng(5);
  Compiled c = compile_model(api::Gcn(cfg).build(rng), naive(),
                             /*training=*/false);
  EXPECT_TRUE(c.stats.passes.empty());  // naive inference: no passes at all
}

TEST(PassManager, CompileModelWithGraphBakesPlan) {
  Rng grng(1);
  Graph g = gen::k_in_regular(32, 4, grng);
  GcnConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden = {8};
  cfg.num_classes = 3;
  Rng rng(5);
  CounterScope scope;
  Compiled c = compile_model(api::Gcn(cfg).build(rng), ours(),
                             /*training=*/true, g);
  ASSERT_NE(c.plan, nullptr);
  EXPECT_EQ(scope.delta().plan_compiles, 1u);
  EXPECT_EQ(c.plan->size(), c.ir.size());
  EXPECT_EQ(c.plan->num_vertices(), 32);
  EXPECT_GE(c.stats.plan_seconds, 0.0);
  EXPECT_GT(c.plan->estimated_peak_bytes(), 0u);
}

}  // namespace
}  // namespace triad
