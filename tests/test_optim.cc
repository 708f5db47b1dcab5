// Tests for the optimizers and their integration with the Trainer.
#include <gtest/gtest.h>

#include <cmath>

#include "api/models.h"
#include "baselines/strategy.h"
#include "graph/datasets.h"
#include "models/models.h"
#include "models/optim.h"
#include "models/trainer.h"
#include "support/rng.h"

namespace triad {
namespace {

TEST(Optim, SgdPlainStep) {
  std::vector<Tensor> params;
  params.push_back(Tensor::full(2, 2, 1.f));
  Tensor grad = Tensor::full(2, 2, 0.5f);
  std::vector<const Tensor*> grads = {&grad};
  Sgd opt(0.1f);
  opt.attach(params);
  opt.step(params, grads);
  EXPECT_FLOAT_EQ(params[0].at(0, 0), 1.f - 0.1f * 0.5f);
}

TEST(Optim, SgdMomentumAccumulates) {
  std::vector<Tensor> params;
  params.push_back(Tensor::full(1, 1, 0.f));
  Tensor grad = Tensor::full(1, 1, 1.f);
  std::vector<const Tensor*> grads = {&grad};
  Sgd opt(1.f, /*momentum=*/0.9f);
  opt.attach(params);
  opt.step(params, grads);  // v=1, p=-1
  EXPECT_FLOAT_EQ(params[0].at(0, 0), -1.f);
  opt.step(params, grads);  // v=1.9, p=-2.9
  EXPECT_FLOAT_EQ(params[0].at(0, 0), -2.9f);
}

TEST(Optim, SgdWeightDecayShrinks) {
  std::vector<Tensor> params;
  params.push_back(Tensor::full(1, 1, 10.f));
  Tensor grad = Tensor::zeros(1, 1);
  std::vector<const Tensor*> grads = {&grad};
  Sgd opt(0.1f, 0.f, /*weight_decay=*/0.5f);
  opt.attach(params);
  opt.step(params, grads);
  EXPECT_FLOAT_EQ(params[0].at(0, 0), 10.f - 0.1f * 0.5f * 10.f);
}

TEST(Optim, AdamFirstStepIsLrSized) {
  // With bias correction, |Δp| of the first step equals lr (for any grad).
  std::vector<Tensor> params;
  params.push_back(Tensor::full(1, 1, 0.f));
  Tensor grad = Tensor::full(1, 1, 123.f);
  std::vector<const Tensor*> grads = {&grad};
  Adam opt(0.01f);
  opt.attach(params);
  opt.step(params, grads);
  EXPECT_NEAR(params[0].at(0, 0), -0.01f, 1e-5f);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  // minimize (p - 3)^2 -> p should approach 3.
  std::vector<Tensor> params;
  params.push_back(Tensor::full(1, 1, 0.f));
  Adam opt(0.1f);
  opt.attach(params);
  for (int i = 0; i < 300; ++i) {
    Tensor grad(1, 1);
    grad.at(0, 0) = 2.f * (params[0].at(0, 0) - 3.f);
    std::vector<const Tensor*> grads = {&grad};
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0].at(0, 0), 3.f, 0.05f);
}

TEST(Optim, AdamRequiresAttach) {
  std::vector<Tensor> params;
  params.push_back(Tensor::full(1, 1, 0.f));
  Tensor grad = Tensor::full(1, 1, 1.f);
  std::vector<const Tensor*> grads = {&grad};
  Adam opt(0.1f);
  EXPECT_THROW(opt.step(params, grads), Error);
}

TEST(Optim, TrainerWithAdamLearnsFaster) {
  Rng rng(1);
  Dataset data = make_dataset("cora", rng, 0.05, 0.02);
  auto final_loss = [&](std::unique_ptr<Optimizer> opt, float lr) {
    Rng mrng(77);
    GcnConfig cfg;
    cfg.in_dim = data.features.cols();
    cfg.hidden = {16};
    cfg.num_classes = data.num_classes;
    Compiled c = compile_model(api::Gcn(cfg).build(mrng), ours(), true);
    MemoryPool pool;
    Trainer t(std::move(c), data.graph,
              data.features.clone(MemTag::kInput, &pool), Tensor{}, &pool);
    if (opt != nullptr) t.set_optimizer(std::move(opt));
    float loss = 0.f;
    for (int i = 0; i < 25; ++i) loss = t.train_step(data.labels, lr).loss;
    return loss;
  };
  const float sgd_loss = final_loss(nullptr, 0.02f);
  const float adam_loss = final_loss(std::make_unique<Adam>(0.02f), 0.f);
  EXPECT_LT(adam_loss, sgd_loss + 0.1f);  // Adam at least comparable
  EXPECT_TRUE(std::isfinite(adam_loss));
}

TEST(Optim, MismatchedGradCountThrows) {
  std::vector<Tensor> params;
  params.push_back(Tensor::full(1, 1, 0.f));
  std::vector<const Tensor*> grads;  // empty
  Sgd opt(0.1f);
  opt.attach(params);
  EXPECT_THROW(opt.step(params, grads), Error);
}

}  // namespace
}  // namespace triad
