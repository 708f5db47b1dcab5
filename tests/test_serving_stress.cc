// Serving stress tests: hammer the ServingHost's full public surface from
// many threads at once. These exist for the sanitizer jobs — TSan runs this
// binary in CI — and for flakiness: the batcher feedback path repeats N times
// so a rare interleaving bug shows up as a failing iteration, not a shrug.
//
// The invariants under fire:
//  * every future obtained from submit()/try_submit() resolves (value or
//    exception) once shutdown() drains — no hangs, no broken promises;
//  * the books balance: per model, completed + failed == accepted-by-client,
//    and shed/rejected never leak into either;
//  * reload() concurrent with serving never tears a batch (each output is
//    entirely old- or entirely new-weights — cheaply asserted here via
//    reload-to-identical-weights, exhaustively in test_serving_slo.cc);
//  * shutdown() racing submitters is clean: each submission either lands
//    (future resolves) or throws/returns Closed, and the host stays joinable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/models.h"
#include "graph/knn.h"
#include "models/models.h"
#include "serve/host.h"
#include "support/rng.h"

namespace triad {
namespace {

using serve::Admission;
using serve::InferenceRequest;
using serve::ModelOptions;
using serve::Priority;
using serve::ServingHost;

constexpr std::int64_t kInDim = 6;

ModelGraph stress_gcn() {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {8};
  cfg.num_classes = 4;
  Rng rng(1234);
  return api::Gcn(cfg).build(rng);
}

ModelGraph stress_gat() {
  GatConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = 4;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.num_classes = 4;
  Rng rng(1234);
  return api::Gat(cfg).build(rng);
}

InferenceRequest tiny_request(unsigned seed) {
  Rng rng(seed);
  const Tensor cloud = synthetic_point_cloud(8, 3, seed % 4, rng);
  InferenceRequest req;
  req.graph = std::make_shared<const Graph>(8, knn_edges(cloud, 3));
  req.features = Tensor(8, kInDim, MemTag::kInput);
  for (std::int64_t i = 0; i < req.features.numel(); ++i) {
    req.features.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return req;
}

InferenceRequest copy_of(const InferenceRequest& req) {
  InferenceRequest copy;
  copy.graph = req.graph;
  copy.features = req.features;
  return copy;
}

TEST(ServingStress, ConcurrentSubmitStatsReloadShutdown) {
  serve::HostConfig cfg;
  cfg.workers = 4;
  ServingHost host(cfg);
  ModelOptions mo;
  mo.batch.max_batch = 4;
  mo.batch.max_wait_us = 50;
  mo.batch.queue_capacity = 64;
  mo.shed_fraction = 0.9;
  host.register_model("stress/gcn", stress_gcn, mo);
  host.register_model("stress/gat", stress_gat, mo);
  const std::string names[2] = {"stress/gcn", "stress/gat"};

  constexpr int kSubmitters = 8;
  constexpr int kPerThread = 24;
  const InferenceRequest proto_gcn = tiny_request(1);
  const InferenceRequest proto_gat = tiny_request(2);

  std::atomic<std::uint64_t> accepted{0}, refused{0}, resolved{0}, errors{0};
  std::atomic<bool> stop_aux{false};
  std::atomic<int> reload_rounds{0};

  // Submitters: blocking and non-blocking paths, all three priorities, both
  // models, from eight threads at once.
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<serve::InferenceResult>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        const int pick = (t + i) % 3;
        const Priority pri = static_cast<Priority>(pick);
        const std::string& model = names[(t + i) % 2];
        const InferenceRequest& proto = (t + i) % 2 ? proto_gat : proto_gcn;
        if (i % 2 == 0) {
          std::future<serve::InferenceResult> fut;
          if (host.try_submit(model, copy_of(proto), pri, &fut) ==
              Admission::Accepted) {
            ++accepted;
            futures.push_back(std::move(fut));
          } else {
            ++refused;
          }
        } else {
          try {
            futures.push_back(host.submit(model, copy_of(proto), pri));
            ++accepted;
          } catch (const Error&) {
            ++refused;  // shed (Low under depth) — a legal outcome
          }
        }
      }
      for (auto& f : futures) {
        try {
          f.get();
          ++resolved;
        } catch (...) {
          ++errors;
        }
      }
    });
  }

  // Stats readers: hammer both snapshot paths while serving runs.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop_aux.load()) {
        const serve::HostStats hs = host.stats();
        EXPECT_LE(hs.total.completed + hs.total.failed, hs.total.submitted);
        (void)host.stats("stress/gcn");
        (void)host.models();
        std::this_thread::yield();
      }
    });
  }

  // Reloader: swap weights (to bit-identical ones — same seed) while batches
  // are in flight. TSan watches the snapshot handoff.
  std::thread reloader([&] {
    while (!stop_aux.load()) {
      host.reload("stress/gcn");
      host.reload("stress/gat");
      ++reload_rounds;
      std::this_thread::yield();
    }
  });

  for (auto& t : submitters) t.join();
  // On a loaded machine the submitters can finish before the reloader is
  // first scheduled; let it complete one round so the reload count below
  // does not depend on thread start-up order.
  while (reload_rounds.load() == 0) std::this_thread::yield();
  stop_aux.store(true);
  readers[0].join();
  readers[1].join();
  reloader.join();
  host.shutdown();
  host.shutdown();  // idempotent

  EXPECT_EQ(accepted.load(), resolved.load() + errors.load());
  EXPECT_EQ(errors.load(), 0u) << "valid requests must not fail";
  EXPECT_EQ(accepted.load() + refused.load(),
            static_cast<std::uint64_t>(kSubmitters * kPerThread));

  const serve::HostStats hs = host.stats();
  EXPECT_EQ(hs.total.submitted, accepted.load());
  EXPECT_EQ(hs.total.completed, resolved.load());
  EXPECT_EQ(hs.total.failed, 0u);
  EXPECT_EQ(hs.total.shed + hs.total.rejected, refused.load());
  EXPECT_GE(hs.total.reloads, 2u);
}

TEST(ServingStress, BatcherFeedbackRepeatN) {
  // The SLO feedback path (serve_batch -> histogram -> controller -> knobs
  // read back by collect) crosses three locks; repeat it enough times that a
  // racy interleaving would actually fire under TSan.
  constexpr int kRepeats = 25;
  const InferenceRequest proto = tiny_request(3);
  for (int r = 0; r < kRepeats; ++r) {
    serve::HostConfig cfg;
    cfg.workers = 2;
    ServingHost host(cfg);
    ModelOptions mo;
    mo.batch.max_batch = 4;
    mo.batch.max_wait_us = 200;
    mo.slo.enabled = true;
    mo.slo.target_p99_us = (r % 2 == 0) ? 1 : 1000000;  // shrink- and
    mo.slo.min_samples = 1;                             // grow-biased runs
    mo.slo.window = 8;
    host.register_model("stress/feedback", stress_gcn, mo);

    std::vector<std::future<serve::InferenceResult>> futures;
    for (int i = 0; i < 12; ++i) {
      futures.push_back(host.submit("stress/feedback", copy_of(proto)));
    }
    for (auto& f : futures) f.get();
    host.shutdown();

    const serve::ServerStats s = host.stats("stress/feedback");
    ASSERT_EQ(s.completed, 12u) << "iteration " << r;
    ASSERT_EQ(s.failed, 0u) << "iteration " << r;
    // Knobs always within the configured envelope, whatever the controller
    // did this iteration.
    ASSERT_GE(s.eff_max_wait_us, 0) << "iteration " << r;
    ASSERT_LE(s.eff_max_wait_us, 200) << "iteration " << r;
    ASSERT_GE(s.eff_max_batch, 1) << "iteration " << r;
    ASSERT_LE(s.eff_max_batch, 4) << "iteration " << r;
    if (r % 2 == 0) {
      ASSERT_GE(s.slo_shrinks, 1u) << "iteration " << r;
    }
  }
}

TEST(ServingStress, ShutdownRacingSubmitters) {
  const InferenceRequest proto = tiny_request(4);
  for (int r = 0; r < 5; ++r) {
    serve::HostConfig cfg;
    cfg.workers = 2;
    ServingHost host(cfg);
    ModelOptions mo;
    mo.batch.queue_capacity = 32;
    host.register_model("stress/race", stress_gcn, mo);

    std::atomic<std::uint64_t> landed{0}, refused{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          try {
            auto fut = host.submit("stress/race", copy_of(proto));
            fut.get();  // accepted before close must be served, not dropped
            ++landed;
          } catch (const Error&) {
            ++refused;  // closed mid-stream — the legal refusal
          }
        }
      });
    }
    host.shutdown();  // races the submitters by design
    for (auto& t : submitters) t.join();

    EXPECT_EQ(landed.load() + refused.load(), 80u);
    const serve::ServerStats s = host.stats("stress/race");
    EXPECT_EQ(s.submitted, landed.load());
    EXPECT_EQ(s.completed, landed.load());
    EXPECT_EQ(s.failed, 0u);
  }
}

}  // namespace
}  // namespace triad
