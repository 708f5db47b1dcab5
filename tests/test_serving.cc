// Serving-runtime tests: collation edge cases, the bit-identity guarantee of
// batched execution, de-collation ordering under out-of-order worker
// completion, sharded serving, request validation, the per-model worker
// quota, and the queue/histogram support pieces.
//
// The load-bearing property is the same one the sharded runtime pins down:
// batching is a pure throughput/latency policy. A block-diagonal batch gives
// every vertex exactly the incident edges — in exactly the order — it has in
// its standalone graph, so batched outputs must equal sequential per-request
// outputs to the last float bit, for every batch size and strategy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "api/models.h"
#include "baselines/plan_cache.h"
#include "baselines/strategy.h"
#include "graph/generators.h"
#include "graph/knn.h"
#include "models/models.h"
#include "serve/collate.h"
#include "serve/host.h"
#include "support/histogram.h"
#include "support/queue.h"
#include "support/rng.h"

namespace triad {
namespace {

using serve::CollatedBatch;
using serve::InferenceRequest;
using serve::RequestRange;
using serve::ServingHost;

constexpr std::int64_t kInDim = 6;
constexpr std::int64_t kClasses = 4;

ModelGraph serving_gcn() {
  GcnConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = {8};
  cfg.num_classes = kClasses;
  Rng rng(1234);  // fixed: every invocation yields bit-identical weights
  return api::Gcn(cfg).build(rng);
}

ModelGraph serving_gat() {
  GatConfig cfg;
  cfg.in_dim = kInDim;
  cfg.hidden = 4;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.num_classes = kClasses;
  Rng rng(1234);
  return api::Gat(cfg).build(rng);
}

/// A small request over a k-NN "point cloud" graph; the seed varies the
/// structure and features while keeping the (|V|, |E|) shape fixed.
InferenceRequest make_request(std::int64_t points, unsigned seed) {
  Rng rng(seed);
  const Tensor cloud = synthetic_point_cloud(points, 3, seed % 4, rng);
  InferenceRequest req;
  req.graph = std::make_shared<const Graph>(points, knn_edges(cloud, 3));
  req.features = Tensor(points, kInDim, MemTag::kInput);
  for (std::int64_t i = 0; i < req.features.numel(); ++i) {
    req.features.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return req;
}

/// Sequential reference: compiles `model` for this request's own shape and
/// runs it alone.
Tensor run_standalone(ModelGraph model, const Strategy& s,
                      const InferenceRequest& req) {
  Compiled c = compile_model(std::move(model), s, /*training=*/false,
                             *req.graph);
  PlanRunner runner(*req.graph, c.plan);
  runner.bind(c.features, req.features);
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    runner.bind(c.params[i], c.init[i]);
  }
  runner.run();
  return runner.take_result(c.output);
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise";
}

// --- collation edge cases ---------------------------------------------------

TEST(Collate, EmptyBatch) {
  const CollatedBatch batch = serve::collate(std::vector<InferenceRequest>{});
  EXPECT_EQ(batch.graph, nullptr);
  EXPECT_EQ(batch.size(), 0);
  EXPECT_EQ(batch.num_vertices(), 0);
  EXPECT_EQ(batch.num_edges(), 0);
  EXPECT_FALSE(batch.features.defined());
  EXPECT_FALSE(batch.pseudo.defined());
}

TEST(Collate, SingleVertexGraph) {
  // Three one-vertex, zero-edge requests: the degenerate shape a serving
  // path must not trip over.
  std::vector<InferenceRequest> reqs;
  for (unsigned i = 0; i < 3; ++i) {
    InferenceRequest req;
    req.graph = std::make_shared<const Graph>(1, std::vector<Edge>{});
    req.features = Tensor::full(1, kInDim, static_cast<float>(i + 1));
    reqs.push_back(std::move(req));
  }
  const CollatedBatch batch = serve::collate(reqs);
  ASSERT_EQ(batch.size(), 3);
  EXPECT_EQ(batch.num_vertices(), 3);
  EXPECT_EQ(batch.num_edges(), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batch.ranges[i].v_lo, i);
    EXPECT_EQ(batch.ranges[i].v_hi, i + 1);
    EXPECT_EQ(batch.ranges[i].num_edges(), 0);
    EXPECT_FLOAT_EQ(batch.features.at(i, 0), static_cast<float>(i + 1));
  }

  // And the batch executes: a Sum gather over an isolated vertex is a zero
  // row, not an error.
  Compiled c = compile_model(serving_gcn(), ours(), false, *batch.graph);
  PlanRunner runner(*batch.graph, c.plan);
  runner.bind(c.features, batch.features);
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    runner.bind(c.params[i], c.init[i]);
  }
  runner.run();
  EXPECT_EQ(runner.result(c.output).rows(), 3);
}

TEST(Collate, BlockDiagonalStructure) {
  InferenceRequest a;
  a.graph = std::make_shared<const Graph>(
      3, std::vector<Edge>{{0, 1}, {2, 1}, {1, 2}});
  a.features = Tensor::full(3, 2, 1.f);
  InferenceRequest b;
  b.graph = std::make_shared<const Graph>(2, std::vector<Edge>{{1, 0}});
  b.features = Tensor::full(2, 2, 2.f);

  const CollatedBatch batch = serve::collate(std::vector<const InferenceRequest*>{&a, &b});
  ASSERT_EQ(batch.size(), 2);
  EXPECT_EQ(batch.num_vertices(), 5);
  EXPECT_EQ(batch.num_edges(), 4);
  const RequestRange& rb = batch.ranges[1];
  EXPECT_EQ(rb.v_lo, 3);
  EXPECT_EQ(rb.v_hi, 5);
  EXPECT_EQ(rb.e_lo, 3);
  EXPECT_EQ(rb.e_hi, 4);
  // Request b's edge 1->0 lands offset to 4->3, with its edge id shifted by
  // a's edge count.
  EXPECT_EQ(batch.graph->edge_src()[3], 4);
  EXPECT_EQ(batch.graph->edge_dst()[3], 3);
  // No cross-request edges: every in-edge of a's vertices comes from a.
  for (std::int64_t v = 0; v < 3; ++v) {
    for (std::int64_t e = batch.graph->in_ptr()[v];
         e < batch.graph->in_ptr()[v + 1]; ++e) {
      EXPECT_LT(batch.graph->in_src()[e], 3);
    }
  }
  EXPECT_FLOAT_EQ(batch.features.at(2, 0), 1.f);
  EXPECT_FLOAT_EQ(batch.features.at(3, 0), 2.f);
}

TEST(Collate, RejectsMismatchedFeatureWidths) {
  InferenceRequest a = make_request(8, 1);
  InferenceRequest b = make_request(8, 2);
  b.features = Tensor::full(8, kInDim + 1, 0.f);
  EXPECT_THROW(serve::collate(std::vector<const InferenceRequest*>{&a, &b}), Error);
}

TEST(Collate, DecollateRecoversRows) {
  Tensor batch_rows(6, 3, MemTag::kActivations);
  for (std::int64_t i = 0; i < batch_rows.numel(); ++i) {
    batch_rows.data()[i] = static_cast<float>(i);
  }
  const Tensor mid = serve::decollate(batch_rows, {2, 5, 0, 0});
  ASSERT_EQ(mid.rows(), 3);
  EXPECT_FLOAT_EQ(mid.at(0, 0), batch_rows.at(2, 0));
  EXPECT_FLOAT_EQ(mid.at(2, 2), batch_rows.at(4, 2));
}

// --- the bit-identity guarantee ---------------------------------------------

class BatchedBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BatchedBitIdentity, MatchesSequentialExecution) {
  const int batch_size = GetParam();
  std::vector<InferenceRequest> reqs;
  for (int i = 0; i < batch_size; ++i) {
    reqs.push_back(make_request(12, 100 + static_cast<unsigned>(i)));
  }
  struct Case {
    const char* name;
    ModelGraph (*build)();
    Strategy strategy;
  };
  for (const Case& c : {Case{"gcn/ours", serving_gcn, ours()},
                        Case{"gcn/naive", serving_gcn, naive()},
                        Case{"gat/ours", serving_gat, ours()}}) {
    const CollatedBatch batch = serve::collate(reqs);
    Compiled compiled =
        compile_model(c.build(), c.strategy, false, *batch.graph);
    PlanRunner runner(*batch.graph, compiled.plan);
    runner.bind(compiled.features, batch.features);
    for (std::size_t i = 0; i < compiled.params.size(); ++i) {
      runner.bind(compiled.params[i], compiled.init[i]);
    }
    runner.run();
    const Tensor out = runner.take_result(compiled.output);
    for (int i = 0; i < batch_size; ++i) {
      const Tensor expected =
          run_standalone(c.build(), c.strategy, reqs[static_cast<std::size_t>(i)]);
      const Tensor got = serve::decollate(out, batch.ranges[static_cast<std::size_t>(i)]);
      expect_bit_identical(got, expected, c.name);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchedBitIdentity,
                         ::testing::Values(1, 2, 8));

TEST(BatchedBitIdentity, IdenticalRequestsYieldIdenticalSlices) {
  const InferenceRequest req = make_request(10, 7);
  std::vector<const InferenceRequest*> reqs(4, &req);
  const CollatedBatch batch = serve::collate(reqs);
  Compiled compiled = compile_model(serving_gcn(), ours(), false, *batch.graph);
  PlanRunner runner(*batch.graph, compiled.plan);
  runner.bind(compiled.features, batch.features);
  for (std::size_t i = 0; i < compiled.params.size(); ++i) {
    runner.bind(compiled.params[i], compiled.init[i]);
  }
  runner.run();
  const Tensor out = runner.take_result(compiled.output);
  const Tensor first = serve::decollate(out, batch.ranges[0]);
  const Tensor expected = run_standalone(serving_gcn(), ours(), req);
  expect_bit_identical(first, expected, "slice 0 vs standalone");
  for (int i = 1; i < 4; ++i) {
    const Tensor slice =
        serve::decollate(out, batch.ranges[static_cast<std::size_t>(i)]);
    expect_bit_identical(slice, first, "replicated slice");
  }
}

// --- queue / histogram -------------------------------------------------------

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(LatencyHistogram, NearestRankPercentiles) {
  LatencyHistogram h;
  for (int i = 100; i >= 1; --i) h.record(static_cast<double>(i));
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

// --- the host -----------------------------------------------------------------

InferenceRequest copy_of(const InferenceRequest& req) {
  InferenceRequest copy;
  copy.graph = req.graph;
  copy.features = req.features;  // shallow handle; payload shared
  return copy;
}

TEST(ServingHost, DecollationOrderingUnderOutOfOrderCompletion) {
  // Four workers complete batches in whatever order the scheduler likes; the
  // per-request futures must still receive *their own* rows. Each request's
  // expected output is computed standalone first.
  constexpr int kRequests = 24;
  std::vector<InferenceRequest> reqs;
  std::vector<Tensor> expected;
  for (int i = 0; i < kRequests; ++i) {
    reqs.push_back(make_request(12, 500 + static_cast<unsigned>(i)));
    expected.push_back(
        run_standalone(serving_gcn(), ours(), reqs[static_cast<std::size_t>(i)]));
  }

  ServingHost host({.workers = 4});
  serve::ModelOptions mo;
  mo.batch.max_batch = 3;
  mo.batch.max_wait_us = 500;
  host.register_model("test/gcn-ordering", serving_gcn, mo);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (InferenceRequest& r : reqs) {
    futures.push_back(host.submit("test/gcn-ordering", std::move(r)));
  }
  for (int i = 0; i < kRequests; ++i) {
    serve::InferenceResult res = futures[static_cast<std::size_t>(i)].get();
    ASSERT_GE(res.batch_size, 1);
    ASSERT_LE(res.batch_size, 3);
    EXPECT_GT(res.latency_seconds, 0.0);
    expect_bit_identical(res.output, expected[static_cast<std::size_t>(i)],
                         "request routed to the wrong rows");
  }
  host.shutdown();

  const serve::ServerStats stats = host.stats("test/gcn-ordering");
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, static_cast<std::uint64_t>(kRequests) / 3);
  EXPECT_EQ(stats.latency.count, static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(stats.latency.p50, stats.latency.p95);
  EXPECT_LE(stats.latency.p95, stats.latency.p99);
  EXPECT_GT(stats.throughput_rps(), 0.0);
  EXPECT_GT(stats.counters.kernel_launches, 0u);
  // Compile work is bounded by batch shapes × workers, not by the request
  // count: at most max_batch distinct shapes exist, and same-key PlanCache
  // racers may each compile once before the first insert wins.
  EXPECT_LE(stats.counters.plan_compiles, 12u);
}

TEST(ServingHost, ShardedServingBitIdentical) {
  const InferenceRequest req = make_request(32, 9);
  const Tensor expected = run_standalone(serving_gcn(), ours(), req);

  ServingHost host({.workers = 2});
  serve::ModelOptions mo;
  mo.shards = 4;
  mo.batch.max_batch = 2;
  host.register_model("test/gcn-sharded", serving_gcn, mo);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(host.submit("test/gcn-sharded", copy_of(req)));
  }
  for (auto& f : futures) {
    expect_bit_identical(f.get().output, expected, "sharded serving");
  }
}

TEST(ServingHost, FailuresPropagateToFutures) {
  // Feature width 3 never matches the model's in_dim: the request fails,
  // and its future carries the error instead of hanging.
  ServingHost host;
  serve::ModelOptions mo;
  mo.batch.max_batch = 2;
  host.register_model("test/gcn-badwidth", serving_gcn, mo);
  InferenceRequest bad = make_request(8, 11);
  bad.features = Tensor::full(8, 3, 1.f);
  std::future<serve::InferenceResult> fut =
      host.submit("test/gcn-badwidth", std::move(bad));
  EXPECT_THROW(fut.get(), Error);
  host.shutdown();
  EXPECT_EQ(host.stats("test/gcn-badwidth").failed, 1u);
  EXPECT_THROW(host.submit("test/gcn-badwidth", make_request(8, 12)), Error);
}

TEST(ServingHost, BatchFaultFailsEveryRider) {
  // A fault inside the batch run itself (here the plan compile's builder
  // call throws) fails every request that rode in the batch — no future
  // hangs — and the host keeps its books.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ServingHost host({.workers = 0});
  host.register_model("test/gcn-faulty-compile", [calls] {
    if (calls->fetch_add(1) > 0) throw Error("weights store unavailable");
    return serving_gcn();  // the registration-time build succeeds
  });
  std::vector<std::future<serve::InferenceResult>> futures;
  for (unsigned i = 0; i < 2; ++i) {
    futures.push_back(
        host.submit("test/gcn-faulty-compile", make_request(8, 800 + i)));
  }
  ASSERT_TRUE(host.pump());
  for (auto& f : futures) EXPECT_THROW(f.get(), Error);
  const serve::ServerStats stats = host.stats("test/gcn-faulty-compile");
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServingHost, MalformedRequestFailsAloneInItsBatch) {
  // Three good requests and one of the wrong feature width share one batch
  // (workers = 0, a single pump): only the bad future throws, and the good
  // outputs still equal their solo runs bit for bit.
  ServingHost host({.workers = 0});
  host.register_model("test/gcn-mixed", serving_gcn);
  std::vector<InferenceRequest> reqs;
  for (unsigned i = 0; i < 4; ++i) reqs.push_back(make_request(10, 700 + i));
  reqs[2].features = Tensor::full(10, kInDim + 1, 1.f);

  std::vector<std::future<serve::InferenceResult>> futures(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(host.try_submit("test/gcn-mixed", copy_of(reqs[i]),
                              serve::Priority::Normal, &futures[i]),
              serve::Admission::Accepted);
  }
  ASSERT_TRUE(host.pump());
  EXPECT_FALSE(host.pump());  // all four rode the one batch

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i == 2) {
      EXPECT_THROW(futures[i].get(), Error);
      continue;
    }
    const serve::InferenceResult res = futures[i].get();
    EXPECT_EQ(res.batch_size, 3);
    expect_bit_identical(res.output,
                         run_standalone(serving_gcn(), ours(), reqs[i]),
                         "co-batched good request");
  }
  const serve::ServerStats stats = host.stats("test/gcn-mixed");
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.batches, 1u);
}

// --- fairness: max_workers_per_model ----------------------------------------

TEST(ServingHost, WorkerQuotaBoundsPeakWorkers) {
  // Three shared workers, but the one hot model may hold at most one of
  // them: peak_workers is the observed fairness bound and must never exceed
  // the quota, however many requests pile up.
  serve::HostConfig cfg;
  cfg.workers = 3;
  cfg.max_workers_per_model = 1;
  ServingHost host(cfg);
  serve::ModelOptions mo;
  mo.batch.max_batch = 2;  // small batches -> many collect() claims
  mo.batch.max_wait_us = 100;
  host.register_model("transport/quota", serving_gcn, mo);

  std::vector<std::future<serve::InferenceResult>> futures;
  for (unsigned i = 0; i < 12; ++i) {
    futures.push_back(host.submit("transport/quota", make_request(10, 50 + i)));
  }
  for (auto& f : futures) f.get();
  host.shutdown();

  const serve::ServerStats st = host.stats("transport/quota");
  EXPECT_EQ(st.completed, 12u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.peak_workers, 0);
  EXPECT_LE(st.peak_workers, 1);  // the quota held
  // The aggregate reports the max across models (one model here).
  EXPECT_EQ(host.stats().total.peak_workers, st.peak_workers);
}

TEST(ServingHost, UnlimitedQuotaByDefault) {
  // quota = 0 keeps today's behavior: any worker may pick up the model, and
  // the peak merely observes whatever concurrency actually happened.
  serve::HostConfig cfg;
  cfg.workers = 2;
  ServingHost host(cfg);
  serve::ModelOptions mo;
  mo.batch.max_batch = 2;
  mo.batch.max_wait_us = 100;
  host.register_model("transport/unbounded", serving_gcn, mo);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (unsigned i = 0; i < 8; ++i) {
    futures.push_back(
        host.submit("transport/unbounded", make_request(10, 90 + i)));
  }
  for (auto& f : futures) f.get();
  host.shutdown();
  const serve::ServerStats st = host.stats("transport/unbounded");
  EXPECT_EQ(st.completed, 8u);
  EXPECT_GT(st.peak_workers, 0);
  EXPECT_LE(st.peak_workers, 2);  // can't exceed the pool itself
}

}  // namespace
}  // namespace triad
