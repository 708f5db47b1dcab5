// train-skew and train-dense: full-batch GAT training (2 layers, 128 hidden,
// 1 head).
//
//   train-skew   reddit-like power-law graph at scale 0.002 (|V|=466,
//                |E|~229k), K=4 shards with the default pipeline and
//                transport: the edge programs and the sharded walk, combine
//                and exchange do almost all the work.
//   train-dense  pubmed-like near-regular graph at scale 0.5 (|V|=9859,
//                f_in=125), unsharded: the dense Linear / weight-gradient
//                kernels dominate and sharding is bypassed.
//
// Untraced runs time Trainer::train_step and Trainer::forward. Traced runs
// replay train_step through the public calls it is made of (run_forward,
// loss, bind, run_backward, ParamServer push/pull) with a span around each,
// alternating blocks of replayed and plain steps so the tracing overhead is
// measured in the same run.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/triad.h"
#include "common.h"
#include "support/parallel.h"
#include "tensor/ops.h"
#include "transport/param_server.h"

namespace perfbench {

using namespace triad;

namespace {

constexpr double kFeatScale = 0.25;
constexpr float kLr = 1e-2f;
/// Steps whose losses and final logits are compared bit for bit against the
/// specialize=false, shards=0 reference.
constexpr int kCheckSteps = 3;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Enough steps that the p90 has ten samples beyond it.
constexpr long kMinSteps = 100;
/// One Trainer::forward is timed after every this many steps.
constexpr long kStepsPerForward = 2;
/// Replayed and plain steps alternate in blocks of this many.
constexpr int kBlock = 4;
constexpr long kMinTracedSteps = 24;
constexpr double kMiB = 1024.0 * 1024.0;

struct Workload {
  const char* dataset;
  double scale;
  int shards;
};

Workload workload_of(const std::string& name) {
  if (name == "train-skew") return {"reddit", 0.002, 4};
  return {"pubmed", 0.5, 0};
}

GatConfig gat_config(const Dataset& d) {
  GatConfig cfg;
  cfg.in_dim = d.features.cols();
  cfg.hidden = 128;
  cfg.heads = 1;
  cfg.layers = 2;
  cfg.num_classes = d.num_classes;
  return cfg;
}

/// A fresh Model per call: Model memoizes its compiles, and every set-up
/// must pay its own.
api::Model gat_model(const Dataset& d, unsigned seed, int shards,
                     bool specialize) {
  api::CompileOptions co;
  co.shards = shards;
  co.init_seed = seed;
  if (!specialize) {
    co.strategy.specialize = false;
    co.strategy.name += "(-specialize)";
  }
  return api::Engine(co).compile(std::make_shared<api::Gat>(gat_config(d)));
}

/// A trainer plus what it borrows. Members are destroyed trainer first.
struct Instance {
  MemoryPool pool;
  std::unique_ptr<Graph> graph;
  std::shared_ptr<const Compiled> compiled;
  std::unique_ptr<Trainer> trainer;
};

/// The measured set-up: Graph from the edge list, compile (passes, plan,
/// partitioning), Trainer construction. The caller adds the warm-up step.
std::unique_ptr<Instance> set_up(const Dataset& data,
                                 const std::vector<Edge>& edges,
                                 const api::Model& model, Tracer& tr) {
  auto in = std::make_unique<Instance>();
  {
    Scope s(tr, "graph.Graph", -1);
    in->graph = std::make_unique<Graph>(data.graph.num_vertices(), edges);
  }
  {
    Scope s(tr, "api.Model::compiled", -1);
    in->compiled = model.compiled(*in->graph, /*training=*/true);
  }
  {
    Scope s(tr, "models.Trainer", -1);
    in->trainer = std::make_unique<Trainer>(
        in->compiled, *in->graph,
        data.features.clone(MemTag::kInput, &in->pool), Tensor{}, &in->pool);
  }
  return in;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0;
}

/// Trainer::train_step replayed through public calls, one span per call.
/// With `rep`, the step's per-layer samples are recorded.
float replay_step(Trainer& t, const IntTensor& labels, Tracer& tr, long run,
                  Report* rep) {
  PlanRunner& r = t.runner();
  const Compiled& m = t.model();
  Scope root(tr, "bench.train_step", run);
  r.pool().reset_peak();
  CounterScope counters;

  Scope fwd(tr, "engine.PlanRunner::run_forward", run);
  r.run_forward();
  const double fwd_s = fwd.close();

  const Tensor& out = r.result(m.output);
  Scope alloc(tr, "tensor.Tensor", run);
  Tensor seed(out.rows(), out.cols(), MemTag::kGradient, &r.pool());
  alloc.close();
  Scope loss_span(tr, "tensor.softmax_cross_entropy", run);
  const float loss = ops::softmax_cross_entropy(out, labels, &seed);
  const double loss_s = loss_span.close();
  Scope bind(tr, "engine.PlanRunner::bind", run);
  r.bind(m.seed, std::move(seed));
  bind.close();

  Scope bwd(tr, "engine.PlanRunner::run_backward", run);
  r.run_backward();
  const double bwd_s = bwd.close();

  std::vector<const Tensor*> grads;
  grads.reserve(m.param_grads.size());
  for (int g : m.param_grads) grads.push_back(&r.result(g));
  double push_s = 0, pull_s = 0;
  if (transport::ParamServer* ps = t.param_server()) {
    // Handles to the bound weight tensors: pull_params copies into their
    // storage, exactly where train_step's pull lands.
    std::vector<Tensor> weights;
    weights.reserve(m.params.size());
    for (int p : m.params) weights.push_back(r.result(p));
    Scope push(tr, "transport.ParamServer::push_grads", run);
    ps->push_grads(grads, kLr);
    push_s = push.close();
    Scope pull(tr, "transport.ParamServer::pull_params", run);
    ps->pull_params(weights);
    pull_s = pull.close();
  } else {
    Scope upd(tr, "tensor.axpy", run);
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      ops::axpy(r.result_mut(m.params[i]), *grads[i], -kLr);
    }
  }
  const double step_s = root.close();

  if (rep != nullptr) {
    const PerfCounters c = counters.delta();
    auto& s = rep->samples;
    s["trace.traced_ms"].push_back(step_s * 1e3);
    s["engine.fwd_ms"].push_back(fwd_s * 1e3);
    s["engine.bwd_ms"].push_back(bwd_s * 1e3);
    s["tensor.loss_ms"].push_back(loss_s * 1e3);
    s["transport.push_ms"].push_back(push_s * 1e3);
    s["transport.pull_ms"].push_back(pull_s * 1e3);
    s["engine.core_share_fwd"].push_back(share(
        c.specialized_fwd_edges,
        c.specialized_fwd_edges + c.interpreted_fwd_edges));
    s["engine.core_share_bwd"].push_back(share(
        c.specialized_bwd_edges,
        c.specialized_bwd_edges + c.interpreted_bwd_edges));
    s["engine.walk_ms"].push_back(static_cast<double>(c.walk_ns) * 1e-6);
    s["engine.combine_ms"].push_back(static_cast<double>(c.combine_ns) * 1e-6);
    s["engine.overlap_share"].push_back(share(c.combine_overlap_ns, c.combine_ns));
    s["engine.io_gbps"].push_back(static_cast<double>(c.io_bytes()) /
                                  (fwd_s + bwd_s) * 1e-9);
    s["engine.gflops"].push_back(static_cast<double>(c.flops) /
                                 (fwd_s + bwd_s) * 1e-9);
    s["transport.bytes_per_step"].push_back(static_cast<double>(c.transport_bytes));
    s["transport.msgs_per_step"].push_back(static_cast<double>(c.transport_msgs));
    const MemoryPool& pool = r.pool();
    s["tensor.peak_activations_mib"].push_back(
        static_cast<double>(pool.peak_breakdown(MemTag::kActivations)) / kMiB);
    s["tensor.peak_stash_mib"].push_back(
        static_cast<double>(pool.peak_breakdown(MemTag::kStash)) / kMiB);
    s["tensor.peak_gradient_mib"].push_back(
        static_cast<double>(pool.peak_breakdown(MemTag::kGradient)) / kMiB);
  }
  return loss;
}

/// Runs `steps` plain train_steps on a fresh Trainer and returns the losses;
/// `logits` receives the last step's forward output.
std::vector<float> plain_steps(Instance& in, const Dataset& data, int steps,
                               Tensor* logits) {
  std::vector<float> losses;
  for (int i = 0; i < steps; ++i) {
    losses.push_back(in.trainer->train_step(data.labels, kLr).loss);
  }
  *logits = in.trainer->logits().clone(MemTag::kWorkspace);
  return losses;
}

bool same_losses(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         same_bits(a.data(), 1, static_cast<std::int64_t>(a.size()), b.data(),
                   1, static_cast<std::int64_t>(b.size()));
}

std::string describe(const std::vector<float>& losses) {
  std::string s;
  for (float l : losses) s += (s.empty() ? "" : " ") + std::to_string(l);
  return s;
}

/// The output check: the first kCheckSteps losses and the logits after them
/// equal, bit for bit, a specialize=false, shards=0 run from the same seed;
/// the reference loss falls step over step and stays finite.
void check_outputs(const Options& opt, const Dataset& data,
                   const std::vector<Edge>& edges,
                   const std::vector<float>& losses, Tensor logits,
                   Report& rep) {
  Tracer off(false);
  auto ref = set_up(data, edges, gat_model(data, opt.seed, 0, false), off);
  Tensor ref_logits;
  const std::vector<float> ref_losses =
      plain_steps(*ref, data, kCheckSteps, &ref_logits);
  if (opt.perturb) flip_low_bit(logits.data());

  // Both callers measured more than kCheckSteps steps.
  const std::vector<float> head(losses.begin(), losses.begin() + kCheckSteps);
  rep.check("losses_match_reference", same_losses(head, ref_losses),
            "measured [" + describe(head) + "] reference [" +
                describe(ref_losses) + "]");
  rep.check("logits_match_reference",
            same_bits(logits.data(), logits.rows(), logits.cols(),
                      ref_logits.data(), ref_logits.rows(), ref_logits.cols()),
            "logits after step " + std::to_string(kCheckSteps) +
                " vs specialize=false, shards=0");
  bool falls = true;
  for (std::size_t i = 1; i < ref_losses.size(); ++i) {
    falls = falls && ref_losses[i] < ref_losses[i - 1];
  }
  const bool finite = std::all_of(losses.begin(), losses.end(),
                                  [](float l) { return std::isfinite(l); });
  rep.check("loss_finite_and_falling",
            finite && falls && losses.back() < losses.front(),
            "first " + std::to_string(losses.front()) + " last " +
                std::to_string(losses.back()));
}

void record_compile(const Instance& in, Report& rep) {
  const Compiled& c = *in.compiled;
  double partition_s = 0;
  for (const PassInfo& p : c.stats.passes) {
    if (p.name.rfind("partition", 0) == 0) partition_s += p.seconds;
  }
  auto& v = rep.values;
  v["graph.partition_ms"] = partition_s * 1e3;
  v["ir.compile_ms"] = (c.stats.pass_seconds - partition_s) * 1e3;
  v["ir.nodes_after"] = c.stats.passes.empty() ? c.ir.size()
                                               : c.stats.passes.back().nodes_after;
  v["ir.fused_programs"] = static_cast<double>(c.ir.programs.size());
  const ExecutionPlan& plan = *c.plan;
  double imbalance = 1.0;
  if (plan.num_shards() > 0) {
    std::int64_t most = 0, total = 0;
    for (int s = 0; s < plan.num_shards(); ++s) {
      most = std::max(most, plan.shard_schedule(s).local_edges);
      total += plan.shard_schedule(s).local_edges;
    }
    imbalance = total > 0 ? static_cast<double>(most) * plan.num_shards() /
                                static_cast<double>(total)
                          : 1.0;
  }
  v["graph.shard_edge_imbalance"] = imbalance;
}

/// Direct weight-gradient GEMM at layer 0's shapes: X^T (f_in x |V|) times
/// dY (|V| x hidden).
void gemm_probe(const Dataset& data, const Options& opt, Tracer& tr,
                Report& rep) {
  Rng rng(opt.seed ^ 0x5eedu);
  const Tensor dy = Tensor::randn(data.features.rows(), 128, rng);
  Tensor w_grad(data.features.cols(), 128);
  Timer budget;
  for (long i = 0; i < 10 || (i < 400 && budget.seconds() < 0.05 * opt.seconds);
       ++i) {
    Scope s(tr, "tensor.matmul", -2);
    ops::matmul(data.features, dy, w_grad, /*trans_a=*/true);
    rep.samples["tensor.gemm_wgrad_ms"].push_back(s.close() * 1e3);
  }
}

void run_untraced(const Options& opt, const Workload& w, const Dataset& data,
                  const std::vector<Edge>& edges, Report& rep, Tracer& tr) {
  std::unique_ptr<Instance> in;
  std::vector<float> losses;
  for (int i = 0; i < kSetups; ++i) {
    in.reset();  // one trainer alive at a time
    Timer setup;
    in = set_up(data, edges, gat_model(data, opt.seed, w.shards, true), tr);
    const float warm = in->trainer->train_step(data.labels, kLr).loss;
    rep.samples["setup_s"].push_back(setup.seconds());
    ++rep.attempted;
    if (i + 1 == kSetups) losses.push_back(warm);
  }

  // The machine's speed drifts on a scale of seconds, so forward passes are
  // interleaved with the steps rather than timed in a block of their own.
  Trainer& t = *in->trainer;
  Tensor logits;
  Timer phase;
  long steps = 0, forwards = 0;
  double step_s = 0;
  while (steps < kMinSteps || phase.seconds() < opt.seconds) {
    const StepMetrics sm = t.train_step(data.labels, kLr);
    ++steps;
    step_s += sm.seconds;
    rep.samples["latency_ms"].push_back(sm.seconds * 1e3);
    rep.samples["peak_mib"].push_back(static_cast<double>(sm.peak_bytes) / kMiB);
    losses.push_back(sm.loss);
    if (losses.size() == kCheckSteps) logits = t.logits().clone(MemTag::kWorkspace);
    if (steps % kStepsPerForward == 0) {
      rep.samples["forward_ms"].push_back(t.forward(data.labels).seconds * 1e3);
      ++forwards;
    }
  }
  rep.values["throughput_per_s"] = static_cast<double>(steps) / step_s;
  rep.attempted += steps + forwards;
  in.reset();
  check_outputs(opt, data, edges, losses, logits, rep);
}

void run_traced(const Options& opt, const Workload& w, const Dataset& data,
                const std::vector<Edge>& edges, Report& rep, Tracer& tr) {
  auto in = set_up(data, edges, gat_model(data, opt.seed, w.shards, true), tr);
  for (const Span& s : tr.spans()) {
    if (s.name == "graph.Graph") rep.values["graph.build_ms"] = (s.t1 - s.t0) * 1e3;
  }
  record_compile(*in, rep);
  Trainer& t = *in->trainer;

  // Steps 1..kCheckSteps are the check window (and the warm-up): replayed,
  // then compared with a plain Trainer run below.
  std::vector<float> losses;
  for (long run = 1; run <= kCheckSteps; ++run) {
    losses.push_back(replay_step(t, data.labels, tr, run, nullptr));
  }
  const Tensor replay_logits = t.logits().clone(MemTag::kWorkspace);

  const Usage u0 = usage_now();
  Timer phase;
  long run = kCheckSteps, traced = 0, plain = 0;
  while (traced < kMinTracedSteps || phase.seconds() < 0.85 * opt.seconds) {
    for (int i = 0; i < kBlock; ++i, ++plain) {
      const StepMetrics sm = t.train_step(data.labels, kLr);
      rep.samples["trace.untraced_ms"].push_back(sm.seconds * 1e3);
      losses.push_back(sm.loss);
    }
    for (int i = 0; i < kBlock; ++i, ++traced) {
      losses.push_back(replay_step(t, data.labels, tr, ++run, &rep));
    }
  }
  const Usage u1 = usage_now();
  const double cpu = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
  rep.values["tensor.minflt_per_step"] =
      (u1.minflt - u0.minflt) / static_cast<double>(traced + plain);
  rep.values["tensor.sys_cpu_share"] = cpu > 0 ? (u1.sys_s - u0.sys_s) / cpu : 0;
  rep.attempted += traced + plain + kCheckSteps;

  gemm_probe(data, opt, tr, rep);

  // The replayed steps against plain train_steps from the same artifact.
  in->trainer = std::make_unique<Trainer>(
      in->compiled, *in->graph, data.features.clone(MemTag::kInput, &in->pool),
      Tensor{}, &in->pool);
  Tensor plain_logits;
  const std::vector<float> plain_losses =
      plain_steps(*in, data, kCheckSteps, &plain_logits);
  const std::vector<float> head(losses.begin(), losses.begin() + kCheckSteps);
  rep.check("replay_matches_train_step", same_losses(head, plain_losses),
            "replayed [" + describe(head) + "] train_step [" +
                describe(plain_losses) + "]");
  rep.check("replay_logits_match_train_step",
            same_bits(replay_logits.data(), replay_logits.rows(),
                      replay_logits.cols(), plain_logits.data(),
                      plain_logits.rows(), plain_logits.cols()),
            "logits after step " + std::to_string(kCheckSteps));
  in.reset();
  check_outputs(opt, data, edges, losses, replay_logits, rep);

  // Layers this workload does not reach read zero.
  for (const char* name :
       {"serve.batch_ms_p50", "serve.queue_ms_p99", "serve.collate_us",
        "serve.decollate_us", "serve.mean_batch", "serve.worker_busy_share",
        "serve.slo_shrinks", "serve.slo_grows", "serve.plan_compiles",
        "serve.gen_late_ms_p99", "serve.p99_ms_peak", "serve.host_peak_mib",
        "baselines.plan_cache_hit_share"}) {
    rep.values[name] = 0;
  }
}

}  // namespace

int run_train(const Options& opt, Report& rep, Tracer& tr) {
  const Workload w = workload_of(opt.workload);
  set_global_pool_threads(std::max(1u, worker_budget() / 2));
  rep.record_num["pool_threads"] = global_pool().size();
  rep.record_num["host_workers"] = 0;
  rep.record_num["shards"] = w.shards;

  // Inputs come from the seed; generating them is not part of set-up.
  Rng rng(opt.seed);
  const Dataset data = make_dataset(w.dataset, rng, w.scale, kFeatScale);
  std::vector<Edge> edges(static_cast<std::size_t>(data.graph.num_edges()));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    edges[e] = {data.graph.edge_src()[e], data.graph.edge_dst()[e]};
  }
  rep.record_num["vertices"] = static_cast<double>(data.graph.num_vertices());
  rep.record_num["edges"] = static_cast<double>(data.graph.num_edges());
  rep.record_num["in_dim"] = static_cast<double>(data.features.cols());

  if (opt.trace) {
    run_traced(opt, w, data, edges, rep, tr);
  } else {
    run_untraced(opt, w, data, edges, rep, tr);
  }
  return 0;
}

}  // namespace perfbench
