// serve-mix: open-loop Poisson arrivals from one thread into a ServingHost
// with its SLO controller on, serving GCN, GAT and EdgeConv over seeded k-NN
// point clouds of three sizes.
//
// Admission, batching, collate, the PlanCache and the controller do the work
// on many small block-diagonal batches, with no backward and no transport —
// the engine's forward path used differently from training's one large
// graph.
//
// The load generator here is the benchmark's own, built on try_submit: each
// request is timed from its *due* time (so a generator stall charges the
// requests it delays) and the generator's lateness is reported.
// serve::run_open_loop times from submit instead and is not used.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/triad.h"
#include "common.h"
#include "serve/host.h"
#include "support/parallel.h"

namespace perfbench {

using namespace triad;

namespace {

constexpr std::int64_t kFeat = 16;
constexpr std::int64_t kKnn = 16;
/// Request sizes are kUnit, 2*kUnit and 4*kUnit points.
constexpr std::int64_t kUnit = 256;
constexpr int kTemplates = 12;  ///< request templates per model
constexpr int kMaxBatch = 8;
constexpr std::int64_t kMaxWaitUs = 1000;
/// The knee: the median throughput_per_s (highest sustainable offered rate,
/// all models together) of 30 runs, seeds 1-10 three times, on a shared
/// 4-vCPU VM with 2 host workers: 844 rps. The three sets' medians were 836,
/// 830 and 918 rps; single runs ranged from 720 to 1077 rps.
constexpr double kKneeRps = 844;
/// Fixed offered rates: nominal well below the knee (p99 10-19 ms there in
/// 20 runs), peak near it, where p99 reaches the SLO target and the
/// controller acts (21-101 ms, median 38 ms).
constexpr double kNominalRps = 0.2 * kKneeRps;
constexpr double kPeakRps = 0.8 * kKneeRps;
/// p99 limit (from due time) a rate must meet to count as sustainable. In
/// ten of those runs the median search-probe p99 was 33-52 ms from 650 to
/// 850 rps, 90 ms at 850-900 rps and 150-250 ms at 900-1000 rps: the limit
/// sits where p99 turns steep, so the knee is found there and not on the
/// flat part, where the machine's noise moves p99 more than the rate does.
constexpr double kLatencyLimitMs = 100;
/// The controller's p99 target: below the limit, so the controller shrinks
/// batching waits before the limit is reached. The median probe p99
/// crossed it at about 700 rps, near the peak rate.
constexpr std::int64_t kSloTargetUs = 40000;
/// Searches start at the peak rate, below the knee.
constexpr double kSearchStartRps = kPeakRps;
constexpr double kSearchFactor = 1.07;
constexpr double kSearchFloorRps = 50;
constexpr double kSearchCapRps = 12000;
constexpr int kProbeRequests = 1000;  ///< p99 with 10 samples beyond it
constexpr int kSetups = 5;
/// Searches per untraced run; throughput_per_s is their median.
constexpr int kRounds = 3;
/// Nominal-rate segments a run is split into (about one per search probe).
constexpr int kSegments = 17;
/// Shares of --seconds spent at the nominal and at the peak rate.
constexpr double kNominalShare = 0.3;
constexpr double kPeakShare = 0.1;
constexpr double kWarmupSeconds = 0.25;
/// Traffic shares of GCN, GAT and EdgeConv, in requests out of every 20: a
/// fixed choice, not a measured one, that gives every model at least a
/// quarter of the requests.
constexpr int kShares[3] = {8, 7, 5};
constexpr double kMiB = 1024.0 * 1024.0;

using SteadyClock = std::chrono::steady_clock;

double since(SteadyClock::time_point t0, SteadyClock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Served {
  api::Model model;
  int share;  ///< requests of this model in every 20 of the mix
  std::string name;  ///< registered name on the current host
  std::vector<serve::InferenceRequest> templates;
  std::vector<Tensor> reference;  ///< each template's output, served alone
};

api::Model make_model(int which) {
  api::CompileOptions co;
  co.init_seed = 4242 + static_cast<unsigned>(which);
  const api::Engine engine(co);
  if (which == 0) {
    GcnConfig cfg;
    cfg.in_dim = kFeat;
    cfg.hidden = {32};
    cfg.num_classes = 8;
    return engine.compile(std::make_shared<api::Gcn>(cfg));
  }
  if (which == 1) {
    GatConfig cfg;
    cfg.in_dim = kFeat;
    cfg.hidden = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.num_classes = 8;
    return engine.compile(std::make_shared<api::Gat>(cfg));
  }
  EdgeConvConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden = {32, 32};
  cfg.num_classes = 8;
  return engine.compile(std::make_shared<api::EdgeConv>(cfg));
}

/// Seeded request templates: k-NN point clouds of mixed sizes. EdgeConv reads
/// the coordinates; GCN and GAT read random 16-wide features.
std::vector<serve::InferenceRequest> make_templates(int which, unsigned seed,
                                                    Tracer& tr, Report& rep) {
  std::vector<serve::InferenceRequest> out;
  for (int i = 0; i < kTemplates; ++i) {
    Rng rng(static_cast<std::uint64_t>(seed) * 1000003u +
            static_cast<std::uint64_t>(which * kTemplates + i));
    const std::int64_t n = kUnit << (i % 3);
    Tensor cloud = synthetic_point_cloud(n, 3, i % 8, rng);
    std::vector<Edge> edges = knn_edges(cloud, kKnn);
    serve::InferenceRequest req;
    {
      Scope s(tr, "graph.Graph", -3);
      req.graph = std::make_shared<const Graph>(n, std::move(edges));
      const double d = s.close();
      if (tr.on()) rep.samples["graph.build_ms"].push_back(d * 1e3);
    }
    if (which == 2) {
      req.features = std::move(cloud);
    } else {
      req.features = Tensor(n, kFeat, MemTag::kInput);
      for (float& x : req.features.flat()) {
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    out.push_back(std::move(req));
  }
  return out;
}

serve::ModelOptions model_options() {
  serve::ModelOptions mo;
  mo.batch.max_batch = kMaxBatch;
  mo.batch.max_wait_us = kMaxWaitUs;
  mo.batch.queue_capacity = 4096;
  mo.slo.enabled = true;
  mo.slo.target_p99_us = kSloTargetUs;
  return mo;
}

/// Half the worker budget (see worker_budget); the generator gets a core of
/// the other half, so it is not starved and late.
int host_workers() {
  return std::max(1, static_cast<int>(worker_budget()) / 2);
}

/// A graph with the shape (|V| = n, k in-edges per vertex) of a collated
/// batch of k-NN requests: unsharded plans depend on the shape only.
Graph shape_graph(std::int64_t n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n * kKnn));
  for (std::int64_t v = 0; v < n; ++v) {
    for (std::int64_t j = 1; j <= kKnn; ++j) {
      edges.push_back({static_cast<std::int32_t>((v + j) % n),
                       static_cast<std::int32_t>(v)});
    }
  }
  return Graph(n, std::move(edges));
}

/// One fixed-rate open-loop phase, as the client sees it.
struct Phase {
  double rate = 0;
  std::vector<double> latency_ms;  ///< due -> result ready
  std::vector<double> late_ms;     ///< due -> submitted (generator lateness)
  std::vector<double> batch_ms;    ///< execution time of the carrying batch
  std::vector<double> queue_ms;    ///< latency_ms - batch_ms
  long offered = 0, refused = 0, failed = 0, wrong = 0, compared = 0;
  std::size_t backlog = 0;  ///< requests still queued at the last arrival
  double seconds = 0;       ///< first due -> last result
};

double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return v[std::min(rank, v.size()) - 1];
}

/// The request mix, dealt from a shuffled deck that holds every template of
/// each model `share` times: every 20 * kTemplates requests carry
/// the mix exactly, so a run's median latency does not move with how many
/// large or slow requests its random draws happened to pick.
class Deck {
 public:
  Deck(const std::vector<Served>& models, std::uint64_t seed) : rng_(seed) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      for (int c = 0; c < models[m].share; ++c) {
        for (int t = 0; t < kTemplates; ++t) {
          cards_.push_back({m, static_cast<std::size_t>(t)});
        }
      }
    }
    next_ = cards_.size();
  }

  std::pair<std::size_t, std::size_t> deal() {
    if (next_ == cards_.size()) {
      for (std::size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng_.uniform_int(i + 1)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  Rng rng_;
  std::vector<std::pair<std::size_t, std::size_t>> cards_;
  std::size_t next_;
};

Phase open_loop(serve::ServingHost& host, std::vector<Served>& models,
                Deck& deck, double rate, double seconds, std::uint64_t seed,
                Tracer& tr, long* run, bool perturb) {
  struct Arrival {
    double due;
    std::size_t model, tmpl;
  };
  Rng rng(seed);
  std::vector<Arrival> schedule;
  for (double t = 0;;) {
    t += -std::log(std::max(rng.uniform(), 1e-12)) / rate;
    if (t > seconds) break;
    const auto [m, tmpl] = deck.deal();
    schedule.push_back({t, m, tmpl});
  }

  struct InFlight {
    std::future<serve::InferenceResult> result;
    std::size_t model, tmpl;
    double late_s;
  };
  std::vector<InFlight> flights;
  flights.reserve(schedule.size());
  Phase ph;
  ph.rate = rate;
  const auto start = SteadyClock::now();
  for (const Arrival& a : schedule) {
    const auto due = start + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(a.due));
    std::this_thread::sleep_until(due);
    const double late = since(due, SteadyClock::now());
    Served& m = models[a.model];
    std::future<serve::InferenceResult> fut;
    serve::Admission adm;
    {
      Scope s(tr, "serve.ServingHost::try_submit", (*run)++);
      adm = host.try_submit(m.name, m.templates[a.tmpl],
                            serve::Priority::Normal, &fut);
    }
    ++ph.offered;
    ph.late_ms.push_back(late * 1e3);
    if (adm == serve::Admission::Accepted) {
      flights.push_back({std::move(fut), a.model, a.tmpl, late});
    } else {
      ++ph.refused;
    }
  }
  for (const Served& m : models) ph.backlog += host.stats(m.name).queue_depth;

  for (InFlight& f : flights) {
    try {
      serve::InferenceResult res = f.result.get();
      const double lat = f.late_s + res.latency_seconds;
      ph.latency_ms.push_back(lat * 1e3);
      ph.batch_ms.push_back(res.batch_seconds * 1e3);
      ph.queue_ms.push_back((lat - res.batch_seconds) * 1e3);
      if (perturb && ph.compared == 0) flip_low_bit(res.output.data());
      const Tensor& ref = models[f.model].reference[f.tmpl];
      ++ph.compared;
      if (!same_bits(res.output.data(), res.output.rows(), res.output.cols(),
                     ref.data(), ref.rows(), ref.cols())) {
        ++ph.wrong;
      }
    } catch (const std::exception&) {
      ++ph.failed;
    }
  }
  ph.seconds = since(start, SteadyClock::now());
  return ph;
}

/// Host construction, registration and a warm-up that fills the PlanCache
/// with every batch shape the mix can form, then a short burst of traffic.
std::unique_ptr<serve::ServingHost> set_up(std::vector<Served>& models,
                                           Tracer& tr, Report* layer_rep,
                                           std::uint64_t seed, long* run) {
  PlanCache::global().clear();
  std::unique_ptr<serve::ServingHost> host;
  {
    Scope s(tr, "serve.ServingHost", -1);
    serve::HostConfig hc;
    hc.workers = host_workers();
    host = std::make_unique<serve::ServingHost>(hc);
  }
  double compile_s = 0, nodes = 0, programs = 0;
  for (Served& m : models) {
    {
      Scope s(tr, "api.Model::register_with", -1);
      m.name = m.model.register_with(*host, model_options());
    }
    const Strategy& strategy = m.model.options().strategy;
    const api::Model& model = m.model;
    for (std::int64_t units = 1; units <= 4 * kMaxBatch; ++units) {
      const Graph g = shape_graph(units * kUnit);
      const PlanKey key{m.name,          strategy.name,  false,
                        g.num_vertices(), g.num_edges(), model.module().in_dim()};
      std::shared_ptr<const Compiled> c;
      {
        Scope s(tr, "baselines.PlanCache::get_or_compile", -1);
        c = PlanCache::global().get_or_compile(
            key, strategy, false, g, [&model] { return model.build_graph(); });
      }
      compile_s += c->stats.pass_seconds;
      if (units == 1) {
        nodes += c->stats.passes.empty() ? c->ir.size()
                                         : c->stats.passes.back().nodes_after;
        programs += static_cast<double>(c->ir.programs.size());
      }
    }
  }
  if (layer_rep != nullptr) {
    layer_rep->values["ir.compile_ms"] = compile_s * 1e3;
    layer_rep->values["ir.nodes_after"] = nodes;
    layer_rep->values["ir.fused_programs"] = programs;
  }
  Tracer off(false);
  Deck deck(models, seed);
  open_loop(*host, models, deck, kPeakRps, kWarmupSeconds, seed, off, run,
            false);
  return host;
}

/// The host of the fixed-rate phases, warmed up at the nominal rate. The
/// rate search overloads its own host on purpose, and the SLO controller
/// answers by shrinking the batching wait and size, which take seconds of
/// light traffic to grow back. On a host of their own the nominal segments
/// meet the controller in the state light traffic holds it in, whatever
/// the search did before them.
std::unique_ptr<serve::ServingHost> fixed_rate_host(std::vector<Served>& models,
                                                    std::uint64_t seed,
                                                    long* run) {
  serve::HostConfig hc;
  hc.workers = host_workers();
  auto host = std::make_unique<serve::ServingHost>(hc);
  for (Served& m : models) m.name = m.model.register_with(*host, model_options());
  Tracer off(false);
  Deck deck(models, seed);
  open_loop(*host, models, deck, kNominalRps, kWarmupSeconds, seed, off, run,
            false);
  return host;
}

/// Bit-identity tally of repeated solo runs against the references.
struct SoloTally {
  long runs = 0, bad = 0;
};

/// Runs every template alone through the engine once. The reference pass
/// records the outputs (the collate contract's "served alone") and is not
/// timed: it compiles. Later passes time PlanRunner::run, the unloaded
/// forward latency, and check it reproduces the reference.
void solo_pass(std::vector<Served>& models, bool reference, Tracer& tr,
               Report& rep, SoloTally& tally) {
  MemoryPool pool;
  for (Served& m : models) {
    for (std::size_t i = 0; i < m.templates.size(); ++i) {
      const serve::InferenceRequest& req = m.templates[i];
      const auto c = m.model.compiled(*req.graph, /*training=*/false);
      PlanRunner runner(*req.graph, c->plan, &pool);
      runner.bind(c->features, req.features);
      for (std::size_t p = 0; p < c->params.size(); ++p) {
        runner.bind(c->params[p], c->init[p]);
      }
      pool.reset_peak();
      CounterScope counters;
      Timer timer;
      {
        Scope s(tr, "engine.PlanRunner::run", -4);
        runner.run();
      }
      const double run_s = timer.seconds();
      const PerfCounters pc = counters.delta();
      const Tensor& out = runner.result(c->output);
      if (reference) {
        m.reference.push_back(out.clone(MemTag::kWorkspace));
        continue;
      }
      const Tensor& ref = m.reference[i];
      ++tally.runs;
      if (!same_bits(out.data(), out.rows(), out.cols(), ref.data(),
                     ref.rows(), ref.cols())) {
        ++tally.bad;
      }
      rep.samples["forward_ms"].push_back(run_s * 1e3);
      rep.samples["peak_mib"].push_back(static_cast<double>(pool.peak_bytes()) / kMiB);
      if (tr.on()) {
        rep.samples["engine.fwd_ms"].push_back(run_s * 1e3);
        rep.samples["engine.io_gbps"].push_back(
            static_cast<double>(pc.io_bytes()) / run_s * 1e-9);
        rep.samples["engine.gflops"].push_back(
            static_cast<double>(pc.flops) / run_s * 1e-9);
        rep.samples["tensor.peak_activations_mib"].push_back(
            static_cast<double>(pool.peak_breakdown(MemTag::kActivations)) / kMiB);
        rep.samples["tensor.peak_stash_mib"].push_back(
            static_cast<double>(pool.peak_breakdown(MemTag::kStash)) / kMiB);
        rep.samples["tensor.peak_gradient_mib"].push_back(
            static_cast<double>(pool.peak_breakdown(MemTag::kGradient)) / kMiB);
      }
    }
  }
}

/// Direct collate/decollate calls on batches drawn from the mix.
void collate_probe(const std::vector<Served>& models, std::uint64_t seed,
                   Tracer& tr, Report& rep) {
  Rng rng(seed);
  MemoryPool pool;
  for (int b = 0; b < 300; ++b) {
    const Served& m = models[rng.uniform_int(models.size())];
    std::vector<const serve::InferenceRequest*> reqs;
    const int size = 1 + static_cast<int>(rng.uniform_int(kMaxBatch));
    for (int i = 0; i < size; ++i) {
      reqs.push_back(&m.templates[rng.uniform_int(m.templates.size())]);
    }
    Scope s(tr, "serve.collate", -5);
    const serve::CollatedBatch cb = serve::collate(reqs, &pool);
    rep.samples["serve.collate_us"].push_back(s.close() * 1e6);
    for (const serve::RequestRange& r : cb.ranges) {
      Scope d(tr, "serve.decollate", -5);
      const Tensor rows = serve::decollate(cb.features, r, MemTag::kActivations, &pool);
      rep.samples["serve.decollate_us"].push_back(d.close() * 1e6);
    }
  }
}

/// Counts a phase's requests in attempted and its failures in failed, and
/// checks its responses. Refusals count as failures at the fixed rates; the
/// rate search probes above the knee, where refusing is the host's answer.
void add_phase(const Phase& ph, Report& rep, const char* name,
               bool refusals_fail = true) {
  rep.attempted += ph.offered;
  rep.failed += (refusals_fail ? ph.refused : 0) + ph.failed + ph.wrong;
  rep.check(std::string("responses_match_solo_") + name, ph.wrong == 0,
            std::to_string(ph.compared - ph.wrong) + "/" +
                std::to_string(ph.compared) +
                " responses bit-identical to the request served alone; " +
                std::to_string(ph.refused) + " refused" +
                (refusals_fail ? ", " : " (allowed), ") +
                std::to_string(ph.failed) + " failed of " +
                std::to_string(ph.offered) + " offered at " +
                (refusals_fail ? std::to_string(static_cast<long>(ph.rate)) +
                                     " rps"
                               : std::string("the searched rates")));
}

/// No refusals or failures, p99 within the limit, and no more queued at the
/// last arrival than the offered rate brings in within the limit.
bool sustainable(const Phase& ph) {
  return ph.refused == 0 && ph.failed == 0 && ph.wrong == 0 &&
         static_cast<double>(ph.backlog) <= ph.rate * kLatencyLimitMs * 1e-3 &&
         nearest_rank(ph.latency_ms, 99) <= kLatencyLimitMs;
}

/// One search for the highest sustainable offered rate, fed one probe at a
/// time. Probes step by kSearchFactor from the start — upward while they
/// pass, downward while they fail — until a passing and a failing rate are
/// adjacent. A failure at the start or on the way up is confirmed by a
/// second probe at the same rate, so one hiccup of the machine does not end
/// the search. When the failure was on the tail alone, the p99-vs-rate line
/// between the two rates is interpolated (in log p99) to the latency limit.
class RateSearch {
 public:
  struct Probe {
    double rate = 0, p99 = 0;
    bool ok = false, tail_only = false;
  };

  explicit RateSearch(double start) : next_(start) {}
  bool done() const { return done_; }
  double next_rate() const { return next_; }

  void record(const Probe& p) {
    if (!p.ok && !retried_ && (probes_ == 0 || up_)) {
      retried_ = true;  // next_ stays: probe the same rate again
      ++probes_;
      return;
    }
    if (probes_ == 0 || (probes_ == 1 && retried_)) up_ = p.ok;
    ++probes_;
    retried_ = false;
    if (p.ok) pass_ = p; else fail_ = p;
    if (up_ != p.ok) {
      done_ = true;
    } else {
      next_ = up_ ? p.rate * kSearchFactor : p.rate / kSearchFactor;
      done_ = next_ > kSearchCapRps || next_ < kSearchFloorRps;
    }
  }

  double estimate() const {
    if (pass_.rate == 0) return kSearchFloorRps / kSearchFactor;
    if (fail_.rate == 0 || !fail_.tail_only || pass_.p99 <= 0) return pass_.rate;
    const double f = (std::log(kLatencyLimitMs) - std::log(pass_.p99)) /
                     (std::log(fail_.p99) - std::log(pass_.p99));
    return pass_.rate + std::clamp(f, 0.0, 1.0) * (fail_.rate - pass_.rate);
  }

 private:
  double next_;
  Probe pass_, fail_;
  int probes_ = 0;
  bool up_ = true, retried_ = false, done_ = false;
};

void append(Phase& into, const Phase& from) {
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  into.rate = from.rate;
  cat(into.latency_ms, from.latency_ms);
  cat(into.late_ms, from.late_ms);
  cat(into.batch_ms, from.batch_ms);
  cat(into.queue_ms, from.queue_ms);
  into.offered += from.offered;
  into.refused += from.refused;
  into.failed += from.failed;
  into.wrong += from.wrong;
  into.compared += from.compared;
  into.backlog = std::max(into.backlog, from.backlog);
  into.seconds += from.seconds;
}

/// One search probe; its requests are also appended to `searched`.
RateSearch::Probe probe(serve::ServingHost& host, std::vector<Served>& models,
                        double rate, std::uint64_t seed, long* run,
                        bool perturb, Phase& searched, Report& rep) {
  Tracer off(false);
  Deck deck(models, seed);
  const Phase ph = open_loop(host, models, deck, rate, kProbeRequests / rate,
                             seed, off, run, perturb && searched.offered == 0);
  append(searched, ph);
  rep.samples["search.rate"].push_back(rate);
  rep.samples["search.p99_ms"].push_back(nearest_rank(ph.latency_ms, 99));
  return {rate, nearest_rank(ph.latency_ms, 99), sustainable(ph),
          ph.refused == 0 && ph.failed == 0 && ph.wrong == 0};
}

}  // namespace

int run_serve(const Options& opt, Report& rep, Tracer& tr) {
  // Host workers carry the parallelism; one pool thread keeps batches from
  // serializing on the shared pool's fan-out.
  set_global_pool_threads(1);
  rep.record_num["pool_threads"] = global_pool().size();
  rep.record_num["host_workers"] = host_workers();
  rep.record_num["shards"] = 0;
  rep.record_num["nominal_rps"] = kNominalRps;
  rep.record_num["peak_rps"] = kPeakRps;
  rep.record_num["latency_limit_ms"] = kLatencyLimitMs;
  rep.record_num["slo_target_us"] = static_cast<double>(kSloTargetUs);

  std::vector<Served> models;
  for (int which = 0; which < 3; ++which) {
    models.push_back({make_model(which), kShares[which], "",
                      make_templates(which, opt.seed, tr, rep), {}});
  }
  SoloTally solo;
  solo_pass(models, /*reference=*/true, tr, rep, solo);

  long run = 0;
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.seed) * 7919u;
  std::unique_ptr<serve::ServingHost> host;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    host.reset();
    Timer setup;
    host = set_up(models, tr, opt.trace ? &rep : nullptr, seed, &run);
    rep.samples["setup_s"].push_back(setup.seconds());
  }
  const std::unique_ptr<serve::ServingHost> fixed =
      fixed_rate_host(models, seed + 1, &run);

  const PlanCache& cache = PlanCache::global();
  const std::size_t hits0 = cache.hits(), misses0 = cache.misses();
  const serve::HostStats st0 = fixed->stats();
  const Usage u0 = usage_now();
  Tracer off(false);

  // The machine's speed drifts on a scale of seconds, so the measurements
  // are interleaved across the run: short nominal-rate segments, solo passes
  // and (untraced) the probes of kRounds searches for the highest sustainable
  // rate, each search starting just below the previous estimate. Traced runs
  // alternate untraced and traced nominal segments instead of probing. The
  // fixed-rate phases run on their own host, the probes on the set-up one.
  const double segment_s = kNominalShare * opt.seconds / kSegments;
  Phase nominal, traced, searched;
  std::vector<double> estimates;
  std::uint64_t phase_seed = seed + 10;
  Deck nominal_deck(models, seed + 6), traced_deck(models, seed + 7);
  auto segment = [&] {
    append(nominal, open_loop(*fixed, models, nominal_deck, kNominalRps,
                              segment_s, ++phase_seed, off, &run,
                              opt.perturb && nominal.offered == 0));
    if (opt.trace) {
      append(traced, open_loop(*fixed, models, traced_deck, kNominalRps,
                               segment_s, ++phase_seed, tr, &run, false));
    }
    solo_pass(models, false, tr, rep, solo);
  };
  if (opt.trace) {
    for (int i = 0; i < kSegments; ++i) segment();
  } else {
    double start = kSearchStartRps;
    for (int r = 0; r < kRounds; ++r) {
      RateSearch search(start);
      while (!search.done()) {
        segment();
        search.record(probe(*host, models, search.next_rate(), ++phase_seed,
                            &run, opt.perturb, searched, rep));
      }
      estimates.push_back(search.estimate());
      start = estimates.back() / (kSearchFactor * kSearchFactor);
    }
  }
  Deck peak_deck(models, seed + 8);
  const Phase peak =
      open_loop(*fixed, models, peak_deck, kPeakRps, kPeakShare * opt.seconds,
                seed + 3, opt.trace ? tr : off, &run, false);
  const Usage u1 = usage_now();
  const serve::HostStats st1 = fixed->stats();
  // forward_ms_p50 is the median over the templates of each one's fastest
  // solo run: the machine's slow spells, which last for tens of seconds on a
  // shared host, lengthen every run inside them, and the fastest of a
  // template's runs is the one least touched by them.
  std::vector<double>& forward = rep.samples["forward_ms"];
  const std::size_t per_pass = models.size() * kTemplates;
  std::vector<double> fastest(forward.begin(), forward.begin() + per_pass);
  for (std::size_t i = per_pass; i < forward.size(); ++i) {
    fastest[i % per_pass] = std::min(fastest[i % per_pass], forward[i]);
  }
  forward = fastest;
  add_phase(nominal, rep, "nominal");
  if (opt.trace) add_phase(traced, rep, "nominal_traced");
  add_phase(peak, rep, "peak");
  if (!opt.trace) add_phase(searched, rep, "search", /*refusals_fail=*/false);
  rep.check("solo_run_deterministic", solo.bad == 0,
            std::to_string(solo.runs - solo.bad) + "/" +
                std::to_string(solo.runs) +
                " repeated solo runs bit-identical to the first");
  rep.values["serve.p99_ms_peak"] = nearest_rank(peak.latency_ms, 99);

  if (!opt.trace) {
    rep.samples["latency_ms"] = nominal.latency_ms;
    rep.samples["throughput_per_s"] = estimates;
    return 0;
  }

  // Per-layer figures over the fixed-rate phases.
  auto& v = rep.values;
  rep.samples["trace.untraced_ms"] = nominal.latency_ms;
  rep.samples["trace.traced_ms"] = traced.latency_ms;
  rep.samples["serve.batch_ms_p50"] = nominal.batch_ms;
  rep.samples["serve.queue_ms_p99"] = peak.queue_ms;
  std::vector<double> late = nominal.late_ms;
  late.insert(late.end(), traced.late_ms.begin(), traced.late_ms.end());
  late.insert(late.end(), peak.late_ms.begin(), peak.late_ms.end());
  rep.samples["serve.gen_late_ms_p99"] = late;
  const serve::ServerStats& a = st0.total;
  const serve::ServerStats& b = st1.total;
  const double batches = static_cast<double>(b.batches - a.batches);
  v["serve.mean_batch"] =
      batches > 0 ? static_cast<double>(b.completed - a.completed) / batches : 0;
  v["serve.worker_busy_share"] =
      (b.busy_seconds - a.busy_seconds) /
      (host_workers() * (nominal.seconds + traced.seconds + peak.seconds));
  v["serve.slo_shrinks"] = static_cast<double>(b.slo_shrinks - a.slo_shrinks);
  v["serve.slo_grows"] = static_cast<double>(b.slo_grows - a.slo_grows);
  const PerfCounters pc = b.counters - a.counters;
  v["serve.plan_compiles"] = static_cast<double>(pc.plan_compiles);
  v["serve.host_peak_mib"] = static_cast<double>(b.pool_peak_bytes) / kMiB;
  v["engine.core_share_fwd"] =
      pc.specialized_fwd_edges + pc.interpreted_fwd_edges > 0
          ? static_cast<double>(pc.specialized_fwd_edges) /
                static_cast<double>(pc.specialized_fwd_edges +
                                    pc.interpreted_fwd_edges)
          : 0;
  const double lookups = static_cast<double>(cache.hits() - hits0 +
                                             cache.misses() - misses0);
  v["baselines.plan_cache_hit_share"] =
      lookups > 0 ? static_cast<double>(cache.hits() - hits0) / lookups : 0;
  const double requests =
      static_cast<double>(nominal.offered + traced.offered + peak.offered);
  const double cpu = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
  v["tensor.minflt_per_step"] = (u1.minflt - u0.minflt) / requests;
  v["tensor.sys_cpu_share"] = cpu > 0 ? (u1.sys_s - u0.sys_s) / cpu : 0;
  collate_probe(models, seed + 5, tr, rep);

  // Layers this workload does not reach read zero.
  for (const char* name :
       {"graph.partition_ms", "engine.bwd_ms", "engine.core_share_bwd",
        "engine.walk_ms", "engine.combine_ms", "engine.overlap_share",
        "tensor.gemm_wgrad_ms", "tensor.loss_ms", "transport.push_ms",
        "transport.pull_ms", "transport.bytes_per_step",
        "transport.msgs_per_step"}) {
    v[name] = 0;
  }
  v["graph.shard_edge_imbalance"] = 1;
  return 0;
}

}  // namespace perfbench
