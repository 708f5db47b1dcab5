#include "serve/host.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <utility>

#include "baselines/plan_cache.h"
#include "support/macros.h"

namespace triad::serve {

/// Everything one registered model owns. Entries are created at registration
/// and never destroyed before the host, so workers hold plain pointers.
struct ServingHost::Entry {
  Entry(std::string model_name, ModelOptions options)
      : name(std::move(model_name)),
        opts(std::move(options)),
        queue(opts.batch.queue_capacity, kPriorityLanes),
        controller(opts.slo, opts.batch) {}

  const std::string name;
  const ModelOptions opts;
  /// Input widths of the registered model, read from its IR at
  /// registration; every request is checked against them before collation.
  /// pseudo_cols = 0: the model takes no pseudo-coordinates.
  std::int64_t feature_cols = 0;
  std::int64_t pseudo_cols = 0;
  BoundedQueue<Pending> queue;  ///< one lane per Priority
  SloBatchController controller;
  MemoryPool pool;           ///< batch-internal tensors (collated inputs)
  LatencyHistogram latency;  ///< per-request; feeds the SLO controller

  mutable std::mutex mu;  ///< guards everything below
  ModelBuilder builder;   ///< reload() may swap it
  /// Current parameter payloads, swapped wholesale by reload(). Workers
  /// snapshot the shared_ptr once per batch, so a batch binds either the old
  /// or the new weights in full — never a torn mix.
  std::shared_ptr<const std::vector<Tensor>> weights;
  ServerStats stats;
  double first_submit = -1;
  double last_done = 0;

  /// Workers currently serving this model's batches. Claimed under the
  /// host's mu_ in collect() (so the quota check and the claim are one
  /// atomic step against other collectors), released lock-free in
  /// finish_batch(). peak_active is only written under mu_ right after the
  /// increment, so a plain relaxed store records the true maximum.
  std::atomic<int> active{0};
  std::atomic<int> peak_active{0};
};

ServingHost::ServingHost(HostConfig config) : config_(config) {
  const int workers = std::max(0, config_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServingHost::~ServingHost() { shutdown(); }

void ServingHost::register_model(const std::string& name, ModelBuilder builder,
                                 ModelOptions opts) {
  TRIAD_CHECK(builder != nullptr, "ServingHost: model '" << name
                                                         << "' needs a builder");
  // Capture the initial weight snapshot (and implicitly validate the builder)
  // before touching the registry — a throwing builder registers nothing.
  ModelGraph model = builder();
  TRIAD_CHECK(model.params.size() == model.init.size(),
              "model '" << name << "': params/init size mismatch");
  TRIAD_CHECK(model.features >= 0,
              "model '" << name << "' declares no feature input");
  auto entry = std::make_unique<Entry>(name, std::move(opts));
  entry->feature_cols = model.ir.node(model.features).cols;
  if (model.pseudo >= 0) entry->pseudo_cols = model.ir.node(model.pseudo).cols;
  entry->builder = std::move(builder);
  entry->weights = std::make_shared<const std::vector<Tensor>>(
      std::move(model.init));
  entry->stats.batch_size_hist.assign(
      static_cast<std::size_t>(std::max(1, entry->opts.batch.max_batch)) + 1,
      0);
  std::lock_guard<std::mutex> lock(mu_);
  TRIAD_CHECK(!closed_, "ServingHost: register_model after shutdown");
  TRIAD_CHECK(index_.find(name) == index_.end(),
              "ServingHost: model '" << name << "' already registered");
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(entry));
}

ServingHost::Entry& ServingHost::entry(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(model);
  TRIAD_CHECK(it != index_.end(),
              "ServingHost: unknown model '" << model << "'");
  return *entries_[it->second];
}

Admission ServingHost::admit(const std::string& model, InferenceRequest request,
                             Priority priority, bool blocking,
                             std::future<InferenceResult>* out) {
  Entry& e = entry(model);

  // Admission control: when queue depth threatens the SLO, Low-priority work
  // is shed outright — cheaper for everyone than queuing it behind a tail it
  // would only lengthen. Counted separately from queue-full rejections.
  if (priority == Priority::Low && e.opts.shed_fraction < 1.0) {
    const auto threshold = static_cast<std::size_t>(
        e.opts.shed_fraction * static_cast<double>(e.queue.capacity()));
    if (e.queue.size() >= threshold) {
      std::lock_guard<std::mutex> lock(e.mu);
      ++e.stats.shed;
      return Admission::Shed;
    }
  }

  Pending p;
  p.request = std::move(request);
  p.priority = priority;
  p.submit_seconds = clock_.seconds();
  std::future<InferenceResult> fut = p.promise.get_future();

  // Registered BEFORE the enqueue (a fast worker may complete the request
  // before the submitter regains the CPU; completed must never exceed
  // submitted), rolled back on refusal.
  {
    std::lock_guard<std::mutex> lock(e.mu);
    ++e.stats.submitted;
    if (e.first_submit < 0 || p.submit_seconds < e.first_submit) {
      e.first_submit = p.submit_seconds;
    }
  }
  // The work hint rises before the push so a worker that pops the item never
  // decrements below zero; a failed push takes the hint back.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queued_hint_;
  }
  const int lane = static_cast<int>(priority);
  const bool pushed = blocking ? e.queue.push(std::move(p), lane)
                               : e.queue.try_push(std::move(p), lane);
  if (!pushed) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --queued_hint_;
    }
    std::lock_guard<std::mutex> lock(e.mu);
    --e.stats.submitted;
    if (e.queue.closed()) return Admission::Closed;
    ++e.stats.rejected;
    return Admission::Rejected;
  }
  work_cv_.notify_one();
  if (out != nullptr) *out = std::move(fut);
  return Admission::Accepted;
}

std::future<InferenceResult> ServingHost::submit(const std::string& model,
                                                 InferenceRequest request,
                                                 Priority priority) {
  std::future<InferenceResult> fut;
  switch (admit(model, std::move(request), priority, /*blocking=*/true, &fut)) {
    case Admission::Accepted:
      return fut;
    case Admission::Shed:
      throw Error("ServingHost: low-priority request shed (model '" + model +
                  "' queue depth at SLO threshold)");
    case Admission::Closed:
    default:
      throw Error("ServingHost: submit() after shutdown");
  }
}

Admission ServingHost::try_submit(const std::string& model,
                                  InferenceRequest request, Priority priority,
                                  std::future<InferenceResult>* out) {
  return admit(model, std::move(request), priority, /*blocking=*/false, out);
}

void ServingHost::reload(const std::string& model) {
  Entry& e = entry(model);
  ModelBuilder builder;
  {
    std::lock_guard<std::mutex> lock(e.mu);
    builder = e.builder;
  }
  do_reload(e, std::move(builder), /*install_builder=*/false);
}

void ServingHost::reload(const std::string& model, ModelBuilder builder) {
  TRIAD_CHECK(builder != nullptr,
              "ServingHost: reload of '" << model << "' needs a builder");
  do_reload(entry(model), std::move(builder), /*install_builder=*/true);
}

void ServingHost::do_reload(Entry& e, ModelBuilder builder,
                            bool install_builder) {
  ModelGraph fresh = builder();  // may throw: nothing changed
  std::shared_ptr<const std::vector<Tensor>> old;
  {
    std::lock_guard<std::mutex> lock(e.mu);
    old = e.weights;
  }
  TRIAD_CHECK(fresh.init.size() == old->size(),
              "ServingHost: reload of '" << e.name << "' changed parameter "
              "count (" << old->size() << " -> " << fresh.init.size() << ")");
  for (std::size_t i = 0; i < old->size(); ++i) {
    TRIAD_CHECK(fresh.init[i].rows() == (*old)[i].rows() &&
                    fresh.init[i].cols() == (*old)[i].cols(),
                "ServingHost: reload of '" << e.name << "' changed the shape "
                "of parameter " << i);
  }
  auto next = std::make_shared<const std::vector<Tensor>>(
      std::move(fresh.init));
  // Atomic cutover: the next batch snapshot sees the new weights, and a
  // replacement builder lands only with them — a failed reload (throw above)
  // changes neither, so plan compiles and weight binds can never disagree.
  std::lock_guard<std::mutex> lock(e.mu);
  e.weights = std::move(next);
  if (install_builder) e.builder = std::move(builder);
  ++e.stats.reloads;
}

void ServingHost::worker_loop() {
  for (;;) {
    Batch batch;
    if (!collect(/*blocking=*/true, &batch)) return;  // closed and drained
    if (!batch.items.empty()) {
      serve_batch(*batch.entry, batch.items);
      finish_batch(*batch.entry);
    }
  }
}

bool ServingHost::pump() {
  Batch batch;
  collect(/*blocking=*/false, &batch);
  if (batch.items.empty()) return false;
  serve_batch(*batch.entry, batch.items);
  finish_batch(*batch.entry);
  return true;
}

void ServingHost::finish_batch(Entry& e) {
  e.active.fetch_sub(1, std::memory_order_release);
  // A blocking collector may have skipped this model at quota and be sitting
  // in its timed wait; wake one so the freed slot is reused promptly.
  work_cv_.notify_one();
}

bool ServingHost::collect(bool blocking, Batch* out) {
  using clock = std::chrono::steady_clock;
  for (;;) {
    Entry* e = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (blocking) {
        // The hint can be transiently stale (items are popped outside this
        // mutex during timed collection), so this is a timed wait, not a
        // pure predicate wait: worst case a worker re-scans every 50 ms.
        work_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
          return closed_ || queued_hint_ > 0;
        });
      }
      const std::size_t n = entries_.size();
      const int quota = config_.max_workers_per_model;
      for (std::size_t k = 0; k < n && e == nullptr; ++k) {
        const std::size_t idx = (rr_next_ + k) % n;
        // Fairness quota: a model already at its worker cap is skipped even
        // with work queued — the scan moves on so other models' queues get
        // this worker. finish_batch() wakes a waiter when a slot frees.
        if (quota > 0 &&
            entries_[idx]->active.load(std::memory_order_relaxed) >= quota) {
          continue;
        }
        if (auto first = entries_[idx]->queue.try_pop()) {
          e = entries_[idx].get();
          out->items.clear();
          out->items.push_back(std::move(*first));
          if (queued_hint_ > 0) --queued_hint_;
          rr_next_ = (idx + 1) % n;
          // Claim the worker slot while still under mu_, so no other
          // collector can overshoot the quota between check and claim.
          const int now =
              e->active.fetch_add(1, std::memory_order_relaxed) + 1;
          if (now > e->peak_active.load(std::memory_order_relaxed)) {
            e->peak_active.store(now, std::memory_order_relaxed);
          }
        }
      }
      if (e == nullptr) {
        if (closed_) {
          bool drained = true;
          for (const auto& en : entries_) {
            drained = drained && en->queue.size() == 0;
          }
          if (drained) return false;
        }
        if (!blocking) return true;  // pump: nothing ready right now
        continue;
      }
    }
    out->entry = e;

    // Companion collection from the SAME model's queue (batches are
    // single-model), under the controller's *effective* knobs — this is
    // where SLO-aware batching differs from the static policy.
    const int max_batch = e->controller.effective_max_batch();
    const std::int64_t wait_us = e->controller.effective_wait_us();
    auto took_one = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      if (queued_hint_ > 0) --queued_hint_;
    };
    if (!blocking || wait_us <= 0) {
      while (static_cast<int>(out->items.size()) < max_batch) {
        auto item = e->queue.try_pop();
        if (!item.has_value()) break;
        out->items.push_back(std::move(*item));
        took_one();
      }
    } else {
      const auto deadline = clock::now() + std::chrono::microseconds(wait_us);
      while (static_cast<int>(out->items.size()) < max_batch) {
        auto item = e->queue.pop_until(deadline);
        if (!item.has_value()) break;  // timed out, or closed and drained
        out->items.push_back(std::move(*item));
        took_one();
      }
    }
    return true;
  }
}

namespace {

/// Throws triad::Error when `req` does not fit the model's inputs — the
/// per-request form of collate()'s checks, so one malformed request fails
/// alone instead of taking its whole batch down with it.
void check_request(const std::string& model, std::int64_t feature_cols,
                   std::int64_t pseudo_cols, const InferenceRequest& req) {
  TRIAD_CHECK(req.graph != nullptr,
              "model '" << model << "': request has no graph");
  TRIAD_CHECK(req.features.defined(),
              "model '" << model << "': request has no features");
  TRIAD_CHECK_EQ(req.features.rows(), req.graph->num_vertices(),
                 "model '" << model << "': feature rows");
  TRIAD_CHECK_EQ(req.features.cols(), feature_cols,
                 "model '" << model << "': feature width");
  if (pseudo_cols == 0) {
    TRIAD_CHECK(!req.pseudo.defined(),
                "model '" << model << "' takes no pseudo-coordinates but the "
                                      "request carries them");
    return;
  }
  TRIAD_CHECK(req.pseudo.defined(),
              "model '" << model << "' takes pseudo-coordinates but the "
                                    "request carries none");
  TRIAD_CHECK_EQ(req.pseudo.rows(), req.graph->num_edges(),
                 "model '" << model << "': pseudo rows");
  TRIAD_CHECK_EQ(req.pseudo.cols(), pseudo_cols,
                 "model '" << model << "': pseudo width");
}

}  // namespace

void ServingHost::serve_batch(Entry& e, std::vector<Pending>& batch) {
  // Malformed requests fail alone, before collation; the rest ride on.
  std::size_t kept = 0;
  for (Pending& p : batch) {
    try {
      check_request(e.name, e.feature_cols, e.pseudo_cols, p.request);
    } catch (...) {
      p.promise.set_exception(std::current_exception());
      continue;
    }
    if (&p != &batch[kept]) batch[kept] = std::move(p);
    ++kept;
  }
  if (kept < batch.size()) {
    std::lock_guard<std::mutex> lock(e.mu);
    e.stats.failed += static_cast<std::uint64_t>(batch.size() - kept);
    e.last_done = std::max(e.last_done, clock_.seconds());
    batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(kept), batch.end());
  }
  if (batch.empty()) return;

  Timer exec;
  CounterScope scope;
  const int batch_size = static_cast<int>(batch.size());
  // Promises fulfilled so far: on a mid-loop failure the catch block must
  // only set_exception on the remainder (set_exception on an already
  // satisfied promise throws out of the handler and would kill the worker).
  std::size_t fulfilled = 0;
  try {
    // One snapshot per batch: the whole batch binds these weights, so a
    // concurrent reload() flips between batches, never inside one.
    std::shared_ptr<const std::vector<Tensor>> weights;
    ModelBuilder builder;
    {
      std::lock_guard<std::mutex> lock(e.mu);
      weights = e.weights;
      builder = e.builder;
    }

    std::vector<const InferenceRequest*> requests;
    requests.reserve(batch.size());
    for (const Pending& p : batch) requests.push_back(&p.request);
    CollatedBatch cb = collate(requests, &e.pool);

    // One plan per (model, batch shape), ever — and the plan is
    // weight-independent: reload() never touches this cache.
    const PlanKey key{e.name,           e.opts.strategy.name,
                      /*training=*/false, cb.num_vertices(),
                      cb.num_edges(),   cb.features.cols()};
    std::shared_ptr<const Compiled> compiled =
        PlanCache::global().get_or_compile(key, e.opts.strategy, false,
                                           *cb.graph, builder);
    TRIAD_CHECK(compiled->params.size() == weights->size(),
                "model '" << e.name << "': weight snapshot has "
                          << weights->size() << " tensors but the plan wants "
                          << compiled->params.size());

    PlanRunner runner(*cb.graph, compiled->plan, &e.pool);
    std::shared_ptr<const Partitioning> partition;
    if (e.opts.shards > 0) {
      partition = std::make_shared<const Partitioning>(Partitioning::build(
          *cb.graph, e.opts.shards, e.opts.partition_strategy));
      runner.set_partitioning(partition.get());
    }
    runner.bind(compiled->features, cb.features);
    if (compiled->pseudo >= 0) runner.bind(compiled->pseudo, cb.pseudo);
    // The weight snapshot, not compiled->init: hot reload swaps payloads
    // while the immutable plan (and its cache entry) stays untouched.
    for (std::size_t i = 0; i < compiled->params.size(); ++i) {
      runner.bind(compiled->params[i], (*weights)[i]);
    }
    runner.run();
    Tensor out = runner.take_result(compiled->output);

    // Do all throwing work (de-collation allocates) before fulfilling the
    // first promise, so a failure here still fails the whole batch uniformly.
    const double batch_seconds = exec.seconds();
    std::vector<InferenceResult> results;
    results.reserve(batch.size());
    for (int i = 0; i < batch_size; ++i) {
      InferenceResult res;
      res.output = decollate(out, cb.ranges[static_cast<std::size_t>(i)],
                             MemTag::kActivations, &global_pool_mem());
      res.latency_seconds =
          clock_.seconds() - batch[static_cast<std::size_t>(i)].submit_seconds;
      res.batch_seconds = batch_seconds;
      res.batch_size = batch_size;
      results.push_back(std::move(res));
    }
    for (; fulfilled < batch.size(); ++fulfilled) {
      e.latency.record(results[fulfilled].latency_seconds);
      batch[fulfilled].promise.set_value(std::move(results[fulfilled]));
    }
    {
      std::lock_guard<std::mutex> lock(e.mu);
      e.stats.completed += static_cast<std::uint64_t>(batch_size);
      ++e.stats.batches;
      const auto b = static_cast<std::size_t>(batch_size);
      if (b < e.stats.batch_size_hist.size()) ++e.stats.batch_size_hist[b];
      e.stats.busy_seconds += batch_seconds;
      e.stats.counters += scope.delta();
      e.last_done = std::max(e.last_done, clock_.seconds());
    }
    // Close the feedback loop: feed the recent tail to the controller. Done
    // after the stats update so a snapshot taken right after a request
    // resolves already sees the adjusted knobs.
    const SloPolicy& slo = e.controller.policy();
    if (slo.enabled && e.latency.count() >= slo.min_samples) {
      e.controller.observe_p99(e.latency.percentile_recent(99.0, slo.window));
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (std::size_t i = fulfilled; i < batch.size(); ++i) {
      batch[i].promise.set_exception(error);
    }
    std::lock_guard<std::mutex> lock(e.mu);
    e.stats.failed += static_cast<std::uint64_t>(batch.size() - fulfilled);
    e.stats.completed += static_cast<std::uint64_t>(fulfilled);
    ++e.stats.batches;
    e.stats.busy_seconds += exec.seconds();
    e.stats.counters += scope.delta();
    e.last_done = std::max(e.last_done, clock_.seconds());
  }
}

void ServingHost::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    // Queues are closed under mu_ so a worker that observes closed_ also
    // observes every queue refusing new work; pending items stay poppable.
    for (const auto& e : entries_) e->queue.close();
    work_cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(join_mu_);
  if (joined_) return;
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  joined_ = true;
}

ServerStats ServingHost::snapshot(const Entry& e) const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(e.mu);
    s = e.stats;
    if (e.first_submit >= 0 && e.last_done > e.first_submit) {
      s.wall_seconds = e.last_done - e.first_submit;
    }
  }
  s.queue_depth = e.queue.size();
  s.pool_peak_bytes = e.pool.peak_bytes();
  s.peak_workers = e.peak_active.load(std::memory_order_relaxed);
  s.latency = e.latency.snapshot();
  s.slo_shrinks = e.controller.shrinks();
  s.slo_grows = e.controller.grows();
  s.eff_max_wait_us = e.controller.effective_wait_us();
  s.eff_max_batch = e.controller.effective_max_batch();
  return s;
}

ServerStats ServingHost::stats(const std::string& model) const {
  return snapshot(entry(model));
}

HostStats ServingHost::stats() const {
  std::vector<const Entry*> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(entries_.size());
    for (const auto& e : entries_) all.push_back(e.get());
  }
  HostStats h;
  for (const Entry* e : all) {
    ServerStats s = snapshot(*e);
    h.total.submitted += s.submitted;
    h.total.completed += s.completed;
    h.total.rejected += s.rejected;
    h.total.shed += s.shed;
    h.total.failed += s.failed;
    h.total.batches += s.batches;
    h.total.reloads += s.reloads;
    h.total.slo_shrinks += s.slo_shrinks;
    h.total.slo_grows += s.slo_grows;
    h.total.busy_seconds += s.busy_seconds;
    h.total.wall_seconds = std::max(h.total.wall_seconds, s.wall_seconds);
    h.total.queue_depth += s.queue_depth;
    h.total.pool_peak_bytes += s.pool_peak_bytes;
    // Peaks of different models need not coincide in time; the max is the
    // only honest aggregate.
    h.total.peak_workers = std::max(h.total.peak_workers, s.peak_workers);
    h.total.counters += s.counters;
    // Percentiles do not compose across models; merge the composable part.
    h.total.latency.count += s.latency.count;
    h.total.latency.sum += s.latency.sum;
    if (s.latency.count > 0) {
      h.total.latency.min = h.total.latency.min == 0
                                ? s.latency.min
                                : std::min(h.total.latency.min, s.latency.min);
      h.total.latency.max = std::max(h.total.latency.max, s.latency.max);
    }
    h.models.emplace(e->name, std::move(s));
  }
  return h;
}

std::vector<std::string> ServingHost::models() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& e : entries_) names.push_back(e->name);
  return names;
}

}  // namespace triad::serve
