// Determinism at benchmark scale: one GAT training step (2 layers, 128
// hidden) on the Reddit-like graph of the train-skew benchmark (|V| = 466,
// |E| ~ 229k) must give the same logits and parameter gradients, bit for
// bit, under specialized cores and under the interpreter alone, for shard
// counts K ∈ {0, 4} and pool sizes ∈ {1, 4}. Every per-kernel loop range
// here is far above the parallel_for grain, so chunks really are spread over
// the pool's threads.
//
// The global pool is sized once, at its first use. So each pool size runs in
// a forked child that sizes the pool before anything touches it and streams
// its results back through a pipe; the parent never uses the pool.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "api/models.h"
#include "baselines/strategy.h"
#include "graph/datasets.h"
#include "models/models.h"
#include "models/trainer.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace triad {
namespace {

/// Logits, then every parameter gradient, of one configuration.
using Outputs = std::vector<std::vector<float>>;

struct Config {
  const char* name;
  Strategy (*strategy)();
  int shards;
};
const Config kConfigs[] = {{"ours", ours, 0},
                           {"ours", ours, 4},
                           {"ours_no_specialize", ours_no_specialize, 0},
                           {"ours_no_specialize", ours_no_specialize, 4}};

std::vector<float> flat(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

Outputs train_one_step(const Dataset& data, const Config& c) {
  GatConfig cfg;
  cfg.in_dim = data.features.cols();
  cfg.hidden = 128;
  cfg.heads = 1;
  cfg.layers = 2;
  cfg.num_classes = data.num_classes;
  Rng rng(7);  // identical weights in every configuration
  Compiled compiled = compile_model(api::Gat(cfg).build(rng), c.strategy(),
                                    /*training=*/true, data.graph, c.shards);
  MemoryPool pool;
  Trainer trainer(std::move(compiled), data.graph,
                  data.features.clone(MemTag::kInput, &pool), Tensor{}, &pool);
  trainer.train_step(data.labels, /*lr=*/0.f);
  Outputs out{flat(trainer.logits())};
  for (int g : trainer.model().param_grads) {
    out.push_back(flat(trainer.runner().result(g)));
  }
  return out;
}

bool write_all(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = write(fd, c, n);
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Child body: sizes the pool, runs every configuration, and writes each
/// tensor as (numel, floats) to `fd`.
bool run_child(unsigned threads, int fd) {
  if (!set_global_pool_threads(threads)) return false;
  Rng rng(1);
  const Dataset data = make_dataset("reddit", rng, 0.002, 0.25);
  for (const Config& c : kConfigs) {
    for (const std::vector<float>& t : train_one_step(data, c)) {
      const std::uint64_t n = t.size();
      if (!write_all(fd, &n, sizeof n) ||
          !write_all(fd, t.data(), n * sizeof(float))) {
        return false;
      }
    }
  }
  return true;
}

/// Forks a child with a `threads`-worker pool; returns its byte stream.
std::string run_in_child(unsigned threads) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    bool ok = false;
    try {
      ok = run_child(threads, fds[1]);
    } catch (...) {
    }
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (ssize_t k; (k = read(fds[0], buf, sizeof buf)) > 0;) bytes.append(buf, k);
  close(fds[0]);
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child with " << threads << " threads failed";
  return bytes;
}

/// Splits a child's stream into one Outputs per configuration.
std::vector<Outputs> parse(const std::string& bytes) {
  std::vector<std::vector<float>> tensors;
  for (std::size_t at = 0; at + sizeof(std::uint64_t) <= bytes.size();) {
    std::uint64_t n = 0;
    std::memcpy(&n, bytes.data() + at, sizeof n);
    at += sizeof n;
    if (n > (bytes.size() - at) / sizeof(float)) break;  // truncated stream
    std::vector<float> t(n);
    std::memcpy(t.data(), bytes.data() + at, n * sizeof(float));
    at += n * sizeof(float);
    tensors.push_back(std::move(t));
  }
  const std::size_t per = tensors.size() / std::size(kConfigs);
  std::vector<Outputs> out;
  for (std::size_t c = 0; c < std::size(kConfigs); ++c) {
    out.emplace_back(tensors.begin() + c * per, tensors.begin() + (c + 1) * per);
  }
  return out;
}

TEST(Determinism, GatStepBitIdenticalAtBenchmarkScale) {
  std::vector<Outputs> runs;
  std::vector<std::string> labels;
  for (const unsigned threads : {1u, 4u}) {
    const std::vector<Outputs> r = parse(run_in_child(threads));
    ASSERT_EQ(r.size(), std::size(kConfigs));
    for (std::size_t c = 0; c < r.size(); ++c) {
      runs.push_back(r[c]);
      labels.push_back(std::string(kConfigs[c].name) + " K=" +
                       std::to_string(kConfigs[c].shards) + " threads=" +
                       std::to_string(threads));
    }
  }
  const Outputs& ref = runs[0];
  ASSERT_GE(ref.size(), 2u) << "no parameter gradients";
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), ref.size()) << labels[r];
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const std::string what = i == 0 ? "logits" : "grad " + std::to_string(i - 1);
      ASSERT_EQ(runs[r][i].size(), ref[i].size()) << labels[r] << " " << what;
      EXPECT_EQ(std::memcmp(runs[r][i].data(), ref[i].data(),
                            ref[i].size() * sizeof(float)),
                0)
          << labels[r] << " " << what << " differs from " << labels[0];
    }
  }
}

}  // namespace
}  // namespace triad
