#include "models/trainer.h"

#include "support/timer.h"
#include "tensor/ops.h"
#include "transport/param_server.h"

namespace triad {

namespace {

// Models compiled without graph dimensions carry no plan; compile one here
// (once, at construction) so the step loop itself stays analysis-free.
std::shared_ptr<const ExecutionPlan> plan_of(const Compiled& model,
                                             const Graph& graph) {
  if (model.plan != nullptr) return model.plan;
  return ExecutionPlan::compile_shared(model.ir, graph.num_vertices(),
                                       graph.num_edges());
}

}  // namespace

Trainer::Trainer(std::shared_ptr<const Compiled> model, const Graph& graph,
                 Tensor features, Tensor pseudo, MemoryPool* pool)
    : model_(std::move(model)), runner_(graph, plan_of(*model_, graph), pool) {
  runner_.bind(model_->features, std::move(features));
  if (model_->pseudo >= 0) {
    TRIAD_CHECK(pseudo.defined(), "model expects pseudo-coordinates");
    runner_.bind(model_->pseudo, std::move(pseudo));
  }
  weights_.reserve(model_->params.size());
  for (std::size_t i = 0; i < model_->params.size(); ++i) {
    weights_.push_back(model_->init[i].clone(MemTag::kWeights, pool));
    runner_.bind(model_->params[i], weights_.back());
  }
  if (!model_->param_grads.empty()) {
    // The server gets its own clones of the initial weights — identical
    // values to weights_, so pulled weights are bit-for-bit what an in-place
    // update of weights_ would produce.
    std::vector<Tensor> server_params;
    server_params.reserve(model_->init.size());
    for (const Tensor& w : model_->init)
      server_params.push_back(w.clone(MemTag::kWeights, pool));
    param_server_ =
        std::make_unique<transport::ParamServer>(std::move(server_params));
  }
  if (model_->partition != nullptr) enable_sharding(model_->partition);
}

Trainer::~Trainer() = default;

void Trainer::enable_sharding(std::shared_ptr<const Partitioning> part) {
  partition_ = std::move(part);
  runner_.set_partitioning(partition_.get());
}

Trainer::Trainer(Compiled model, const Graph& graph, Tensor features,
                 Tensor pseudo, MemoryPool* pool)
    : Trainer(std::make_shared<const Compiled>(std::move(model)), graph,
              std::move(features), std::move(pseudo), pool) {}

StepMetrics Trainer::train_step(const IntTensor& labels, float lr) {
  TRIAD_CHECK_GE(model_->seed, 0, "model was compiled for inference only");
  StepMetrics m;
  runner_.pool().reset_peak();
  CounterScope scope;
  Timer timer;

  runner_.run_forward();
  const Tensor& out = runner_.result(model_->output);
  Tensor seed(out.rows(), out.cols(), MemTag::kGradient, &runner_.pool());
  m.loss = ops::softmax_cross_entropy(out, labels, &seed);
  runner_.bind(model_->seed, std::move(seed));
  runner_.run_backward();

  // The server applies the update (its optimizer or plain SGD) to its
  // authoritative copies; pulling writes the fresh weights into weights_,
  // whose storage the runner's param slots alias. A parameterless model has
  // no server and nothing to update.
  if (param_server_ != nullptr) {
    std::vector<const Tensor*> grads;
    grads.reserve(weights_.size());
    for (int gnode : model_->param_grads) grads.push_back(&runner_.result(gnode));
    param_server_->push_grads(grads, lr);
    param_server_->pull_params(weights_);
  }

  m.seconds = timer.seconds();
  m.counters = scope.delta();
  m.peak_bytes = runner_.pool().peak_bytes();
  return m;
}

StepMetrics Trainer::forward(const IntTensor& labels) {
  StepMetrics m;
  runner_.pool().reset_peak();
  CounterScope scope;
  Timer timer;
  runner_.run_forward();
  const Tensor& out = runner_.result(model_->output);
  // Headless ablation models (classify_last=false) emit embeddings, not
  // logits; loss is undefined there and irrelevant to forward-only timing.
  std::int32_t max_label = 0;
  for (std::int64_t r = 0; r < labels.rows(); ++r) {
    max_label = std::max(max_label, labels.at(r, 0));
  }
  if (max_label < out.cols()) {
    m.loss = ops::softmax_cross_entropy(out, labels, nullptr);
  }
  m.seconds = timer.seconds();
  m.counters = scope.delta();
  m.peak_bytes = runner_.pool().peak_bytes();
  return m;
}

void Trainer::set_optimizer(std::unique_ptr<Optimizer> opt) {
  TRIAD_CHECK(param_server_ != nullptr, "model has no parameters to train");
  // Optimizer state (momentum, Adam moments) lives with the parameters — on
  // the server. attach() runs there, against the server's tensors.
  param_server_->set_optimizer(std::move(opt));
}

float Trainer::evaluate(const IntTensor& labels) {
  runner_.run_forward();
  return ops::accuracy(runner_.result(model_->output), labels);
}

}  // namespace triad
