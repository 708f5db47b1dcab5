#include "transport/param_server.h"

#include <cstdint>
#include <cstring>

#include "support/counters.h"
#include "support/macros.h"
#include "tensor/ops.h"

namespace triad::transport {

ParamServer::ParamServer(std::vector<Tensor> params)
    : params_(std::move(params)) {}

void ParamServer::set_optimizer(std::unique_ptr<Optimizer> opt) {
  optimizer_ = std::move(opt);
  if (optimizer_ != nullptr) {
    optimizer_->attach(params_);
    ++attach_calls_;
  }
}

void ParamServer::push_grads(const std::vector<const Tensor*>& grads,
                             float lr) {
  TRIAD_CHECK_EQ(grads.size(), params_.size(),
                 "param server: gradient count mismatch");
  std::uint64_t pushed = 0;
  for (std::size_t i = 0; i < grads.size(); ++i) {
    TRIAD_CHECK_EQ(grads[i]->bytes(), params_[i].bytes(),
                   "param server: gradient size");
    pushed += grads[i]->bytes();
  }
  if (optimizer_ != nullptr) {
    optimizer_->step(params_, grads);
  } else {
    for (std::size_t i = 0; i < params_.size(); ++i)
      ops::axpy(params_[i], *grads[i], -lr);
  }
  PerfCounters& c = global_counters();
  c.transport_msgs += grads.size();
  c.transport_bytes += pushed;
  c.param_push_bytes += pushed;
}

void ParamServer::pull_params(std::vector<Tensor>& dst) {
  TRIAD_CHECK_EQ(dst.size(), params_.size(),
                 "param server: destination count mismatch");
  std::uint64_t pulled = 0;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    TRIAD_CHECK_EQ(dst[i].bytes(), params_[i].bytes(),
                   "param server: parameter size");
    std::memcpy(dst[i].data(), params_[i].data(), params_[i].bytes());
    pulled += params_[i].bytes();
  }
  PerfCounters& c = global_counters();
  c.transport_msgs += params_.size() + 1;  // the request, then one reply each
  c.transport_bytes += pulled;
  c.param_pull_bytes += pulled;
}

}  // namespace triad::transport
