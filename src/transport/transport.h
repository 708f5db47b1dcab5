/// \file
/// Transport: the message-passing seam between trainers and the param server.
///
/// The gradient push / parameter pull flow runs behind typed channels with
/// explicit send/recv/close and per-fabric message/byte counters,
/// Dorylus-style: workers and a weight server communicating by messages.
/// Boundary combines between shards stay direct shared-memory reads. The
/// in-process LocalTransport below preserves exact execution (zero-copy
/// payload views, deterministic delivery order, bit-identical results); a
/// socket transport can later implement the same interface without touching
/// the trainer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "support/queue.h"

namespace triad::transport {

/// One message on a channel. For the in-process transport `data` is a
/// zero-copy view into sender-owned memory (e.g. a gradient tensor);
/// receivers must consume it before the sender's next step. `bytes` is the
/// modeled wire size — what a socket transport would serialize — and is what
/// the transport counters account, whether or not `data` is set.
struct TransportMessage {
  int src = -1;                 ///< sending endpoint
  int dst = -1;                 ///< receiving endpoint
  std::uint32_t tag = 0;        ///< caller-defined message kind / index
  const void* data = nullptr;   ///< zero-copy payload view (may be null)
  std::size_t bytes = 0;        ///< modeled payload size on the wire
};

/// Message/byte totals of one fabric. Snapshots subtract, so callers charge
/// per-run deltas into PerfCounters on their own thread (the counter ledger
/// is thread-local; sends may happen on pool workers).
struct TransportStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// One ordered (src, dst) endpoint pair's typed lane. send() never blocks on
/// the in-process fabric; recv()/try_recv() are the pull-mode consumer side
/// (an empty optional means closed-and-drained / nothing pending).
class Channel {
 public:
  virtual ~Channel() = default;
  virtual bool send(const TransportMessage& m) = 0;
  virtual std::optional<TransportMessage> recv() = 0;
  virtual std::optional<TransportMessage> try_recv() = 0;
  virtual void close() = 0;
  virtual int src() const = 0;
  virtual int dst() const = 0;
};

/// A fabric of N endpoints with one channel per ordered pair (for the param
/// server: one of {worker, server}).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual int num_endpoints() const = 0;
  virtual Channel& channel(int src, int dst) = 0;
  virtual void close() = 0;
  virtual TransportStats stats() const = 0;
};

/// In-process Transport over BoundedQueue channels.
///
/// Two delivery modes:
///  * Pull mode (default): send() enqueues, the receiver drains with
///    recv()/try_recv(). The param server's request/reply traffic runs this
///    way.
///  * Push mode: set_delivery(endpoint, fn) installs a completion handler —
///    send() then invokes it inline on the sender's thread instead of
///    queuing (the in-process analogue of a socket read callback). Hooks
///    must be installed/cleared only while no sends are in flight.
///
/// Counters are fabric-wide atomics (sends happen on pool threads); callers
/// snapshot stats() around a run and charge the delta into the thread-local
/// PerfCounters ledger.
class LocalTransport final : public Transport {
 public:
  using DeliveryFn = std::function<void(const TransportMessage&)>;

  explicit LocalTransport(int endpoints, std::size_t channel_capacity = 64);
  ~LocalTransport() override;  ///< out of line: LocalChannel is incomplete here

  int num_endpoints() const override { return endpoints_; }
  Channel& channel(int src, int dst) override;
  void close() override;
  TransportStats stats() const override;

  /// Installs the push-mode handler for messages addressed to `endpoint`.
  void set_delivery(int endpoint, DeliveryFn fn);
  /// Returns every endpoint to pull mode.
  void clear_delivery();

 private:
  class LocalChannel;
  friend class LocalChannel;

  int endpoints_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<LocalChannel>> channels_;  ///< [src * N + dst]
  std::vector<DeliveryFn> delivery_;                     ///< per endpoint
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace triad::transport
