#include "support/counters.h"

#include <array>
#include <cstdio>

namespace triad {

PerfCounters& global_counters() {
  // Thread-local: kernels charge analytically on the calling thread (never
  // inside parallel_for workers), so each request thread owns its ledger and
  // concurrent PlanRunners neither race nor pollute each other's deltas.
  thread_local PerfCounters counters;
  return counters;
}

std::string human_bytes(std::uint64_t bytes) {
  static const std::array<const char*, 5> units = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  std::size_t u = 0;
  while (v >= 1024.0 && u + 1 < units.size()) {
    v /= 1024.0;
    ++u;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f %s", v, units[u]);
  return buf;
}

std::string human_count(std::uint64_t n) {
  static const std::array<const char*, 4> units = {"", "K", "M", "G"};
  double v = static_cast<double>(n);
  std::size_t u = 0;
  while (v >= 1000.0 && u + 1 < units.size()) {
    v /= 1000.0;
    ++u;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f%s", v, units[u]);
  return buf;
}

std::string PerfCounters::to_string() const {
  std::string out = "io=" + human_bytes(io_bytes());
  for_each([&](const char* name, std::uint64_t v, CounterKind kind) {
    out += std::string(" ") + name + "=";
    switch (kind) {
      case CounterKind::Bytes:
        out += human_bytes(v);
        break;
      case CounterKind::Count:
        out += human_count(v);
        break;
      case CounterKind::Ns:
        out += human_count(v) + "ns";
        break;
      case CounterKind::Int:
        out += std::to_string(v);
        break;
    }
  });
  return out;
}

}  // namespace triad
