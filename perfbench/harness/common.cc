#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision number; non-finite values become null, which run.py
/// treats as a failed measurement.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool Report::write(const std::string& path, const Tracer& tracer) const {
  std::string j = "{\n\"record\": {";
  bool first = true;
  for (const auto& [k, v] : record) {
    j += (first ? "" : ", ") + quoted(k) + ": " + quoted(v);
    first = false;
  }
  for (const auto& [k, v] : record_num) {
    j += (first ? "" : ", ") + quoted(k) + ": " + number(v);
    first = false;
  }
  j += "},\n\"attempted\": " + std::to_string(attempted) +
       ",\n\"failed\": " + std::to_string(failed) + ",\n\"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    j += std::string(i ? ",\n  " : "\n  ") + "{\"name\": " +
         quoted(checks[i].name) +
         ", \"ok\": " + (checks[i].ok ? "true" : "false") +
         ", \"detail\": " + quoted(checks[i].detail) + "}";
  }
  j += "],\n\"samples\": {";
  first = true;
  for (const auto& [k, vs] : samples) {
    j += std::string(first ? "\n  " : ",\n  ") + quoted(k) + ": [";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      j += (i ? ", " : "") + number(vs[i]);
    }
    j += "]";
    first = false;
  }
  j += "},\n\"values\": {";
  first = true;
  for (const auto& [k, v] : values) {
    j += std::string(first ? "\n  " : ",\n  ") + quoted(k) + ": " + number(v);
    first = false;
  }
  j += "},\n\"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    j += std::string(i ? ",\n  " : "\n  ") + "[" + quoted(s.name) + ", " +
         std::to_string(s.parent) + ", " + std::to_string(s.run) + ", " +
         number(s.t0 * 1e6) + ", " + number(s.t1 * 1e6) + "]";
  }
  j += "]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

bool same_bits(const float* a, std::int64_t a_rows, std::int64_t a_cols,
               const float* b, std::int64_t b_rows, std::int64_t b_cols) {
  if (a_rows != b_rows || a_cols != b_cols) return false;
  const auto bytes = static_cast<std::size_t>(a_rows * a_cols) * sizeof(float);
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

void flip_low_bit(float* x) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, x, sizeof bits);
  bits ^= 1u;
  std::memcpy(x, &bits, sizeof bits);
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {static_cast<double>(ru.ru_minflt), secs(ru.ru_utime),
          secs(ru.ru_stime)};
}

unsigned worker_budget() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

}  // namespace perfbench
