// Shared pieces of the benchmark harness: the in-memory span recorder, the
// raw-result document perfbench/run.py reduces, and the options. The
// harness measures; statistics (medians, nearest-rank percentiles, self
// times) are computed by run.py from the raw samples written here, so one
// implementation of them serves every workload and the comparison tool.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/timer.h"

namespace perfbench {

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Flip one bit of one checked output before comparing it: the output
  /// check must then fail (a self-test of the check itself).
  bool perturb = false;
  std::string out;  ///< where the raw-result JSON document goes
};

/// One recorded call into a layer: `name` is "<layer>.<function>", `run`
/// identifies the step or request the call served (-1 = set-up).
struct Span {
  std::string name;
  int parent = -1;
  long run = -1;
  double t0 = 0, t1 = 0;  ///< seconds on the tracer's clock
};

/// Keeps spans in memory; written out once at exit. Single-threaded: the
/// harness makes every traced call from its main thread. When off, scopes
/// record nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int begin(const char* name, long run) {
    spans_.push_back({name, open_, run, clock_.seconds(), 0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = clock_.seconds();
    open_ = s.parent;
    return s.t1 - s.t0;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  triad::Timer clock_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span. close() ends it early and returns its duration (0 when the
/// tracer is off).
class Scope {
 public:
  Scope(Tracer& t, const char* name, long run)
      : t_(t), id_(t.on() ? t.begin(name, run) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double close() {
    if (id_ < 0) return 0;
    const double d = t_.end(id_);
    id_ = -1;
    return d;
  }

 private:
  Tracer& t_;
  int id_;
};

/// The raw result of one harness run. `samples` hold every measured value
/// of a metric (run.py takes medians/percentiles); `values` are single
/// measured figures. End-to-end entries are filled in untraced runs, layer
/// entries in traced runs.
struct Report {
  std::map<std::string, std::string> record;  ///< run record, string values
  std::map<std::string, double> record_num;   ///< run record, numbers
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;

  /// Records an output check; a failed check counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    ++attempted;
    if (!ok) ++failed;
  }

  /// Writes the document (and, when traced, every span) as JSON.
  bool write(const std::string& path, const Tracer& tracer) const;
};

/// Bitwise equality of two float buffers (shape included): the output
/// check's notion of "the same result".
bool same_bits(const float* a, std::int64_t a_rows, std::int64_t a_cols,
               const float* b, std::int64_t b_rows, std::int64_t b_cols);

/// Flips the lowest mantissa bit of `*x` (the --perturb mutation).
void flip_low_bit(float* x);

/// Process resource usage since start: minor faults and CPU seconds.
struct Usage {
  double minflt = 0, user_s = 0, sys_s = 0;
};
Usage usage_now();

/// min(nproc, 4). Workloads run half of it as pool threads (training) or
/// host workers (serving): on a machine shared with other tenants the
/// slowest core sets the time of a step that uses every core, and with
/// half the cores the scheduler keeps the threads on the fast ones.
unsigned worker_budget();

int run_train(const Options& opt, Report& rep, Tracer& tr);
int run_serve(const Options& opt, Report& rep, Tracer& tr);

}  // namespace perfbench
