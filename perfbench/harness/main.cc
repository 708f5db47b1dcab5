// perfbench: the repository benchmark's measuring harness.
//
//   perfbench --workload {train-skew|train-dense|serve-mix} --seed N
//             --seconds S --trace {0|1} --out FILE [--perturb]
//
// Writes a raw-result JSON document to FILE; perfbench/run.py builds this
// binary, runs it and reduces the document to the benchmark's metrics.
// Exit status: 0 when the document was written (its checks say whether the
// outputs were correct), 2 on bad arguments or an unwritable FILE.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

using namespace perfbench;

namespace {

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--perturb") {
      o->perturb = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      o->out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument %s\n",
                   a.c_str());
      return false;
    }
  }
  return !o->workload.empty() && !o->out.empty() && o->seconds > 0;
}

/// The machine's speed at the time: the median of 5 timings of a fixed
/// single-thread loop over 32 MiB (more than a core's L2, so it also feels
/// memory contention from other tenants). On a shared machine this moves
/// for minutes at a time and moves every metric with it.
double machine_probe_ms() {
  std::vector<float> buf(std::size_t{1} << 23, 1.0f);
  const std::size_t mask = buf.size() - 1;
  std::vector<double> ms;
  float acc = 0;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < buf.size(); ++i) acc += buf[i] * buf[(i * 7) & mask];
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  volatile float sink = acc;
  (void)sink;
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE [--perturb]\n");
    return 2;
  }
  Report rep;
  Tracer tracer(opt.trace);
  rep.record["workload"] = opt.workload;
  rep.record["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.record_num["seed"] = opt.seed;
  rep.record_num["seconds"] = opt.seconds;
  rep.record_num["trace"] = opt.trace ? 1 : 0;
  rep.record_num["nproc"] = std::thread::hardware_concurrency();
  rep.record_num["machine_probe_ms_start"] = machine_probe_ms();

  int status = 0;
  try {
    if (opt.workload == "train-skew" || opt.workload == "train-dense") {
      status = run_train(opt, rep, tracer);
    } else if (opt.workload == "serve-mix") {
      status = run_serve(opt, rep, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    rep.check("no_exception", false, e.what());
  }
  rep.record_num["machine_probe_ms_end"] = machine_probe_ms();
  if (!rep.write(opt.out, tracer)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.out.c_str());
    return 2;
  }
  return status;
}
