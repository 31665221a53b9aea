// cerl_bench — end-to-end benchmark of the CERL stream engine.
//
//   cerl_bench --workload catchup|skewed_open|serve_durable --seed N
//              --seconds S --trace 0|1 [--out-dir DIR] [--tiny]
//              [--perturb query|fingerprint|accounting|pehe]
//
// Prints the run context, every metric with its unit and sample count, and
// (traced runs) per-span totals with self time; the last line is one JSON
// object with every metric. A failed correctness check prints the failures
// and a result with "correct": false and no metrics, and exits 1. An
// infrastructure error (bad flag, IO) exits 2 without a result line.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "linalg/simd.h"

namespace {

using cerl::bench::Perturb;
using cerl::bench::Report;
using cerl::bench::RunOptions;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "cerl_bench: %s\nusage: cerl_bench --workload "
               "catchup|skewed_open|serve_durable --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--tiny] [--perturb "
               "query|fingerprint|accounting|pehe]\n",
               why.c_str());
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
      if (!(o.seconds > 0.0)) Usage("--seconds must be positive");
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--perturb") {
      const std::string p = value();
      if (p == "query") {
        o.perturb = Perturb::kQuery;
      } else if (p == "fingerprint") {
        o.perturb = Perturb::kFingerprint;
      } else if (p == "accounting") {
        o.perturb = Perturb::kAccounting;
      } else if (p == "pehe") {
        o.perturb = Perturb::kPehe;
      } else {
        Usage("unknown --perturb " + p);
      }
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (!have_workload) Usage("--workload is required");
  o.nproc = Nproc();
  return o;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintSpanSummary(const std::vector<cerl::bench::Tracer::Span>& spans) {
  const std::vector<double> self = cerl::bench::Tracer::SelfMs(spans);
  struct Sum {
    double total_ms = 0.0, self_ms = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, Sum> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    Sum& s = by_name[spans[i].name];
    s.total_ms += (spans[i].end_ns - spans[i].start_ns) * 1e-6;
    s.self_ms += self[i];
    ++s.count;
  }
  for (const auto& [name, s] : by_name) {
    std::printf("span %-28s total %12.3f ms  self %12.3f ms  count %lld\n",
                name.c_str(), s.total_ms, s.self_ms,
                static_cast<long long>(s.count));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions o = ParseArgs(argc, argv);
  Report report;
  report.Context("workload", o.workload);
  report.Context("seed", std::to_string(o.seed));
  report.Context("seconds", JsonNumber(o.seconds));
  report.Context("trace", o.trace ? "1" : "0");
  report.Context("nproc", std::to_string(o.nproc));
  report.Context("simd_kernels", cerl::linalg::simd::Kernels().name);
  report.Context("compiler", CERL_BENCH_COMPILER);
  report.Context("build_type", CERL_BENCH_BUILD_TYPE);
  const cerl::bench::HostTicks host0 = cerl::bench::SampleHostTicks();
  try {
    if (o.workload == "catchup") {
      cerl::bench::RunCatchup(o, &report);
    } else if (o.workload == "skewed_open") {
      cerl::bench::RunSkewedOpen(o, &report);
    } else if (o.workload == "serve_durable") {
      cerl::bench::RunServeDurable(o, &report);
    } else {
      Usage("unknown workload " + o.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cerl_bench: %s\n", e.what());
    return 2;
  }

  // Host CPU time stolen from this machine while the run went on: the
  // main source of run-to-run spread on a shared virtual machine.
  const cerl::bench::HostTicks host1 = cerl::bench::SampleHostTicks();
  const int64_t ticks = host1.total - host0.total;
  report.Context("host_steal",
                 JsonNumber(ticks > 0 ? static_cast<double>(host1.steal -
                                                            host0.steal) /
                                            ticks
                                      : 0.0));
  for (const auto& [key, value] : report.context()) {
    std::printf("context %s = %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, m] : report.metrics()) {
    std::printf("metric %-30s %16.6f %-10s n=%lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  if (o.trace) {
    const auto spans = cerl::bench::Tracer::Collect();
    PrintSpanSummary(spans);
    const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (!cerl::bench::Tracer::WriteChromeJson(spans, path)) {
      std::fprintf(stderr, "cerl_bench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("trace %s (%zu spans)\n", path.c_str(), spans.size());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.failures().empty();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  if (correct) {
    bool first = true;
    for (const auto& [name, m] : report.metrics()) {
      json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
              JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) +
              ", \"samples\": " + std::to_string(m.samples) + "}";
      first = false;
    }
  }
  json += "}, \"context\": {";
  bool first = true;
  for (const auto& [key, value] : report.context()) {
    json += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
