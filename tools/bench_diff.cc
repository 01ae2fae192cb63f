// bench_diff — A/B regression gate over two BENCH_*.json files.
//
// Usage:
//   bench_diff BASELINE.json CURRENT.json
//
// Compares the deterministic counters and gauges of the embedded obs
// reports: drift of more than 10% in either direction flags, `.bytes` /
// `.bytes_peak` gauges flag on growth only, and `thread_pool.*` /
// `process.*` are skipped as scheduling-dependent. Timings are not
// compared; timing claims come from bench/ledger.
//
// Exit status: 0 = within threshold, 1 = regression(s) found, 2 = usage
// or parse error. Designed for CI: run the bench, then diff against the
// committed baseline.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/bench_diff.h"

namespace {

using namespace autofeat;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bench_diff BASELINE.json CURRENT.json\n"
               "exit: 0 = ok, 1 = regression, 2 = usage/parse error\n");
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    PrintUsage();
    return 2;
  }
  const std::string baseline_path = argv[1];
  const std::string current_path = argv[2];

  std::string baseline_json, current_json;
  if (!ReadFile(baseline_path, &baseline_json)) {
    std::fprintf(stderr, "cannot read %s\n", baseline_path.c_str());
    return 2;
  }
  if (!ReadFile(current_path, &current_json)) {
    std::fprintf(stderr, "cannot read %s\n", current_path.c_str());
    return 2;
  }

  auto report = obs::DiffBenchReports(baseline_json, current_json);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s", report->Summary().c_str());
  if (!report->ok()) {
    std::printf("FAIL: %zu regression(s) against %s\n",
                report->num_regressions(), baseline_path.c_str());
    return 1;
  }
  std::printf("OK: no regressions against %s\n", baseline_path.c_str());
  return 0;
}
