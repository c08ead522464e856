// castream_perfbench: one workload of the end-to-end benchmark per call.
//
//   castream_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-out FILE]
//
// Prints a one-line JSON report (every number the run measured, including
// the workload-specific end-to-end metrics and sample counts), then, as
// the last line, {"correct", "attempted", "failed", "metrics"} with the
// metrics as plain numbers: the end-to-end set (--trace 0) or the
// per-layer set (--trace 1). run.py checks those names against
// BENCHMARK.json and adds the units from it.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: castream_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

/// \brief A JSON number with all its digits (17 significant digits round-
/// trip a double exactly); non-finite values become null.
std::string JsonNumber(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// \brief A JSON object of plain-ASCII keys to numbers.
std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + JsonNumber(v);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = perfbench::KnownWorkload(value);
      if (!have_workload) {
        std::fprintf(stderr, "unknown workload: %s\n", value.c_str());
        return 2;
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  const perfbench::RunResult r = perfbench::RunWorkload(options);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: failed: %s\n", e.c_str());
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"report\": %s}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, JsonObject(r.report).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              JsonObject(r.metrics).c_str());
  return 0;
}
