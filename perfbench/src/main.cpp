// Benchmark binary: runs one workload and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}. The run record
// goes to stderr (and to <out-dir>/run-<workload>-<seed>-trace<t>.json).
//
//   perfbench --workload khop_closed --seed 1 --seconds 10 --trace 0
//             [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "khop_closed|point_serve|khop_under_writes --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const auto w = perfbench::parse_workload(val);
      if (!w) return usage(("unknown workload " + val).c_str());
      cfg.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(cfg.seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("bad --trace");
      cfg.trace = val == "1";
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  const perfbench::RunResult r = perfbench::run_workload(cfg);

  std::string record = "{";
  for (std::size_t i = 0; i < r.record.size(); ++i) {
    record += (i ? ", \"" : "\"") + r.record[i].first + "\": " +
              r.record[i].second;
  }
  record += "}";
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::fprintf(stderr, "perfbench run record: %s\n", record.c_str());
  if (!cfg.out_dir.empty()) {
    const std::string path = cfg.out_dir + "/run-" +
                             perfbench::to_string(cfg.workload) + "-" +
                             std::to_string(cfg.seed) + "-trace" +
                             (cfg.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", record.c_str());
      std::fclose(f);
    }
  }

  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + perfbench::json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct() ? "true" : "false",
      static_cast<unsigned long long>(r.ops.attempted),
      static_cast<unsigned long long>(r.ops.failed), metrics.c_str());
  return 0;
}
