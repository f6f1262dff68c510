// The benchmark's three workloads, driven from one process through the
// library's public entry points. Every wall time is taken on the
// benchmark's own steady clock, and every CPU time on the process CPU
// clock, around a public call; values the library models (sim time) carry
// `_sim_` in their names and are never end-to-end metrics. See perfbench/README.md for what each workload stresses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "stats.hpp"

namespace perfbench {

enum class Workload { kKhopClosed, kPointServe, kKhopUnderWrites };

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

struct Config {
  Workload workload = Workload::kKhopClosed;
  /// The workload seed. The dataset, query, arrival, mutation-trace and
  /// check-sample seeds all derive from it.
  std::uint64_t seed = 1;
  /// Length of the timed loop.
  double seconds = 10;
  /// Record spans and report per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory receiving the run record and (traced) the spans; empty
  /// writes nothing.
  std::string out_dir;

  /// FR-1B at scale 17 - scale_shift.
  int scale_shift = 0;
  /// Setups per run; setup_s is their median.
  std::size_t setup_reps = 3;

  // Closed-loop k-hop reads (khop_closed, khop_under_writes).
  std::size_t queries_per_request = 64;

  // point_serve: one run_query_service call per request.
  std::size_t arrivals_per_request = 1000;

  // khop_under_writes: cycles of epochs replayed from the pristine shards.
  std::size_t epochs_per_cycle = 8;
  std::size_t ops_per_epoch = 10000;
  std::size_t reads_per_epoch = 4;
  /// Compaction + PageRank refresh after every this many epochs.
  std::size_t refresh_every = 4;
  std::uint64_t pagerank_iterations = 10;

  /// Answers checked per run (a seeded sample; a full check would
  /// dominate the run).
  std::size_t check_samples = 16;

  /// Tiny sizes for the self-tests' smoke pass.
  static Config smoke(Workload w, bool trace);
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  OpTally ops;
  /// One line per failed check.
  std::vector<std::string> failures;
  /// --trace 0: the end-to-end metrics; --trace 1: the per-layer ones.
  std::vector<Metric> metrics;
  /// Run record: name -> JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> record;

  [[nodiscard]] bool correct() const {
    return failures.empty() && ops.failed == 0;
  }
};

RunResult run_workload(const Config& cfg);

/// A number as JSON with all its digits ("null" if not finite).
std::string json_number(double v);

// ---- answer checks (exposed for the self-tests) ----

struct KhopAnswer {
  cgraph::VertexId source = 0;
  cgraph::Depth k = 0;
  std::uint64_t visited = 0;
};

/// Check each answer against khop_reach_count on `graph`. Returns the
/// number of wrong answers and appends one line per wrong answer.
std::size_t check_khop_answers(const cgraph::Graph& graph,
                               const std::vector<KhopAnswer>& answers,
                               std::vector<std::string>& failures);

struct PointAnswer {
  cgraph::VertexId source = 0;
  cgraph::VertexId target = 0;
  /// 1 reachable, 0 unreachable, -1 unresolved (always wrong).
  std::int8_t reachable = -1;
};

/// Check unbounded point answers against bfs_levels on `graph`.
std::size_t check_point_answers(const cgraph::Graph& graph,
                                const std::vector<PointAnswer>& answers,
                                std::vector<std::string>& failures);

/// Seeded sample of up to `count` distinct indices of [0, n).
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        std::uint64_t seed);

}  // namespace perfbench
