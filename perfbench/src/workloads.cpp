#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <thread>

#include "engine/pagerank.hpp"
#include "gen/arrivals.hpp"
#include "gen/datasets.hpp"
#include "gen/mutation_trace.hpp"
#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "index/reach_index.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "query/bfs.hpp"
#include "query/scheduler.hpp"
#include "query/service.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace cg = cgraph;

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kKhopClosed: return "khop_closed";
    case Workload::kPointServe: return "point_serve";
    case Workload::kKhopUnderWrites: return "khop_under_writes";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kKhopClosed, Workload::kPointServe,
                     Workload::kKhopUnderWrites}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

Config Config::smoke(Workload w, bool trace) {
  Config c;
  c.workload = w;
  c.seed = 7;
  c.seconds = 0.2;
  c.trace = trace;
  c.scale_shift = 7;  // 1,024 vertices
  c.setup_reps = 2;
  c.queries_per_request = 16;
  c.arrivals_per_request = 200;
  c.epochs_per_cycle = 4;
  c.ops_per_epoch = 200;
  c.reads_per_epoch = 2;
  c.refresh_every = 2;
  c.pagerank_iterations = 3;
  c.check_samples = 8;
  return c;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  cg::Xoshiro256 rng(seed);
  const std::size_t take = std::min(n, count);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng.next_bounded(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(take);
  return idx;
}

std::size_t check_khop_answers(const cg::Graph& graph,
                               const std::vector<KhopAnswer>& answers,
                               std::vector<std::string>& failures) {
  std::size_t wrong = 0;
  for (const KhopAnswer& a : answers) {
    const std::uint64_t want = cg::khop_reach_count(graph, a.source, a.k);
    if (want != a.visited) {
      ++wrong;
      failures.push_back("k-hop from " + std::to_string(a.source) + " k=" +
                         std::to_string(a.k) + ": visited " +
                         std::to_string(a.visited) + ", reference " +
                         std::to_string(want));
    }
  }
  return wrong;
}

std::size_t check_point_answers(const cg::Graph& graph,
                                const std::vector<PointAnswer>& answers,
                                std::vector<std::string>& failures) {
  std::size_t wrong = 0;
  for (const PointAnswer& a : answers) {
    const std::vector<cg::Depth> levels = cg::bfs_levels(graph, a.source);
    const int want = levels[a.target] != cg::kUnvisitedDepth ? 1 : 0;
    if (want != a.reachable) {
      ++wrong;
      failures.push_back("point " + std::to_string(a.source) + "->" +
                         std::to_string(a.target) + ": answered " +
                         std::to_string(a.reachable) + ", reference " +
                         std::to_string(want));
    }
  }
  return wrong;
}

namespace {

// Load shape shared by every workload: 4 simulated machines x 1 compute
// thread (nproc on the reference host), memory-pressure model off.
constexpr cg::PartitionId kMachines = 4;
constexpr std::size_t kComputeThreads = 1;
constexpr cg::Depth kHops = 3;               // k of every k-hop read
constexpr double kArrivalRateQps = 100000;  // point_serve, simulated time
constexpr double kDeleteFraction = 0.25;    // khop_under_writes trace

/// Independent seed streams derived from the one workload seed.
enum class Stream : std::uint64_t {
  kDataset = 1,
  kQueries,
  kArrivals,
  kTrace,
  kIndex,
  kCheck,
};

std::uint64_t derive(std::uint64_t seed, Stream s, std::uint64_t i = 0) {
  cg::SplitMix64 a(seed ^ (static_cast<std::uint64_t>(s) << 56));
  cg::SplitMix64 b(a.next() + i);
  return b.next();
}

/// A seeded sample of up to `count` elements of `from`.
template <typename T>
std::vector<T> sample_of(const std::vector<T>& from, std::size_t count,
                         std::uint64_t seed) {
  std::vector<T> out;
  for (std::size_t i : sample_indices(from.size(), count, seed)) {
    out.push_back(from[i]);
  }
  return out;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// CPU time of every thread of this process, exited threads included.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Counters of the read path: benchmark-clock request walls plus the
/// counters run_concurrent_queries / run_query_service return.
struct ReadCounters {
  std::vector<double> request_wall;  // seconds, one per timed read call
  std::vector<double> request_cpu;   // process CPU seconds, per call
  std::vector<double> request_answered;  // queries answered, per call
  std::uint64_t answered = 0;
  std::vector<double> batch_exec_wall;  // BatchTrace::execute_wall_seconds
  double exec_wall = 0;
  double exec_sim = 0;
  std::uint64_t batches = 0;
  std::uint64_t executed = 0;
  std::uint64_t edges = 0;
  std::uint64_t levels = 0;
  std::uint64_t push_levels = 0;
  std::uint64_t pull_levels = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  double barrier_wait_wall = 0;
  // Modelled times of the traversal-executed queries (an index answer's
  // modelled time is a closed-form constant).
  std::vector<double> response_sim;
  double queue_wait_sim = 0;
  double checkpoint_seconds = 0;
  std::uint64_t checkpoint_bytes = 0;

  void add(const cg::obs::RunTelemetry& t) {
    for (const cg::obs::BatchTrace& b : t.batches) {
      ++batches;
      executed += b.width;
      exec_wall += b.execute_wall_seconds;
      exec_sim += b.execute_sim_seconds;
      batch_exec_wall.push_back(b.execute_wall_seconds);
      edges += b.edges_scanned();
      levels += b.levels.size();
      for (const cg::obs::LevelTrace& l : b.levels) {
        push_levels += l.push_machines;
        pull_levels += l.pull_machines;
      }
      std::uint64_t steps = 0;
      for (const cg::obs::MachineTrace& m : b.machines) {
        steps = std::max(steps, m.supersteps);
        bytes += m.staged_bytes + m.async_bytes;
        packets += m.staged_packets + m.async_packets;
        barrier_wait_wall += m.barrier_wait_wall_seconds;
      }
      supersteps += steps;
    }
  }
};

struct WriteCounters {
  std::uint64_t ops = 0;
  double apply_wall = 0;
  double compact_wall = 0;
  std::uint64_t compactions = 0;  // each compacts every shard
  double delta_events = 0;
  std::uint64_t delta_reads = 0;
  std::vector<double> pagerank_wall;
  std::uint64_t pagerank_iterations = 0;
  std::uint64_t gas_bytes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t cycles = 0;
};

class Runner {
 public:
  explicit Runner(const Config& cfg)
      : cfg_(cfg),
        rec_(cfg.trace),
        cluster_(kMachines) {
    cluster_.set_compute_threads(kComputeThreads);
  }

  RunResult run() {
    const auto run_start = Clock::now();
    {
      Span root(rec_, "bench.run");
      setup();
      switch (cfg_.workload) {
        case Workload::kKhopClosed: run_khop_closed(); break;
        case Workload::kPointServe: run_point_serve(); break;
        case Workload::kKhopUnderWrites: run_khop_under_writes(); break;
      }
    }
    run_seconds_ = seconds_since(run_start);
    report();
    if (cfg_.trace && !cfg_.out_dir.empty()) {
      const std::string path = cfg_.out_dir + "/spans-" +
                               to_string(cfg_.workload) + "-" +
                               std::to_string(cfg_.seed) + ".json";
      if (!rec_.write_json(path)) {
        out_.failures.push_back("could not write " + path);
      }
    }
    return std::move(out_);
  }

 private:
  // ---- setup: make_dataset + partition + build_shards (+ index) ----
  struct SetupTimes {
    double generate = 0;
    double shard_build = 0;
    double index_build = 0;
  };

  /// Set-up runs setup_reps times and setup_s is the median. All but the
  /// last set-up run in forked children that report their times and exit,
  /// so this process builds its graph once: its peak RSS then does not
  /// depend on how the allocator reuses the memory of a freed set-up.
  void setup() {
    Span s(rec_, "bench.setup");
    for (std::size_t rep = 1; rep < cfg_.setup_reps; ++rep) {
      const std::optional<SetupTimes> t = setup_in_child();
      if (!t) {
        out_.failures.push_back("set-up in a child process failed");
        continue;
      }
      record_setup(*t);
    }
    record_setup(setup_once());
    for (const cg::SubgraphShard& sh : shards_) shard_bytes_ += sh.memory_bytes();
    setup_rss_mb_ = peak_rss_mb();
  }

  SetupTimes setup_once() {
    cg::DatasetSpec spec = cg::dataset_spec("FR-1B");
    spec.seed = derive(cfg_.seed, Stream::kDataset);
    SetupTimes t;
    const auto t0 = Clock::now();
    {
      Span g(rec_, "graph.make_dataset");
      graph_ = cg::make_dataset(spec, cfg_.scale_shift);
    }
    t.generate = seconds_since(t0);
    const auto t1 = Clock::now();
    {
      Span p(rec_, "graph.balanced_by_edges");
      partition_ = cg::RangePartition::balanced_by_edges(graph_, kMachines);
    }
    {
      Span b(rec_, "graph.build_shards");
      shards_ = cg::build_shards(graph_, partition_);
    }
    t.shard_build = seconds_since(t1);
    if (cfg_.workload == Workload::kPointServe) {
      const auto t2 = Clock::now();
      Span i(rec_, "index.build");
      cg::IndexOptions io;
      io.seed = derive(cfg_.seed, Stream::kIndex);
      index_ = cg::ReachIndex::build(graph_, io);
      t.index_build = seconds_since(t2);
    }
    return t;
  }

  /// One set-up in a forked child. The process is single-threaded here:
  /// the cluster starts its machine threads inside each run.
  std::optional<SetupTimes> setup_in_child() {
    int fds[2];
    if (pipe(fds) != 0) return std::nullopt;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      return std::nullopt;
    }
    if (pid == 0) {
      close(fds[0]);
      int code = 1;
      try {
        const SetupTimes t = setup_once();
        if (write(fds[1], &t, sizeof t) == static_cast<ssize_t>(sizeof t)) {
          code = 0;
        }
      } catch (...) {
      }
      _exit(code);
    }
    close(fds[1]);
    SetupTimes t;
    ssize_t got = 0;
    do {
      got = read(fds[0], &t, sizeof t);
    } while (got < 0 && errno == EINTR);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != static_cast<ssize_t>(sizeof t) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return std::nullopt;
    }
    return t;
  }

  void record_setup(const SetupTimes& t) {
    generate_s_.push_back(t.generate);
    shard_build_s_.push_back(t.shard_build);
    index_build_s_.push_back(t.index_build);
    setup_s_.push_back(t.generate + t.shard_build + t.index_build);
  }

  cg::SchedulerOptions scheduler_options(cg::obs::MetricsRegistry& reg) const {
    cg::SchedulerOptions so;
    so.batch_width = cfg_.queries_per_request;
    so.memory_budget_bytes = 0;
    so.threads = kComputeThreads;
    so.metrics = &reg;
    return so;
  }

  /// True while the timed loop should keep going: until `seconds` have
  /// passed, and always for the first request.
  bool keep_going(Clock::time_point start, std::size_t done) const {
    return done == 0 || seconds_since(start) < cfg_.seconds;
  }

  void fail_call(const char* call, const std::exception& e,
                 std::uint64_t ops) {
    out_.failures.push_back(std::string(call) + " threw: " + e.what());
    out_.ops.failed += ops;
  }

  /// One k-hop read request: queries_per_request random-root queries in
  /// one run_concurrent_queries call. `timed` = false is the warm-up.
  void khop_request(std::uint64_t request, bool timed,
                    std::vector<KhopAnswer>* keep) {
    std::vector<cg::KHopQuery> queries;
    {
      Span g(rec_, "gen.make_random_queries");
      queries = cg::make_random_queries(
          graph_, cfg_.queries_per_request, kHops,
          derive(cfg_.seed, Stream::kQueries, request));
    }
    cg::obs::MetricsRegistry registry;
    const cg::SchedulerOptions so = scheduler_options(registry);
    const cg::RecoveryStats before = cluster_.recovery_stats();
    cg::ConcurrentRunResult r;
    bool ok = true;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    try {
      Span q(rec_, "query.run_concurrent_queries");
      r = cg::run_concurrent_queries(cluster_, shards_, partition_, queries,
                                     so);
    } catch (const std::exception& e) {
      ok = false;
      if (timed) fail_call("run_concurrent_queries", e, queries.size());
    }
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - c0;
    if (!timed) return;
    out_.ops.attempted += queries.size();
    if (!ok) return;
    if (r.queries.size() != queries.size()) {
      out_.failures.push_back("run_concurrent_queries answered " +
                              std::to_string(r.queries.size()) + " of " +
                              std::to_string(queries.size()) + " queries");
      out_.ops.failed += queries.size();
      return;
    }
    reads_.request_wall.push_back(wall);
    reads_.request_cpu.push_back(cpu);
    reads_.request_answered.push_back(static_cast<double>(queries.size()));
    reads_.answered += queries.size();
    reads_.add(r.telemetry);
    for (const cg::obs::QueryTrace& qt : r.telemetry.queries) {
      reads_.response_sim.push_back(qt.wait_sim_seconds +
                                    qt.execute_sim_seconds);
      reads_.queue_wait_sim += qt.wait_sim_seconds;
    }
    const cg::RecoveryStats& after = cluster_.recovery_stats();
    reads_.checkpoint_seconds +=
        after.checkpoint_seconds - before.checkpoint_seconds;
    reads_.checkpoint_bytes += after.checkpoint_bytes - before.checkpoint_bytes;
    if (keep != nullptr) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        keep->push_back({queries[i].source, queries[i].k, r.queries[i].visited});
      }
    }
  }

  // ---- khop_closed ----
  void run_khop_closed() {
    std::vector<KhopAnswer> answers;
    khop_request(~std::uint64_t{0}, /*timed=*/false, nullptr);
    const auto start = Clock::now();
    {
      Span loop(rec_, "bench.loop");
      for (std::uint64_t i = 0; keep_going(start, i); ++i) {
        Span req(rec_, "bench.request", static_cast<std::int64_t>(i));
        khop_request(i, /*timed=*/true, &answers);
      }
    }
    loop_seconds_ = seconds_since(start);
    peak_rss_mb_ = peak_rss_mb();
    Span chk(rec_, "bench.check");
    const std::vector<KhopAnswer> sample = sample_of(
        answers, cfg_.check_samples, derive(cfg_.seed, Stream::kCheck));
    Span c(rec_, "check.khop_reach_count");
    out_.ops.failed += check_khop_answers(graph_, sample, out_.failures);
    checked_ = sample.size();
  }

  // ---- point_serve ----
  void run_point_serve() {
    std::vector<PointAnswer> fallback_answers;
    std::vector<PointAnswer> index_answers;
    auto request = [&](std::uint64_t i, bool timed) {
      cg::PoissonArrivalParams ap;
      ap.rate_qps = kArrivalRateQps;
      ap.count = cfg_.arrivals_per_request;
      ap.seed = derive(cfg_.seed, Stream::kArrivals, i);
      ap.point_fraction = 1.0;
      std::vector<cg::TimedQuery> arrivals;
      {
        Span g(rec_, "gen.make_poisson_arrivals");
        arrivals = cg::make_poisson_arrivals(graph_, ap);
      }
      cg::obs::MetricsRegistry registry;
      cg::ServiceOptions svc;
      svc.scheduler = scheduler_options(registry);
      svc.queue_cap = 0;  // unbounded: nothing is shed
      svc.deadline_seconds = 0;
      svc.index = &*index_;
      cg::ServiceRunResult r;
      bool ok = true;
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      try {
        Span q(rec_, "query.run_query_service");
        r = cg::run_query_service(cluster_, shards_, partition_, arrivals,
                                  svc);
      } catch (const std::exception& e) {
        ok = false;
        if (timed) fail_call("run_query_service", e, arrivals.size());
      }
      const double wall = seconds_since(t0);
      const double cpu = cpu_seconds() - c0;
      if (!timed) return;
      out_.ops.attempted += arrivals.size();
      if (!ok) return;
      if (!r.stats.identities_hold() || r.queries.size() != arrivals.size()) {
        out_.failures.push_back("run_query_service broke its counter "
                                "identities in request " +
                                std::to_string(i));
      }
      submitted_ += r.stats.submitted;
      index_answered_ += r.stats.index_answered;
      reads_.request_wall.push_back(wall);
      reads_.request_cpu.push_back(cpu);
      const std::uint64_t answered_before = reads_.answered;
      reads_.add(r.telemetry);
      for (std::size_t q = 0; q < r.queries.size(); ++q) {
        const cg::ServiceQueryRecord& rec = r.queries[q];
        const bool by_index =
            rec.outcome == cg::ServiceOutcome::kIndexAnswered;
        if (rec.outcome != cg::ServiceOutcome::kCompleted && !by_index) {
          ++out_.ops.failed;  // shed or expired
          continue;
        }
        if (rec.reachable < 0) ++out_.ops.failed;  // unresolved point answer
        ++reads_.answered;
        if (!by_index) {
          reads_.response_sim.push_back(rec.response_sim_seconds);
          reads_.queue_wait_sim += rec.queue_wait_sim_seconds;
        }
        const PointAnswer a{arrivals[q].query.source, arrivals[q].query.target,
                            rec.reachable};
        (by_index ? index_answers : fallback_answers).push_back(a);
      }
      reads_.request_answered.push_back(
          static_cast<double>(reads_.answered - answered_before));
    };
    request(~std::uint64_t{0}, /*timed=*/false);
    const auto start = Clock::now();
    {
      Span loop(rec_, "bench.loop");
      for (std::uint64_t i = 0; keep_going(start, i); ++i) {
        Span req(rec_, "bench.request", static_cast<std::int64_t>(i));
        request(i, /*timed=*/true);
      }
    }
    loop_seconds_ = seconds_since(start);
    peak_rss_mb_ = peak_rss_mb();

    if (cfg_.trace) time_index_probes(index_answers, fallback_answers);

    Span chk(rec_, "bench.check");
    const std::uint64_t cseed = derive(cfg_.seed, Stream::kCheck);
    std::vector<PointAnswer> sample =
        sample_of(fallback_answers, cfg_.check_samples / 2, cseed);
    for (const PointAnswer& a :
         sample_of(index_answers, cfg_.check_samples - sample.size(),
                   cseed + 1)) {
      sample.push_back(a);
    }
    Span c(rec_, "check.bfs_levels");
    out_.ops.failed += check_point_answers(graph_, sample, out_.failures);
    checked_ = sample.size();
  }

  /// ReachIndex::query timed over the stream's (s, t) pairs, outside the
  /// service call. Also checks every probe repeats the service's verdict
  /// for the index-answered queries.
  void time_index_probes(const std::vector<PointAnswer>& by_index,
                         const std::vector<PointAnswer>& fallbacks) {
    Span s(rec_, "index.query");
    std::uint64_t disagreements = 0;
    const auto t0 = Clock::now();
    for (const auto* list : {&by_index, &fallbacks}) {
      for (const PointAnswer& a : *list) {
        const cg::IndexVerdict v = index_->query(a.source, a.target);
        if (list == &by_index &&
            (v == cg::IndexVerdict::kUnknown ||
             (v == cg::IndexVerdict::kReachable) != (a.reachable == 1))) {
          ++disagreements;
        }
      }
    }
    probe_seconds_ = seconds_since(t0);
    probes_ = by_index.size() + fallbacks.size();
    if (disagreements > 0) {
      out_.failures.push_back(std::to_string(disagreements) +
                              " index probes disagree with the service");
    }
  }

  // ---- khop_under_writes ----
  void run_khop_under_writes() {
    cg::MutationTraceOptions topt;
    topt.seed = derive(cfg_.seed, Stream::kTrace);
    topt.num_epochs = cfg_.epochs_per_cycle;
    topt.ops_per_epoch = cfg_.ops_per_epoch;
    topt.delete_fraction = kDeleteFraction;
    cg::MutationTrace trace;
    {
      Span g(rec_, "gen.generate_mutation_trace");
      trace = cg::generate_mutation_trace(graph_, topt);
    }
    const std::vector<cg::SubgraphShard> pristine = shards_;
    cluster_.set_recovery(cg::RecoveryOptions{});

    // The checked epoch is a refresh epoch of the first cycle, picked by
    // the seed: its reads walk several epochs of uncompacted deltas and its
    // PageRank refresh runs on the compacted result.
    std::vector<std::size_t> refresh_epochs;
    for (std::size_t e = 0; e < cfg_.epochs_per_cycle; ++e) {
      if ((e + 1) % cfg_.refresh_every == 0) refresh_epochs.push_back(e);
    }
    const std::size_t check_epoch =
        refresh_epochs.empty()
            ? cfg_.epochs_per_cycle - 1
            : refresh_epochs[derive(cfg_.seed, Stream::kCheck, 1) %
                             refresh_epochs.size()];
    std::vector<KhopAnswer> epoch_answers;
    std::vector<double> epoch_ranks;

    khop_request(~std::uint64_t{0}, /*timed=*/false, nullptr);
    std::uint64_t reads = 0;
    const auto start = Clock::now();
    {
      Span loop(rec_, "bench.loop");
      for (std::uint64_t c = 0; keep_going(start, c); ++c) {
        if (c > 0) {
          Span r(rec_, "bench.reset_shards");
          shards_ = pristine;
        }
        ++writes_.cycles;
        for (std::size_t e = 0; e < cfg_.epochs_per_cycle; ++e) {
          const bool checked = c == 0 && e == check_epoch;
          if (!checked && !(c == 0 && e < check_epoch) &&
              seconds_since(start) >= cfg_.seconds) {
            break;
          }
          Span ep(rec_, "bench.epoch",
                  static_cast<std::int64_t>(c * cfg_.epochs_per_cycle + e));
          epoch(trace, e, reads, checked ? &epoch_answers : nullptr,
                checked ? &epoch_ranks : nullptr);
        }
      }
    }
    loop_seconds_ = seconds_since(start);
    peak_rss_mb_ = peak_rss_mb();

    Span chk(rec_, "bench.check");
    cg::EdgeList edges;
    {
      Span a(rec_, "check.apply_mutation_trace");
      edges = cg::apply_mutation_trace(graph_, trace, check_epoch + 1);
    }
    cg::Graph truth;
    {
      Span b(rec_, "check.graph_build");
      truth = cg::Graph::build(std::move(edges), graph_.num_vertices());
    }
    const std::vector<KhopAnswer> sample = sample_of(
        epoch_answers, cfg_.check_samples, derive(cfg_.seed, Stream::kCheck));
    {
      Span k(rec_, "check.khop_reach_count");
      out_.ops.failed += check_khop_answers(truth, sample, out_.failures);
    }
    checked_ = sample.size();
    if (!refresh_epochs.empty()) {
      Span p(rec_, "check.pagerank_serial");
      const std::vector<double> want =
          cg::pagerank_serial(truth, cfg_.pagerank_iterations);
      std::size_t bad = 0;
      for (std::size_t v = 0; v < want.size(); ++v) {
        const double got = v < epoch_ranks.size() ? epoch_ranks[v] : -1.0;
        if (std::abs(got - want[v]) > 1e-9 * std::max(1.0, std::abs(want[v]))) {
          ++bad;
        }
      }
      if (bad > 0 || epoch_ranks.size() != want.size()) {
        ++out_.ops.failed;
        out_.failures.push_back("PageRank at epoch " +
                                std::to_string(check_epoch + 1) + ": " +
                                std::to_string(bad) +
                                " vertices differ from pagerank_serial");
      }
      ++checked_;
    }
  }

  /// One mutation epoch: apply the trace batch, run reads_per_epoch read
  /// requests on the merged views, and on refresh epochs compact every
  /// shard and run a PageRank refresh.
  void epoch(const cg::MutationTrace& trace, std::size_t e,
             std::uint64_t& reads, std::vector<KhopAnswer>* keep,
             std::vector<double>* ranks) {
    const std::uint64_t ops = trace.epochs[e].size();
    out_.ops.attempted += ops;
    const auto t0 = Clock::now();
    try {
      Span a(rec_, "graph.apply_trace_epoch");
      cg::apply_trace_epoch(std::span(shards_), trace, e);
    } catch (const std::exception& ex) {
      fail_call("apply_trace_epoch", ex, ops);
    }
    writes_.apply_wall += seconds_since(t0);
    writes_.ops += ops;
    ++writes_.epochs;
    for (std::size_t r = 0; r < cfg_.reads_per_epoch; ++r) {
      std::uint64_t events = 0;
      for (const cg::SubgraphShard& sh : shards_) {
        events += sh.delta_out().num_events() + sh.delta_in().num_events();
      }
      writes_.delta_events += static_cast<double>(events);
      ++writes_.delta_reads;
      Span req(rec_, "bench.request", static_cast<std::int64_t>(reads));
      khop_request(reads++, /*timed=*/true, keep);
    }
    if ((e + 1) % cfg_.refresh_every != 0) return;
    const auto t1 = Clock::now();
    {
      Span c(rec_, "graph.compact");
      for (cg::SubgraphShard& sh : shards_) sh.compact();
    }
    writes_.compact_wall += seconds_since(t1);
    ++writes_.compactions;
    out_.ops.attempted += 1;
    cg::GasResult g;
    const auto t2 = Clock::now();
    try {
      Span p(rec_, "engine.run_pagerank");
      g = cg::run_pagerank(cluster_, shards_, partition_,
                           cfg_.pagerank_iterations);
    } catch (const std::exception& ex) {
      fail_call("run_pagerank", ex, 1);
      return;
    }
    writes_.pagerank_wall.push_back(seconds_since(t2));
    writes_.pagerank_iterations += g.stats.iterations;
    writes_.gas_bytes += g.stats.bytes;
    if (ranks != nullptr) *ranks = std::move(g.values);
  }

  // ---- metrics and run record ----
  void add(const char* name, double value, const char* unit) {
    out_.metrics.push_back({name, value, unit});
  }

  void report() {
    const RequestSummary wall =
        summarize_requests(reads_.request_wall, reads_.request_answered);
    const RequestSummary cpu =
        summarize_requests(reads_.request_cpu, reads_.request_answered);
    const double setup = median(setup_s_);

    auto& rec = out_.record;
    auto put = [&rec](const std::string& k, const std::string& v) {
      rec.emplace_back(k, v);
    };
    put("workload", json_str(to_string(cfg_.workload)));
    put("seed", std::to_string(cfg_.seed));
    put("trace", cfg_.trace ? "true" : "false");
    put("seconds", json_number(cfg_.seconds));
    put("nproc", std::to_string(std::thread::hardware_concurrency()));
    put("machines", std::to_string(kMachines));
    put("compute_threads", std::to_string(kComputeThreads));
    put("build_type", json_str(PERFBENCH_BUILD_TYPE));
    put("dataset", json_str("FR-1B"));
    put("scale", std::to_string(17 - cfg_.scale_shift));
    put("vertices", std::to_string(graph_.num_vertices()));
    put("edges", std::to_string(graph_.num_edges()));
    put("shard_bytes", std::to_string(shard_bytes_));
    put("setup_reps", std::to_string(setup_s_.size()));
    put("setup_peak_rss_mb", json_number(setup_rss_mb_));
    put("loop_seconds", json_number(loop_seconds_));
    put("run_seconds", json_number(run_seconds_));
    put("requests", std::to_string(reads_.request_wall.size()));
    put("answered", std::to_string(reads_.answered));
    put("checked_answers", std::to_string(checked_));
    put("attempted", std::to_string(out_.ops.attempted));
    put("failed", std::to_string(out_.ops.failed));
    put("failed_frac", json_number(out_.ops.failed_frac()));
    put("tail_percentile", json_number(wall.tail.percentile));
    put("tail_samples", std::to_string(wall.tail.samples));
    put("tail_beyond", std::to_string(wall.tail.beyond));
    put("tail_rule_met", wall.tail.rule_met ? "true" : "false");
    if (cfg_.workload == Workload::kKhopUnderWrites) {
      put("epochs", std::to_string(writes_.epochs));
      put("cycles", std::to_string(writes_.cycles));
      put("write_ops", std::to_string(writes_.ops));
      put("write_ops_per_s",
          json_number(ratio(static_cast<double>(writes_.ops),
                            writes_.apply_wall + writes_.compact_wall)));
      put("pagerank_s", json_number(median(writes_.pagerank_wall)));
    }
    if (probes_ > 0) {
      // The specification's prediction: probes take under 1% of the
      // service's wall time.
      put("index.probe_share",
          json_number(ratio(probe_seconds_ / static_cast<double>(probes_) *
                                static_cast<double>(submitted_),
                            sum(reads_.request_wall))));
    }
    // Both kinds of read figure, in both modes: with --trace 1 they differ
    // from the untraced run of the same seed by the tracing overhead.
    put("e2e.setup_s", json_number(setup));
    put("e2e.queries_per_cpu_s", json_number(cpu.served_qps));
    put("e2e.request_cpu_p50_ms", json_number(cpu.p50 * 1e3));
    put("e2e.request_cpu_tail_ms", json_number(cpu.tail.value * 1e3));
    put("e2e.peak_rss_mb", json_number(peak_rss_mb_));
    put("wall.served_qps", json_number(wall.served_qps));
    put("wall.request_p50_ms", json_number(wall.p50 * 1e3));
    put("wall.request_tail_ms", json_number(wall.tail.value * 1e3));

    if (!cfg_.trace) {
      add("setup_s", setup, "s");
      add("queries_per_cpu_s", cpu.served_qps, "queries/cpu_s");
      add("request_cpu_p50_ms", cpu.p50 * 1e3, "ms");
      add("request_cpu_tail_ms", cpu.tail.value * 1e3, "ms");
      add("peak_rss_mb", peak_rss_mb_, "MB");
      return;
    }
    report_layers(wall);
  }

  void report_layers(const RequestSummary& wall) {
    const auto& R = reads_;
    const auto& W = writes_;
    const double batches = static_cast<double>(R.batches);
    const double read_wall = sum(R.request_wall);

    add("graph.generate_s", median(generate_s_), "s");
    add("graph.shard_build_s", median(shard_build_s_), "s");
    add("graph.shard_bytes", static_cast<double>(shard_bytes_), "bytes");
    add("graph.apply_ops_per_s", ratio(static_cast<double>(W.ops), W.apply_wall),
        "1/s");
    add("graph.compactions_per_s",
        ratio(static_cast<double>(W.compactions), W.compact_wall), "1/s");
    add("graph.write_ops_per_s",
        ratio(static_cast<double>(W.ops), W.apply_wall + W.compact_wall),
        "1/s");
    add("graph.delta_events",
        ratio(W.delta_events, static_cast<double>(W.delta_reads)), "count");

    const bool indexed = index_.has_value();
    add("index.builds_per_s", ratio(1.0, median(index_build_s_)), "1/s");
    add("index.bytes", indexed ? static_cast<double>(index_->memory_bytes()) : 0,
        "bytes");
    add("index.hit_ratio",
        ratio(static_cast<double>(index_answered_),
              static_cast<double>(submitted_)),
        "ratio");
    const double per_probe =
        ratio(probe_seconds_, static_cast<double>(probes_));
    add("index.probes_per_s", ratio(1.0, per_probe), "1/s");

    add("query.served_qps", wall.served_qps, "queries/s");
    add("query.request_p50_ms", wall.p50 * 1e3, "ms");
    add("query.request_tail_ms", wall.tail.value * 1e3, "ms");
    add("query.batch_wall_ms", median(R.batch_exec_wall) * 1e3, "ms");
    add("query.batch_width", ratio(static_cast<double>(R.executed), batches),
        "count");
    add("query.call_wall_per_batch_ms", ratio(read_wall, batches) * 1e3, "ms");
    add("query.edges_per_query",
        ratio(static_cast<double>(R.edges), static_cast<double>(R.executed)),
        "count");
    add("query.ns_per_edge",
        ratio(R.exec_wall, static_cast<double>(R.edges)) * 1e9, "ns");
    add("query.levels_per_batch",
        ratio(static_cast<double>(R.levels), batches), "count");
    add("query.pull_share",
        ratio(static_cast<double>(R.pull_levels),
              static_cast<double>(R.push_levels + R.pull_levels)),
        "ratio");
    add("query.wall_over_sim", ratio(R.exec_wall, R.exec_sim), "ratio");
    add("query.response_p99_sim_ms", percentile(R.response_sim, 99) * 1e3,
        "ms");
    add("query.queue_wait_share_sim",
        ratio(R.queue_wait_sim, sum(R.response_sim)),
        "ratio");

    add("net.supersteps_per_batch",
        ratio(static_cast<double>(R.supersteps), batches), "count");
    add("net.barrier_wait_share",
        ratio(R.barrier_wait_wall,
              static_cast<double>(kMachines) * R.exec_wall),
        "ratio");
    add("net.bytes_per_batch", ratio(static_cast<double>(R.bytes), batches),
        "bytes");
    add("net.packets_per_batch",
        ratio(static_cast<double>(R.packets), batches), "count");
    add("net.checkpoint_bytes_per_s",
        ratio(static_cast<double>(R.checkpoint_bytes), R.checkpoint_seconds),
        "bytes/s");
    add("net.checkpoint_bytes_per_batch",
        ratio(static_cast<double>(R.checkpoint_bytes), batches), "bytes");

    add("engine.pagerank_iters_per_s",
        ratio(static_cast<double>(W.pagerank_iterations),
              sum(W.pagerank_wall)),
        "1/s");
    add("engine.gas_bytes",
        ratio(static_cast<double>(W.gas_bytes),
              static_cast<double>(W.pagerank_wall.size())),
        "bytes");

    report_spans();
  }

  /// Self time per layer inside the timed loop, loop coverage, and the
  /// recorder's own cost.
  void report_spans() {
    const auto& spans = rec_.spans();
    std::int32_t loop = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "bench.loop") loop = static_cast<std::int32_t>(i);
    }
    // Spans inside the loop: the loop span and its descendants (children
    // always follow their parent in recording order).
    std::vector<SpanRecord> inside;
    std::vector<std::int32_t> remap(spans.size(), -1);
    double covered = 0;
    for (std::size_t i = 0; loop >= 0 && i < spans.size(); ++i) {
      const auto self = static_cast<std::int32_t>(i);
      const std::int32_t parent = spans[i].parent;
      if (self != loop && (parent < 0 || remap[parent] < 0)) continue;
      remap[i] = static_cast<std::int32_t>(inside.size());
      SpanRecord s = spans[i];
      s.parent = self == loop ? -1 : remap[parent];
      inside.push_back(s);
      if (parent == loop) covered += span_seconds(spans[i]);
    }
    const double loop_wall =
        loop >= 0 ? span_seconds(spans[static_cast<std::size_t>(loop)]) : 0;
    const std::map<std::string, double> self = self_seconds_by_layer(inside);
    for (const char* layer :
         {"bench", "gen", "graph", "index", "query", "engine"}) {
      const auto it = self.find(layer);
      add((std::string(layer) + ".self_share").c_str(),
          ratio(it == self.end() ? 0.0 : it->second, loop_wall), "ratio");
    }
    add("trace.loop_coverage", ratio(covered, loop_wall), "ratio");
    add("trace.spans", static_cast<double>(spans.size()), "count");

    // Recorder cost: time a burst of empty spans on a scratch recorder.
    constexpr int kBurst = 20000;
    SpanRecorder scratch(true);
    const auto t0 = Clock::now();
    for (int i = 0; i < kBurst; ++i) {
      Span s(scratch, "bench.calibrate");
    }
    const double per_span = seconds_since(t0) / kBurst;
    add("trace.overhead_share",
        ratio(per_span * static_cast<double>(spans.size()), run_seconds_),
        "ratio");
  }

  const Config& cfg_;
  SpanRecorder rec_;
  RunResult out_;
  cg::Cluster cluster_;

  cg::Graph graph_;
  cg::RangePartition partition_;
  std::vector<cg::SubgraphShard> shards_;
  std::optional<cg::ReachIndex> index_;

  std::vector<double> generate_s_, shard_build_s_, index_build_s_, setup_s_;
  std::uint64_t shard_bytes_ = 0;
  ReadCounters reads_;
  WriteCounters writes_;
  std::uint64_t submitted_ = 0;
  std::uint64_t index_answered_ = 0;
  double probe_seconds_ = 0;
  std::uint64_t probes_ = 0;
  double loop_seconds_ = 0;
  double run_seconds_ = 0;
  double peak_rss_mb_ = 0;
  double setup_rss_mb_ = 0;
  std::size_t checked_ = 0;
};

}  // namespace

RunResult run_workload(const Config& cfg) {
  RunResult result = Runner(cfg).run();
  return result;
}

}  // namespace perfbench
