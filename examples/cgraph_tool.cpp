// cgraph_tool — command-line front end for the library, the kind of
// utility an operator would use around the query service.
//
//   cgraph_tool gen      --out g.bin [--model rmat|uniform|ws] [--scale 16]
//                        [--edge-factor 16] [--seed 1] [--n ...] [--m ...]
//   cgraph_tool convert  --in edges.txt --out g.bin      (text -> binary)
//   cgraph_tool stats    --in g.bin [--machines 4] [--hop-samples 8]
//   cgraph_tool query    --in g.bin --source 0 [--k 3] [--machines 4]
//                        [--paths] [--target 42] [--threads N]
//                        [--direction push|pull|hybrid] [--alpha A] [--beta B]
//                        [--index off|grail|gates|full] [--labels L]
//                        [--gates G] [--index-seed S]
//   cgraph_tool batch    --in g.bin --queries 100 [--k 3] [--machines 4]
//                        [--threads N]
//                        [--direction push|pull|hybrid] [--alpha A] [--beta B]
//                        [--replicas N] [--replica-kill r@s] [--route-seed S]
//   cgraph_tool pagerank --in g.bin [--iterations 10] [--machines 4]
//                        [--threads N]
//
// --threads N sets the intra-machine compute threads for traversal and
// GAS phases (0 = one per hardware core, 1 = serial; results are
// bit-exact either way). Without the flag, $CGRAPH_THREADS applies, and
// with neither, each simulated machine computes serially.
//
// Any command also takes --metrics-out PATH: after the command runs, the
// process-global metrics registry (query spans, superstep counters, fabric
// traffic) is written there — Prometheus text format, or JSON when PATH
// ends in .json. Without the flag, $CGRAPH_METRICS names the same sink.
//
// Any command also takes --trace-out PATH: the run is recorded by the
// event tracer and exported afterwards — Chrome trace_event JSON
// (Perfetto-loadable), or JSONL when PATH ends in .jsonl. Queries that
// were shed, expired, or re-executed after a crash additionally get
// flight-recorder dumps in PATH.flight/.
//
// Crash-fault flags (query/batch/pagerank): --crash m@s[,m@s...] kills
// machine m at superstep s; --crash-prob P crashes each machine with
// probability P per superstep (seeded by --fault-seed, default 1). Either
// flag enables superstep checkpointing + deterministic recovery;
// --checkpoint-interval N and --checkpoint-dir PATH tune where and how
// often checkpoints land. A recovery summary is printed after the run.
//
// Direction flags (query/batch, DESIGN.md §12): --direction forces the
// bit-parallel engine top-down (push), bottom-up (pull), or leaves the
// per-level per-partition heuristic on (hybrid, the default); --alpha and
// --beta tune the push->pull / pull->push thresholds. Every mode answers
// bit-identically.
//
// Index flags (query, DESIGN.md §13): --index builds the reachability
// index tier (GRAIL interval labels and/or backbone gates) before a point
// query (--source + --target, no --paths) and probes it first. A
// conclusive verdict skips the traversal entirely; kUnknown falls back to
// the MS-BFS engine and the answer is resolved from its visited plane.
// --labels, --gates, and --index-seed tune construction.
//
// Replication flags (batch, DESIGN.md §14): --replicas N runs the batch
// through the replicated service path — N replica clusters behind a
// health-checked router — and --replica-kill r@s fail-stops replica r at
// superstep s (comma lists allowed) to exercise cross-replica failover.
// Answers stay bit-exact; a replication summary is printed. On a
// degraded-mode shutdown (any replica dead) the tool flushes metrics even
// without --metrics-out (cgraph_tool_degraded.prom) and, with --trace-out,
// a service-level flight record of the failover events.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "cgraph/cgraph.hpp"

using namespace cgraph;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cgraph_tool <gen|convert|stats|query|batch|pagerank> "
               "[options]\n(see header comment of examples/cgraph_tool.cpp "
               "for the full option list)\n");
  return 2;
}

LoadResult load_any(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    return load_edge_list_binary(path);
  }
  return load_edge_list_text(path);
}

/// Parse one "machine@superstep" crash spec into the plan.
bool parse_crash_spec(const std::string& spec, FaultPlan& plan) {
  const std::size_t at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long m = std::strtoul(spec.c_str(), &end, 10);
  if (end != spec.c_str() + at) return false;
  const unsigned long long s = std::strtoull(spec.c_str() + at + 1, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  plan.add_crash(static_cast<PartitionId>(m), s);
  return true;
}

/// Wire --crash / --crash-prob / --checkpoint-* into the cluster. Returns
/// false (after printing why) on a malformed spec. `seed_offset` /
/// `dir_suffix` give each replica of a replicated run its own
/// deterministic chaos schedule and checkpoint directory; `force` enables
/// recovery even without fault flags (replicated serving needs checkpoints
/// so a survivor can adopt a dead replica's cut).
bool configure_recovery(Cluster& cluster, const Options& opts,
                        std::uint64_t seed_offset = 0,
                        const std::string& dir_suffix = "",
                        bool force = false) {
  const std::string crash = opts.get("crash");
  const double crash_prob = opts.get_double("crash-prob", 0.0);
  const bool any = !crash.empty() || crash_prob > 0.0 ||
                   opts.has("checkpoint-dir") ||
                   opts.has("checkpoint-interval") || force;
  if (!any) return true;

  FaultPlan plan(
      static_cast<std::uint64_t>(opts.get_int("fault-seed", 1)) +
      seed_offset);
  if (crash_prob > 0.0) plan.set_crash_probability(crash_prob);
  std::size_t pos = 0;
  while (pos < crash.size()) {
    std::size_t comma = crash.find(',', pos);
    if (comma == std::string::npos) comma = crash.size();
    const std::string spec = crash.substr(pos, comma - pos);
    if (!parse_crash_spec(spec, plan)) {
      std::fprintf(stderr,
                   "bad --crash spec '%s' (want machine@superstep)\n",
                   spec.c_str());
      return false;
    }
    pos = comma + 1;
  }
  cluster.fabric().install_fault_plan(
      std::make_shared<FaultPlan>(std::move(plan)));

  RecoveryOptions ro;
  ro.checkpoint_interval =
      static_cast<std::uint64_t>(opts.get_int("checkpoint-interval", 1));
  ro.checkpoint_dir = opts.get("checkpoint-dir");
  if (!ro.checkpoint_dir.empty() && !dir_suffix.empty()) {
    ro.checkpoint_dir += dir_suffix;
  }
  cluster.set_recovery(ro);
  return true;
}

/// Set when a replicated run shut down with at least one replica dead;
/// main() then flushes metrics + a service-level flight record.
bool g_degraded_shutdown = false;

/// Wire --direction / --alpha / --beta into a DirectionOptions. Returns
/// false (after printing why) on an unknown mode name.
bool configure_direction(const Options& opts, DirectionOptions& dir) {
  const std::string mode = opts.get("direction");
  if (!mode.empty() && !parse_direction(mode, &dir.mode)) {
    std::fprintf(stderr, "bad --direction '%s' (want push|pull|hybrid)\n",
                 mode.c_str());
    return false;
  }
  dir.alpha = opts.get_double("alpha", dir.alpha);
  dir.beta = opts.get_double("beta", dir.beta);
  return true;
}

/// Wire --index / --labels / --gates / --index-seed into IndexOptions.
/// Returns false (after printing why) on an unknown mode name; `enabled`
/// is set when a mode other than off was requested.
bool configure_index(const Options& opts, IndexOptions& io, bool& enabled) {
  enabled = false;
  const std::string mode = opts.get("index");
  if (mode.empty()) return true;
  const auto parsed = parse_index_mode(mode);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "bad --index '%s' (want off|grail|gates|full)\n",
                 mode.c_str());
    return false;
  }
  io.mode = *parsed;
  io.num_labels = static_cast<std::uint32_t>(
      opts.get_int("labels", static_cast<int>(io.num_labels)));
  io.num_gates = static_cast<std::uint32_t>(
      opts.get_int("gates", static_cast<int>(io.num_gates)));
  io.seed = static_cast<std::uint64_t>(
      opts.get_int("index-seed", static_cast<int>(io.seed)));
  enabled = io.mode != IndexMode::kOff;
  return true;
}

void print_recovery_report(const Cluster& cluster) {
  if (!cluster.recovery_enabled()) return;
  const RecoveryStats& rs = cluster.recovery_stats();
  std::printf(
      "recovery: crashes=%llu supersteps_replayed=%llu "
      "checkpoints=%llu (%s, %.4fs save / %.4fs restore) "
      "queries_reexecuted=%llu\n",
      static_cast<unsigned long long>(rs.crashes),
      static_cast<unsigned long long>(rs.supersteps_replayed),
      static_cast<unsigned long long>(rs.checkpoints_taken),
      AsciiTable::humanize(rs.checkpoint_bytes).c_str(),
      rs.checkpoint_seconds, rs.restore_seconds,
      static_cast<unsigned long long>(rs.queries_reexecuted));
}

int cmd_gen(const Options& opts) {
  const std::string out = opts.get("out");
  if (out.empty()) return usage();
  const std::string model = opts.get("model", "rmat");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  EdgeList edges;
  VertexId n = 0;
  if (model == "rmat") {
    RmatParams p;
    p.scale = static_cast<unsigned>(opts.get_int("scale", 16));
    p.edge_factor = opts.get_double("edge-factor", 16.0);
    p.seed = seed;
    edges = generate_rmat(p);
    n = VertexId{1} << p.scale;
  } else if (model == "uniform") {
    n = static_cast<VertexId>(opts.get_int("n", 65536));
    edges = generate_uniform(
        n, static_cast<EdgeIndex>(opts.get_int("m", 1048576)), seed);
  } else if (model == "ws") {
    n = static_cast<VertexId>(opts.get_int("n", 65536));
    edges = generate_watts_strogatz(
        n, static_cast<unsigned>(opts.get_int("k-ring", 8)),
        opts.get_double("beta", 0.1), seed);
  } else {
    return usage();
  }
  if (opts.has("weights")) {
    assign_random_weights(edges, 0.5f, 5.0f, seed + 1);
  }
  save_edge_list_binary(out, edges, n);
  std::printf("wrote %s: %llu vertices, %zu edges (%s)\n", out.c_str(),
              static_cast<unsigned long long>(n), edges.size(),
              model.c_str());
  return 0;
}

int cmd_convert(const Options& opts) {
  const std::string in = opts.get("in");
  const std::string out = opts.get("out");
  if (in.empty() || out.empty()) return usage();
  const LoadResult r = load_edge_list_text(in);
  save_edge_list_binary(out, r.edges, r.num_vertices);
  std::printf("converted %s -> %s: %u vertices, %zu edges "
              "(%zu raw ids re-indexed)\n",
              in.c_str(), out.c_str(), r.num_vertices, r.edges.size(),
              r.id_map.size());
  return 0;
}

int cmd_stats(const Options& opts) {
  const std::string in = opts.get("in");
  if (in.empty()) return usage();
  const LoadResult loaded = load_any(in);
  const Graph g =
      Graph::build(EdgeList(loaded.edges.edges()), loaded.num_vertices);
  std::printf("%s\n", g.summary().c_str());

  const auto machines = static_cast<PartitionId>(opts.get_int("machines", 4));
  const auto part = RangePartition::balanced_by_edges(g, machines);
  std::printf("partition balance over %u machines: %.3f (max/mean edges)\n",
              machines, part.edge_balance(g));
  const auto shards = build_shards(g, part);
  for (const auto& shard : shards) {
    const auto s = shard.out_sets().stats();
    std::printf("  shard %u: V=[%u,%u) E=%llu edge-sets=%zu "
                "boundary=%zu mem=%s\n",
                shard.id(), shard.local_range().begin,
                shard.local_range().end,
                static_cast<unsigned long long>(s.edges), s.sets,
                shard.boundary_out().size(),
                AsciiTable::humanize(shard.memory_bytes()).c_str());
  }

  std::printf("out-%s", degree_stats_to_string(
                            compute_degree_stats(g.out_csr())).c_str());

  const auto samples =
      static_cast<std::uint32_t>(opts.get_int("hop-samples", 0));
  if (samples > 0) {
    const HopPlot plot = compute_hop_plot(g, samples);
    std::printf("hop plot (%u samples): delta=%u delta0.5=%.2f "
                "delta0.9=%.2f\n",
                samples, unsigned{plot.diameter},
                plot.effective_diameter_50, plot.effective_diameter_90);
  }
  return 0;
}

int cmd_query(const Options& opts) {
  const std::string in = opts.get("in");
  if (in.empty()) return usage();
  const LoadResult loaded = load_any(in);
  const Graph g =
      Graph::build(EdgeList(loaded.edges.edges()), loaded.num_vertices);
  const auto machines = static_cast<PartitionId>(opts.get_int("machines", 4));
  const auto source = static_cast<VertexId>(opts.get_int("source", 0));
  const auto k = static_cast<Depth>(opts.get_int("k", 3));
  if (source >= g.num_vertices()) {
    std::fprintf(stderr, "source %u out of range (V=%u)\n", source,
                 g.num_vertices());
    return 1;
  }

  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);
  if (opts.has("threads")) {
    cluster.set_compute_threads(
        static_cast<std::size_t>(opts.get_int("threads", 1)));
  }
  if (!configure_recovery(cluster, opts)) return 2;
  DirectionOptions dir;
  if (!configure_direction(opts, dir)) return 2;
  IndexOptions index_opts;
  bool use_index = false;
  if (!configure_index(opts, index_opts, use_index)) return 2;
  const bool have_target = opts.has("target");
  const auto target = static_cast<VertexId>(opts.get_int("target", 0));
  if (have_target && target >= g.num_vertices()) {
    std::fprintf(stderr, "target %u out of range (V=%u)\n", target,
                 g.num_vertices());
    return 1;
  }
  const KHopQuery q{0, source, k};

  // Point query through the index tier (DESIGN.md §13): probe first, and
  // only fall back to the traversal when the verdict is unknown.
  if (use_index && have_target && !opts.has("paths")) {
    const ReachIndex index = ReachIndex::build(g, index_opts);
    publish_index_metrics(obs::MetricsRegistry::global(), index);
    const IndexBuildStats& bs = index.stats();
    std::printf("index (%s): %u components (largest %u), %llu DAG edges, "
                "%u labels + %u gates, %s, built in %.4fs sim\n",
                to_string(index.mode()), bs.num_components,
                bs.largest_component,
                static_cast<unsigned long long>(bs.dag_edges), bs.num_labels,
                bs.num_gates,
                AsciiTable::humanize(index.memory_bytes()).c_str(),
                bs.build_sim_seconds);
    const IndexVerdict verdict = index.query(source, target, k);
    std::printf("index probe %u -> %u (k=%u): %s (%.2e s sim)\n", source,
                target, unsigned{k}, to_string(verdict),
                index.probe_sim_seconds());
    if (verdict != IndexVerdict::kUnknown) {
      std::printf("target %u is %sreachable from %u%s — answered by the "
                  "index, no traversal\n",
                  target, verdict == IndexVerdict::kReachable ? "" : "NOT ",
                  source,
                  k == kUnvisitedDepth ? "" : " within the hop bound");
      return 0;
    }
    std::printf("index inconclusive; falling back to MS-BFS\n");
  }

  if (opts.has("paths")) {
    const auto r = run_distributed_khop_paths(cluster, shards, part,
                                              std::span(&q, 1));
    std::printf("%u-hop from %u: %llu vertices reached in %.4f s sim "
                "(%s of path data)\n",
                unsigned{k}, source,
                static_cast<unsigned long long>(r.base.visited[0]),
                r.base.sim_seconds,
                AsciiTable::humanize(r.result_bytes()).c_str());
    if (have_target) {
      const auto path = reconstruct_path(r.parents[0], source, target);
      if (path.empty()) {
        std::printf("target %u not reachable within %u hops\n", target,
                    unsigned{k});
      } else {
        std::printf("path:");
        for (VertexId v : path) std::printf(" %u", v);
        std::printf("  (%zu hops)\n", path.size() - 1);
      }
    }
  } else {
    QueryBitRows visited_plane;
    const auto r = run_distributed_msbfs(cluster, shards, part,
                                         std::span(&q, 1), dir,
                                         have_target ? &visited_plane
                                                     : nullptr);
    std::printf("%u-hop from %u: %llu vertices reached, %u levels, "
                "%.4f s sim / %.4f s wall\n",
                unsigned{k}, source,
                static_cast<unsigned long long>(r.visited[0]),
                unsigned{r.levels[0]}, r.sim_seconds, r.wall_seconds);
    if (have_target) {
      const bool reached =
          source == target || visited_plane.test(target, 0);
      std::printf("target %u is %sreachable from %u within %u hops "
                  "(traversal)\n",
                  target, reached ? "" : "NOT ", source, unsigned{k});
    }
  }
  print_recovery_report(cluster);
  // Single-query commands bypass the scheduler, so surface the cluster's
  // own superstep/fabric counters for --metrics-out.
  cluster.publish_metrics(obs::MetricsRegistry::global());
  return 0;
}

/// Replicated batch: the same closed workload pushed through the service
/// path (all arrivals at t=0) with N replica clusters behind a
/// health-checked router, so --replica-kill can exercise failover from
/// the command line.
int cmd_batch_replicated(const Options& opts,
                         const RangePartition& part,
                         const std::vector<SubgraphShard>& shards,
                         const std::vector<KHopQuery>& queries,
                         const SchedulerOptions& sched,
                         std::size_t num_replicas) {
  const auto machines = static_cast<PartitionId>(opts.get_int("machines", 4));
  std::vector<std::unique_ptr<Cluster>> storage;
  std::vector<Cluster*> replicas;
  for (std::size_t r = 0; r < num_replicas; ++r) {
    storage.push_back(std::make_unique<Cluster>(machines));
    Cluster& c = *storage.back();
    if (!configure_recovery(c, opts, /*seed_offset=*/r,
                            "/replica" + std::to_string(r),
                            /*force=*/true)) {
      return 2;
    }
    replicas.push_back(&c);
  }

  const std::string kill = opts.get("replica-kill");
  std::size_t pos = 0;
  while (pos < kill.size()) {
    std::size_t comma = kill.find(',', pos);
    if (comma == std::string::npos) comma = kill.size();
    const std::string spec = kill.substr(pos, comma - pos);
    const std::size_t at = spec.find('@');
    char* end = nullptr;
    const unsigned long r =
        at == std::string::npos ? num_replicas
                                : std::strtoul(spec.c_str(), &end, 10);
    if (at == std::string::npos || at == 0 || at + 1 >= spec.size() ||
        end != spec.c_str() + at || r >= num_replicas) {
      std::fprintf(stderr,
                   "bad --replica-kill spec '%s' (want replica@superstep, "
                   "replica < %zu)\n",
                   spec.c_str(), num_replicas);
      return 2;
    }
    HaltSpec halt;
    halt.at_superstep = std::strtoull(spec.c_str() + at + 1, &end, 10);
    if (end == nullptr || *end != '\0') {
      std::fprintf(stderr, "bad --replica-kill spec '%s'\n", spec.c_str());
      return 2;
    }
    replicas[r]->arm_halt(halt);
    pos = comma + 1;
  }

  ReplicaRouterOptions ro;
  ro.route_seed = static_cast<std::uint64_t>(opts.get_int("route-seed", 1));
  ReplicaRouter router(replicas, shards, part, sched, ro);
  ServiceOptions service;
  service.scheduler = sched;
  service.queue_cap = 0;  // closed workload: admit everything
  service.router = &router;

  std::vector<TimedQuery> arrivals;
  arrivals.reserve(queries.size());
  for (const KHopQuery& q : queries) arrivals.push_back({q, 0.0});
  const auto run =
      run_query_service(*replicas[0], shards, part, arrivals, service);

  ResponseTimeSeries times("batch");
  for (const auto& qr : run.queries) {
    if (qr.outcome == ServiceOutcome::kCompleted) {
      times.add(qr.response_sim_seconds);
    }
  }
  std::printf("%zu concurrent %u-hop queries on %u machines x %zu "
              "replicas: mean %.4fs p50 %.4fs p90 %.4fs max %.4fs "
              "(%llu batches, %s peak memory)\n",
              queries.size(), static_cast<unsigned>(opts.get_int("k", 3)),
              machines,
              num_replicas, times.mean(), times.percentile(50),
              times.percentile(90), times.max(),
              static_cast<unsigned long long>(run.stats.batches),
              AsciiTable::humanize(run.peak_memory_bytes).c_str());
  g_degraded_shutdown = router.degraded();
  std::printf("replication: %zu/%zu replicas healthy, %llu failovers, "
              "%llu failover-shed%s\n",
              router.healthy_count(), router.num_replicas(),
              static_cast<unsigned long long>(router.failovers()),
              static_cast<unsigned long long>(run.stats.failover_shed),
              g_degraded_shutdown ? " -> degraded-mode shutdown" : "");
  const auto rstats = router.stats();
  for (std::size_t r = 0; r < rstats.size(); ++r) {
    std::printf("  replica %zu: %s, %llu batches, %llu heartbeat misses\n",
                r, to_string(rstats[r].health),
                static_cast<unsigned long long>(rstats[r].batches_executed),
                static_cast<unsigned long long>(
                    rstats[r].heartbeat_misses_total));
  }
  for (Cluster* c : replicas) print_recovery_report(*c);
  // The service already published every batch's machine and fabric
  // counters; only the recovery counters live on the cluster.
  replicas[0]->publish_recovery_metrics(obs::MetricsRegistry::global());
  return 0;
}

int cmd_batch(const Options& opts) {
  const std::string in = opts.get("in");
  if (in.empty()) return usage();
  const LoadResult loaded = load_any(in);
  const Graph g =
      Graph::build(EdgeList(loaded.edges.edges()), loaded.num_vertices);
  const auto machines = static_cast<PartitionId>(opts.get_int("machines", 4));
  const auto count = static_cast<std::size_t>(opts.get_int("queries", 100));
  const auto k = static_cast<Depth>(opts.get_int("k", 3));

  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  const auto queries = make_random_queries(
      g, count, k, static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  SchedulerOptions sched;
  if (opts.has("threads")) {
    sched.threads = static_cast<std::size_t>(opts.get_int("threads", 1));
  }
  if (!configure_direction(opts, sched.direction)) return 2;

  const auto num_replicas =
      static_cast<std::size_t>(opts.get_int("replicas", 1));
  if (num_replicas > 1 || opts.has("replica-kill")) {
    if (num_replicas < 2) {
      std::fprintf(stderr, "--replica-kill needs --replicas >= 2\n");
      return 2;
    }
    return cmd_batch_replicated(opts, part, shards, queries, sched,
                                num_replicas);
  }

  Cluster cluster(machines);
  if (!configure_recovery(cluster, opts)) return 2;
  const auto run =
      run_concurrent_queries(cluster, shards, part, queries, sched);

  ResponseTimeSeries times("batch");
  for (const auto& qr : run.queries) times.add(qr.sim_seconds);
  std::printf("%zu concurrent %u-hop queries on %u machines: "
              "mean %.4fs p50 %.4fs p90 %.4fs max %.4fs "
              "(%zu batches, %s peak memory)\n",
              count, unsigned{k}, machines, times.mean(),
              times.percentile(50), times.percentile(90), times.max(),
              run.batches,
              AsciiTable::humanize(run.peak_memory_bytes).c_str());
  print_recovery_report(cluster);
  // The service already published every batch's machine and fabric
  // counters; only the recovery counters live on the cluster.
  cluster.publish_recovery_metrics(obs::MetricsRegistry::global());
  return 0;
}

int cmd_pagerank(const Options& opts) {
  const std::string in = opts.get("in");
  if (in.empty()) return usage();
  const LoadResult loaded = load_any(in);
  const Graph g =
      Graph::build(EdgeList(loaded.edges.edges()), loaded.num_vertices);
  const auto machines = static_cast<PartitionId>(opts.get_int("machines", 4));
  const auto iters =
      static_cast<std::uint64_t>(opts.get_int("iterations", 10));

  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);
  if (opts.has("threads")) {
    cluster.set_compute_threads(
        static_cast<std::size_t>(opts.get_int("threads", 1)));
  }
  if (!configure_recovery(cluster, opts)) return 2;
  const GasResult r = run_pagerank(cluster, shards, part, iters);

  // Top 5 vertices by rank.
  std::vector<VertexId> order(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
  std::partial_sort(order.begin(),
                    order.begin() + std::min<std::size_t>(5, order.size()),
                    order.end(), [&](VertexId a, VertexId b) {
                      return r.values[a] > r.values[b];
                    });
  std::printf("pagerank: %llu iterations in %.4f s sim (%.4f s wall), "
              "%s traffic\n",
              static_cast<unsigned long long>(iters), r.stats.sim_seconds,
              r.stats.wall_seconds,
              AsciiTable::humanize(r.stats.bytes).c_str());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
    std::printf("  #%zu vertex %u rank %.3f\n", i + 1, order[i],
                r.values[order[i]]);
  }
  print_recovery_report(cluster);
  cluster.publish_metrics(obs::MetricsRegistry::global());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Options opts(argc - 1, argv + 1);

  // --trace-out PATH: record the whole command under an event tracer and
  // export it afterwards (.jsonl => JSONL, else Chrome trace JSON).
  // Anomalous queries additionally get flight dumps in PATH.flight/.
  const std::string trace_out = opts.get("trace-out");
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::EventTracer::Scope> trace_scope;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::EventTracer>();
    trace_scope = std::make_unique<obs::EventTracer::Scope>(*tracer);
  }

  int rc = 2;
  // Loader/ingestion errors (malformed edge lists, truncated files,
  // out-of-range ids) surface as exceptions; fail with a message instead
  // of crashing.
  try {
    if (cmd == "gen") rc = cmd_gen(opts);
    else if (cmd == "convert") rc = cmd_convert(opts);
    else if (cmd == "stats") rc = cmd_stats(opts);
    else if (cmd == "query") rc = cmd_query(opts);
    else if (cmd == "batch") rc = cmd_batch(opts);
    else if (cmd == "pagerank") rc = cmd_pagerank(opts);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cgraph_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }

  if (tracer != nullptr) {
    trace_scope.reset();  // stop recording before exporting
    if (!obs::write_trace_file(*tracer, trace_out)) rc = rc == 0 ? 1 : rc;
    obs::FlightRecorderOptions fr_opts;
    fr_opts.fault_seed =
        static_cast<std::uint64_t>(opts.get_int("fault-seed", 1));
    fr_opts.config = "cgraph_tool " + cmd;
    obs::FlightRecorder recorder(fr_opts);
    recorder.ingest(*tracer);
    if (g_degraded_shutdown) {
      // Degraded-mode shutdown: per-query dumps only fire for queries
      // that individually tripped, so flush the replica-phase events as a
      // service-level record too — the failover post-mortem.
      std::vector<obs::TraceEvent> replica_events;
      for (const obs::TraceEvent& ev : tracer->snapshot()) {
        switch (ev.phase) {
          case obs::TraceEventPhase::kReplicaRoute:
          case obs::TraceEventPhase::kHeartbeatMiss:
          case obs::TraceEventPhase::kReplicaFailover:
          case obs::TraceEventPhase::kQueryFailedOver:
            replica_events.push_back(ev);
            break;
          default:
            break;
        }
      }
      recorder.add_service_record("degraded", std::move(replica_events));
    }
    if (!recorder.anomalies().empty()) {
      const std::size_t dumps = recorder.write_dumps(trace_out + ".flight");
      std::printf("flight recorder: %zu anomalies, %zu dumps in %s.flight/\n",
                  recorder.anomalies().size(), dumps, trace_out.c_str());
    }
  }

  std::string metrics_out = opts.get("metrics-out");
  if (metrics_out.empty() && g_degraded_shutdown) {
    // Degraded-mode shutdown always flushes metrics: the replica health
    // gauges and failover counters are the post-mortem.
    metrics_out = "cgraph_tool_degraded.prom";
  }
  if (!metrics_out.empty()) {
    if (!obs::write_metrics_file(metrics_out)) rc = rc == 0 ? 1 : rc;
  } else {
    obs::maybe_write_metrics_env();
  }
  return rc;
}
