#include "index/reach_index.hpp"

#include <algorithm>

#include "net/cost_model.hpp"
#include "util/assert.hpp"

namespace cgraph {

const char* to_string(IndexMode mode) {
  switch (mode) {
    case IndexMode::kOff:
      return "off";
    case IndexMode::kGrail:
      return "grail";
    case IndexMode::kGates:
      return "gates";
    case IndexMode::kFull:
      return "full";
  }
  return "unknown";
}

std::optional<IndexMode> parse_index_mode(std::string_view s) {
  if (s == "off") return IndexMode::kOff;
  if (s == "grail") return IndexMode::kGrail;
  if (s == "gates") return IndexMode::kGates;
  if (s == "full") return IndexMode::kFull;
  return std::nullopt;
}

const char* to_string(IndexVerdict verdict) {
  switch (verdict) {
    case IndexVerdict::kReachable:
      return "reachable";
    case IndexVerdict::kUnreachable:
      return "unreachable";
    case IndexVerdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

ReachIndex ReachIndex::build(const Graph& graph, const IndexOptions& opts) {
  ReachIndex idx;
  idx.opts_ = opts;
  if (opts.mode == IndexMode::kOff) return idx;

  idx.scc_ = condense(graph);
  const bool want_labels =
      opts.mode == IndexMode::kGrail || opts.mode == IndexMode::kFull;
  const bool want_gates =
      opts.mode == IndexMode::kGates || opts.mode == IndexMode::kFull;
  if (want_labels) {
    idx.labels_.build(idx.scc_, {opts.num_labels, opts.seed});
  }
  if (want_gates) {
    idx.gates_.build(idx.scc_, {opts.num_gates});
  }

  IndexBuildStats& st = idx.stats_;
  st.num_components = idx.scc_.num_components;
  st.largest_component =
      idx.scc_.component_size.empty()
          ? 0
          : *std::max_element(idx.scc_.component_size.begin(),
                              idx.scc_.component_size.end());
  st.dag_edges = idx.scc_.num_dag_edges();
  st.num_labels = want_labels ? idx.labels_.num_labels() : 0;
  st.num_gates = want_gates ? idx.gates_.num_gates() : 0;
  st.label_bytes = idx.labels_.memory_bytes();
  st.gate_bytes = idx.gates_.memory_bytes();

  // Construction is offline but not free: charge the Tarjan pass over the
  // raw graph plus every DAG edge the label/gate builders walked, under
  // the same CostModel the cluster's simulated clocks use.
  const CostModel cm;
  const double ns =
      cm.compute_ns(graph.num_edges(), graph.num_vertices()) +
      cm.compute_ns(idx.labels_.build_edges_walked(),
                    want_labels ? idx.scc_.num_components : 0) +
      cm.compute_ns(idx.gates_.build_edges_walked(),
                    want_gates ? idx.scc_.num_components : 0);
  st.build_sim_seconds = ns * 1e-9;
  return idx;
}

IndexVerdict ReachIndex::query(VertexId s, VertexId t, Depth k,
                               bool constrained) const {
  // Constrained queries carry semantics (weight/label budgets) the index
  // does not model; answering them here would be unsound by construction.
  if (constrained) return IndexVerdict::kUnknown;
  // The zero-hop path s == t is reachable for every k >= 0 regardless of
  // index mode, build state, or epoch — answering it up front keeps the
  // trivially-reachable self query out of the label machinery (and out of
  // the traversal engine when the index is off, empty, or stale).
  if (s == t) return IndexVerdict::kReachable;
  if (opts_.mode == IndexMode::kOff || scc_.num_vertices == 0) {
    return IndexVerdict::kUnknown;
  }
  CGRAPH_CHECK(s < scc_.num_vertices && t < scc_.num_vertices);
  // A superseded snapshot can no longer prove anything about the live
  // graph: inserts break kUnreachable, deletes break kReachable. Fall
  // back to traversal until the offline rebuild.
  if (stale()) return IndexVerdict::kUnknown;

  const VertexId cs = scc_.component[s];
  const VertexId ct = scc_.component[t];
  const bool unbounded = k == kUnvisitedDepth;

  if (cs == ct) {
    // Same SCC: a path exists, but its length is unknown (the SCC's
    // diameter is not indexed) — only the unbounded query may conclude.
    return unbounded ? IndexVerdict::kReachable : IndexVerdict::kUnknown;
  }
  // Component ids are reverse topological (scc.hpp): any path s -> t
  // implies comp(t) < comp(s). Sound for every k.
  if (ct > cs) return IndexVerdict::kUnreachable;

  const bool use_labels = !labels_.empty() &&
                          (opts_.mode == IndexMode::kGrail ||
                           opts_.mode == IndexMode::kFull);
  if (use_labels && !labels_.maybe_reaches(cs, ct)) {
    return IndexVerdict::kUnreachable;  // sound for every k
  }

  const bool use_gates = !gates_.empty() &&
                         (opts_.mode == IndexMode::kGates ||
                          opts_.mode == IndexMode::kFull);
  if (use_gates && unbounded && gates_.proves_reachable(cs, ct)) {
    return IndexVerdict::kReachable;  // witness path, length unbounded
  }
  return IndexVerdict::kUnknown;
}

double ReachIndex::probe_sim_seconds() const {
  if (opts_.mode == IndexMode::kOff) return 0;
  // Two component-map lookups + per-label interval compares (charged as
  // vertex touches) and one AND sweep over the gate words (charged as
  // edge-sized word ops) — a pure function of index shape.
  const CostModel cm;
  const double ns =
      cm.ns_per_vertex *
          (2.0 + 2.0 * static_cast<double>(labels_.num_labels())) +
      cm.ns_per_edge * 2.0 * static_cast<double>(gates_.words_per_row());
  return ns * 1e-9;
}

namespace {

inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  // SplitMix64 finalizer over a running combine: order-sensitive and
  // avalanche-complete, cheap enough for full-array fingerprints.
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t ReachIndex::fingerprint() const {
  std::uint64_t h = 0x1d8e4e27c47d124fULL;
  h = mix64(h, static_cast<std::uint64_t>(opts_.mode));
  h = mix64(h, built_epoch_);
  h = mix64(h, scc_.num_vertices);
  h = mix64(h, scc_.num_components);
  for (const VertexId c : scc_.component) h = mix64(h, c);
  for (const VertexId t : scc_.dag_targets) h = mix64(h, t);
  for (const std::uint32_t b : labels_.begins()) h = mix64(h, b);
  for (const std::uint32_t e : labels_.posts()) h = mix64(h, e);
  for (const VertexId g : gates_.gates()) h = mix64(h, g);
  for (const Word w : gates_.out_gate_rows()) h = mix64(h, w);
  for (const Word w : gates_.in_gate_rows()) h = mix64(h, w);
  for (const Word w : gates_.gate_closure()) h = mix64(h, w);
  return h;
}

void publish_index_metrics(obs::MetricsRegistry& registry,
                           const ReachIndex& index) {
  registry
      .gauge("cgraph_index_build_sim_seconds",
             "Modeled offline construction cost of the reachability index")
      .set(index.stats().build_sim_seconds);
  registry
      .gauge("cgraph_index_memory_bytes",
             "Resident bytes of the reachability index structures")
      .set(static_cast<double>(index.memory_bytes()));
}

}  // namespace cgraph
