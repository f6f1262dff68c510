// TitanLike: the graph-database baseline (paper §4.2 compares against
// Titan [3], a distributed graph DB whose concurrent 3-hop queries average
// ~8.6 s with 100 s tails on a 117 M edge graph).
//
// Architecture mirrored here: adjacency lists live as serialized row blobs
// in a key-value storage engine; a k-hop query is a BFS that performs one
// storage read + deserialization per expanded vertex; concurrent queries
// run on a session thread pool with a fixed per-query software-stack
// overhead. No state is shared between queries — each allocates its own
// visited set, exactly the behaviour that makes real graph databases slow
// and high-variance under concurrency.
#pragma once

#include <span>
#include <vector>

#include "baseline/kvstore.hpp"
#include "graph/graph.hpp"
#include "query/query.hpp"

namespace cgraph {

struct TitanLikeOptions {
  KvStoreOptions storage;
  /// Fixed software-stack cost per query (session setup, query parsing,
  /// JVM-ish bookkeeping). Titan's stack is far thicker than this.
  double per_query_overhead_ms = 2.0;
  /// Worker threads serving concurrent sessions.
  std::size_t session_threads = 8;
};

class TitanLikeDb {
 public:
  using Options = TitanLikeOptions;

  explicit TitanLikeDb(Options opts = {});

  /// Bulk-load a graph: one storage row per vertex adjacency.
  void load(const Graph& graph);

  [[nodiscard]] VertexId num_vertices() const { return num_vertices_; }

  /// One k-hop query through the storage stack. Returns visited count
  /// (source excluded) and fills wall_seconds.
  QueryResult khop(const KHopQuery& query) const;

  /// Run a set of concurrent queries on the session pool; per-query
  /// response times include queueing for a session thread.
  std::vector<QueryResult> run_concurrent(
      std::span<const KHopQuery> queries) const;

  /// One PageRank iteration through the storage stack (full scan, one read
  /// per vertex row). Returns wall seconds — the paper reports "hours" for
  /// Titan on OR-100M; here it demonstrates the same orders-of-magnitude
  /// gap against the native engine.
  double pagerank_iteration_seconds() const;

  /// The storage backend (read counts for the modelled I/O cost).
  [[nodiscard]] const KvStore& store() const { return store_; }

 private:
  [[nodiscard]] std::vector<VertexId> fetch_neighbors(VertexId v) const;

  Options opts_;
  KvStore store_;
  VertexId num_vertices_ = 0;
};

}  // namespace cgraph
