#include "baseline/titanlike.hpp"

#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cgraph {
namespace {

std::string row_key(VertexId v) { return "adj:" + std::to_string(v); }

std::vector<std::uint8_t> serialize_row(std::span<const VertexId> nbrs) {
  std::vector<std::uint8_t> blob(sizeof(std::uint32_t) +
                                 nbrs.size_bytes());
  const auto n = static_cast<std::uint32_t>(nbrs.size());
  std::memcpy(blob.data(), &n, sizeof n);
  // A zero-degree row may come with a null data(); memcpy forbids null
  // pointers even for zero-length copies.
  if (!nbrs.empty()) {
    std::memcpy(blob.data() + sizeof n, nbrs.data(), nbrs.size_bytes());
  }
  return blob;
}

std::vector<VertexId> deserialize_row(const std::vector<std::uint8_t>& blob) {
  CGRAPH_CHECK(blob.size() >= sizeof(std::uint32_t));
  std::uint32_t n = 0;
  std::memcpy(&n, blob.data(), sizeof n);
  CGRAPH_CHECK(blob.size() == sizeof n + n * sizeof(VertexId));
  std::vector<VertexId> nbrs(n);
  if (n != 0) {
    std::memcpy(nbrs.data(), blob.data() + sizeof n, n * sizeof(VertexId));
  }
  return nbrs;
}

}  // namespace

TitanLikeDb::TitanLikeDb(Options opts)
    : opts_(opts), store_(opts.storage) {}

void TitanLikeDb::load(const Graph& graph) {
  num_vertices_ = graph.num_vertices();
  for (VertexId v = 0; v < num_vertices_; ++v) {
    store_.put(row_key(v), serialize_row(graph.out_neighbors(v)));
  }
}

std::vector<VertexId> TitanLikeDb::fetch_neighbors(VertexId v) const {
  auto blob = store_.get(row_key(v));
  CGRAPH_CHECK_MSG(blob.has_value(), "missing adjacency row");
  return deserialize_row(*blob);
}

QueryResult TitanLikeDb::khop(const KHopQuery& query) const {
  CGRAPH_CHECK(query.source < num_vertices_);
  WallTimer timer;

  // Software-stack overhead before the traversal even starts.
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      static_cast<std::int64_t>(opts_.per_query_overhead_ms * 1e6)));

  // Plain BFS with per-query containers — no sharing with other sessions.
  std::unordered_set<VertexId> visited{query.source};
  std::vector<VertexId> frontier{query.source};
  std::vector<VertexId> next;
  Depth level = 0;
  while (!frontier.empty() && level < query.k) {
    next.clear();
    for (VertexId v : frontier) {
      for (VertexId t : fetch_neighbors(v)) {
        if (visited.insert(t).second) next.push_back(t);
      }
    }
    frontier.swap(next);
    ++level;
  }

  QueryResult result;
  result.id = query.id;
  result.visited = visited.size() - 1;
  result.levels = level;
  result.wall_seconds = timer.seconds();
  result.sim_seconds = result.wall_seconds;
  return result;
}

std::vector<QueryResult> TitanLikeDb::run_concurrent(
    std::span<const KHopQuery> queries) const {
  std::vector<QueryResult> results(queries.size());
  WallTimer submit;  // all queries are submitted at t = 0
  {
    ThreadPool pool(opts_.session_threads);
    std::vector<std::future<void>> futs;
    futs.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      futs.push_back(pool.submit([this, &queries, &results, &submit, i] {
        const KHopQuery q = queries[i];
        QueryResult r = khop(q);
        // Response time = completion since submission (includes the wait
        // for a free session thread).
        r.wall_seconds = submit.seconds();
        r.sim_seconds = r.wall_seconds;
        results[i] = r;
      }));
    }
    for (auto& f : futs) f.get();
  }
  return results;
}

double TitanLikeDb::pagerank_iteration_seconds() const {
  WallTimer timer;
  std::vector<double> contrib(num_vertices_, 0.0);
  std::vector<double> value(num_vertices_, 1.0);
  // One iteration = one full storage scan: read every adjacency row,
  // deserialize, push contributions.
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const auto nbrs = fetch_neighbors(v);
    if (nbrs.empty()) continue;
    const double share = value[v] / static_cast<double>(nbrs.size());
    for (VertexId t : nbrs) contrib[t] += share;
  }
  for (VertexId v = 0; v < num_vertices_; ++v) {
    value[v] = 0.15 + 0.85 * contrib[v];
  }
  return timer.seconds();
}

}  // namespace cgraph
