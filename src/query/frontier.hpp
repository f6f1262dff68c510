// Frontier state for concurrent traversals (paper §3.5).
//
// Instead of task queues/sets — whose union operations, dynamic allocation
// and locking dominate at high query counts — each query keeps 2 bits per
// vertex for "in current frontier" / "in next frontier" plus 1 bit for
// "visited", stored in word-packed arrays for constant-time access. A
// batch of queries shares the vertex dimension, so one edge-set scan
// advances every query in the batch (MS-BFS).
//
// LevelValueStore implements the paper's dynamic resource allocation: a
// traversal only retains vertex values (depths/parents) for the previous
// and current levels rather than a dense value per vertex per query.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "net/serialize.hpp"
#include "util/bitops.hpp"

namespace cgraph {

/// Frontier density summary, the deterministic input of the
/// direction-optimizing heuristic (see query/direction.hpp). Produced as a
/// by-product of the commit pass — popcounts over words the commit already
/// touches, never an extra scan and never a per-bit loop.
struct FrontierOccupancy {
  /// Rows (vertices) with at least one frontier bit set.
  std::uint64_t active_rows = 0;
  /// Total set frontier bits (row popcounts summed).
  std::uint64_t active_bits = 0;
  /// Sum of out-degrees over active rows: the Beamer scout count — the
  /// edges the next top-down scan would charge. Zero when no degree table
  /// was supplied.
  std::uint64_t scout_edges = 0;

  FrontierOccupancy& operator+=(const FrontierOccupancy& o) {
    active_rows += o.active_rows;
    active_bits += o.active_bits;
    scout_edges += o.scout_edges;
    return *this;
  }
};

/// Per-batch traversal state over a (local) vertex range: three bit planes
/// indexed [vertex][query].
class BatchFrontier {
 public:
  BatchFrontier() = default;
  BatchFrontier(std::size_t num_vertices, std::size_t num_queries)
      : frontier_(num_vertices, num_queries),
        next_(num_vertices, num_queries),
        visited_(num_vertices, num_queries) {}

  [[nodiscard]] std::size_t num_vertices() const { return frontier_.rows(); }
  [[nodiscard]] std::size_t num_queries() const {
    return frontier_.queries();
  }
  [[nodiscard]] std::size_t words_per_row() const {
    return frontier_.words_per_row();
  }

  [[nodiscard]] QueryBitRows& frontier() { return frontier_; }
  [[nodiscard]] QueryBitRows& next() { return next_; }
  [[nodiscard]] QueryBitRows& visited() { return visited_; }
  [[nodiscard]] const QueryBitRows& frontier() const { return frontier_; }
  [[nodiscard]] const QueryBitRows& next() const { return next_; }
  [[nodiscard]] const QueryBitRows& visited() const { return visited_; }

  /// Seed query q at local vertex v (marks frontier + visited).
  void seed(std::size_t v, std::size_t q) {
    frontier_.set(v, q);
    visited_.set(v, q);
  }

  /// Merge `next` bits for vertex v: bits not yet visited become frontier-
  /// next and visited. Returns the word-mask of queries newly discovered.
  /// This is the paper Fig. 6 update: frontierNext |= bits & ~visited.
  void discover(std::size_t v, const Word* query_bits) {
    Word* nx = next_.row(v);
    Word* vis = visited_.row(v);
    for (std::size_t w = 0; w < frontier_.words_per_row(); ++w) {
      const Word fresh = query_bits[w] & ~vis[w];
      nx[w] |= fresh;
      vis[w] |= fresh;
    }
  }

  /// Deferred-commit discover for parallel edge-set scans: the next plane
  /// takes `bits & ~visited` via a test-first relaxed atomic OR
  /// (atomic_or_word: no locked write when every fresh bit is already
  /// set), while the visited plane is treated as read-only for the whole
  /// level and folded in once by commit_rows(). OR is commutative and
  /// idempotent, so the result is identical for any thread count and
  /// interleaving — this is what keeps threads=1 and threads=N bit-exact.
  void discover_atomic(std::size_t v, const Word* query_bits) {
    Word* nx = next_.row(v);
    const Word* vis = visited_.row(v);
    for (std::size_t w = 0; w < frontier_.words_per_row(); ++w) {
      const Word fresh = query_bits[w] & ~vis[w];
      if (fresh != 0) atomic_or_word(&nx[w], fresh);
    }
  }

  /// Close a level for rows [begin, end): fold the next plane into
  /// visited (the once-per-level visited update paired with
  /// discover_atomic) and OR each next row into `nonempty_out`
  /// (words_per_row() words, the per-query occupancy mask). Disjoint row
  /// ranges may be committed concurrently; call only after every
  /// discover_atomic of the level has completed (a pool join provides the
  /// needed ordering).
  void commit_rows(std::size_t begin, std::size_t end, Word* nonempty_out) {
    commit_rows(begin, end, nonempty_out, {}, nullptr);
  }

  /// commit_rows with density accounting: additionally popcounts each next
  /// row while it is being folded (O(words) per row, no second pass) and
  /// returns the closing level's FrontierOccupancy — after the matching
  /// advance() this describes the *new* frontier, which is exactly what
  /// the next level's direction decision needs. `degrees`, when non-empty,
  /// supplies per-row out-degrees for the scout count; `active_out`, when
  /// non-null, collects the active row ids in ascending order (the
  /// bitmap->queue side of the sparse-frontier conversion, built while the
  /// words are already hot instead of by rescanning the plane).
  FrontierOccupancy commit_rows(std::size_t begin, std::size_t end,
                                Word* nonempty_out,
                                std::span<const EdgeIndex> degrees,
                                std::vector<VertexId>* active_out) {
    const std::size_t W = frontier_.words_per_row();
    FrontierOccupancy occ;
    for (std::size_t v = begin; v < end; ++v) {
      const Word* nx = next_.row(v);
      Word* vis = visited_.row(v);
      Word any = 0;
      for (std::size_t w = 0; w < W; ++w) {
        vis[w] |= nx[w];
        nonempty_out[w] |= nx[w];
        any |= nx[w];
      }
      if (any == 0) continue;
      ++occ.active_rows;
      occ.active_bits += popcount_words(nx, W);
      if (!degrees.empty()) occ.scout_edges += degrees[v];
      if (active_out != nullptr) {
        active_out->push_back(static_cast<VertexId>(v));
      }
    }
    return occ;
  }

  /// Recompute the current frontier plane's occupancy directly (O(rows *
  /// words) with one popcount per word). The engines use this only where
  /// no commit pass preceded the level — at seed time and when resuming
  /// from a restored checkpoint — and it reproduces the commit-carried
  /// values exactly, which is what keeps the direction heuristic's replay
  /// bit-exact after a crash.
  [[nodiscard]] FrontierOccupancy frontier_occupancy(
      std::span<const EdgeIndex> degrees = {}) const {
    const std::size_t W = frontier_.words_per_row();
    FrontierOccupancy occ;
    for (std::size_t v = 0; v < frontier_.rows(); ++v) {
      const Word* row = frontier_.row(v);
      const std::uint64_t bits = popcount_words(row, W);
      if (bits == 0) continue;
      ++occ.active_rows;
      occ.active_bits += bits;
      if (!degrees.empty()) occ.scout_edges += degrees[v];
    }
    return occ;
  }

  /// Bitmap -> queue conversion: collect the rows with any frontier bit,
  /// ascending. Returns the queue length. The sparse top-down scan
  /// iterates this queue instead of testing every row; the inverse
  /// conversion below restores a plane from the queue.
  std::size_t frontier_to_queue(std::vector<VertexId>& out) const {
    out.clear();
    for (std::size_t v = 0; v < frontier_.rows(); ++v) {
      if (frontier_.row_any(v)) out.push_back(static_cast<VertexId>(v));
    }
    return out.size();
  }

  /// Queue -> bitmap conversion: rebuild the frontier plane from a queue
  /// of active rows plus the plane the rows were captured from. Rows not
  /// in the queue are cleared. With a queue produced by frontier_to_queue
  /// on `src` this is an exact inverse (round-trip property-tested).
  void frontier_from_queue(std::span<const VertexId> queue,
                           const QueryBitRows& src) {
    const std::size_t W = frontier_.words_per_row();
    CGRAPH_CHECK(src.rows() == frontier_.rows() &&
                 src.words_per_row() == W);
    frontier_.clear_all();
    for (VertexId v : queue) {
      const Word* s = src.row(v);
      Word* d = frontier_.row(v);
      for (std::size_t w = 0; w < W; ++w) d[w] = s[w];
    }
  }

  /// Bottom-up (pull) update for row v — the CSC word-AND kernel. want =
  /// expand & ~visited(v); every parent in `parents` whose global id falls
  /// in [parent_begin, parent_end) (ids sorted ascending, the CSR
  /// invariant, so the window is found by binary search) contributes
  /// frontier(parent - parent_begin) & want into next(v), one AND per
  /// 64-query word; a query's bit is retired as soon as one parent
  /// supplies it and the loop exits early once every wanted bit is found.
  /// The row is written by exactly one thread (scans partition rows), so
  /// the writes are plain — no atomics — and commit_rows() folds next into
  /// visited as usual, which keeps pull bit-exact with push for any thread
  /// count. Returns the number of parent rows examined (what the scout
  /// heuristic charges as bottom-up work).
  std::uint64_t pull_row(std::size_t v, const Word* expand,
                         std::span<const VertexId> parents,
                         VertexId parent_begin, VertexId parent_end) {
    const std::size_t W = frontier_.words_per_row();
    Word want[QueryBitRows::kMaxBatchWords];
    const Word* vis = visited_.row(v);
    Word any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      want[w] = expand[w] & ~vis[w];
      any |= want[w];
    }
    if (any == 0) return 0;
    const auto lo =
        std::lower_bound(parents.begin(), parents.end(), parent_begin);
    const auto hi = std::lower_bound(lo, parents.end(), parent_end);
    Word* nx = next_.row(v);
    std::uint64_t examined = 0;
    for (auto it = lo; it != hi; ++it) {
      ++examined;
      const Word* pf =
          frontier_.row(static_cast<std::size_t>(*it - parent_begin));
      Word remaining = 0;
      for (std::size_t w = 0; w < W; ++w) {
        const Word add = pf[w] & want[w];
        nx[w] |= add;
        want[w] &= ~add;
        remaining |= want[w];
      }
      if (remaining == 0) break;
    }
    return examined;
  }

  /// Advance one level: frontier <- next, next <- 0. Returns true if the
  /// new frontier is non-empty (any query still active here). This variant
  /// rescans every row — O(V·W); prefer the mask overload when commit_rows
  /// already produced the occupancy.
  bool advance() {
    frontier_.swap(next_);
    next_.clear_all();
    for (std::size_t v = 0; v < frontier_.rows(); ++v) {
      if (frontier_.row_any(v)) return true;
    }
    return false;
  }

  /// Advance one level using the per-query occupancy mask commit_rows
  /// accumulated for the closing level (words_per_row() words): the
  /// activity answer is OR(mask) — O(words), no row rescan. The mask is
  /// exactly the OR of every next row, so this returns precisely what the
  /// scanning advance() would.
  bool advance(const Word* nonempty) {
    frontier_.swap(next_);
    next_.clear_all();
    Word any = 0;
    for (std::size_t w = 0; w < frontier_.words_per_row(); ++w) {
      any |= nonempty[w];
    }
    return any != 0;
  }

  /// Approximate memory footprint (the Fig. 12/13 memory discussion).
  /// Capacity-aware: counts the bytes the planes actually reserve, not
  /// just the bits in use, so a long-running service sees its true
  /// footprint.
  [[nodiscard]] std::size_t memory_bytes() const {
    return frontier_.capacity_bytes() + next_.capacity_bytes() +
           visited_.capacity_bytes();
  }

  /// Release the planes' storage entirely (burst-then-idle shrink for
  /// long-running services). The frontier becomes 0-vertex; assign a fresh
  /// BatchFrontier to reuse it.
  void release() {
    frontier_.release();
    next_.release();
    visited_.release();
  }

  /// Checkpoint support: only the frontier and visited planes travel — at
  /// the top-of-level consistent cut where checkpoints are taken, the next
  /// plane is always empty (advance() just cleared it).
  void serialize(PacketWriter& w) const {
    w.write_span<Word>({frontier_.data(), frontier_.size_words()});
    w.write_span<Word>({visited_.data(), visited_.size_words()});
  }
  void deserialize(PacketReader& r) {
    const auto fr = r.read_vector<Word>();
    const auto vis = r.read_vector<Word>();
    CGRAPH_CHECK(fr.size() == frontier_.size_words());
    CGRAPH_CHECK(vis.size() == visited_.size_words());
    std::copy(fr.begin(), fr.end(), frontier_.data());
    std::copy(vis.begin(), vis.end(), visited_.data());
    next_.clear_all();
  }

 private:
  QueryBitRows frontier_;
  QueryBitRows next_;
  QueryBitRows visited_;
};

/// Sparse per-level vertex values: the traversal keeps (vertex, value)
/// pairs for the previous and current levels only, releasing older levels
/// (paper §3.3 "dynamic resource allocation").
template <typename V>
class LevelValueStore {
 public:
  using Entry = std::pair<VertexId, V>;

  /// Record a value for a vertex discovered in the current level.
  void record(VertexId v, const V& value) {
    current_.emplace_back(v, value);
  }

  /// Move to the next level: previous is dropped, current becomes previous.
  /// Shrink policy: the recycled buffer keeps its capacity only while that
  /// capacity is justified by recent occupancy (<= kShrinkSlack x the
  /// level just closed, with a small floor) — a burst no longer pins its
  /// peak allocation for the rest of a long-running service's life.
  void advance_level() {
    previous_.swap(current_);
    current_.clear();
    ++level_;
    const std::size_t justified = std::max<std::size_t>(
        kMinRetainedEntries, kShrinkSlack * previous_.size());
    if (current_.capacity() > justified) {
      current_.shrink_to_fit();
    }
  }

  [[nodiscard]] const std::vector<Entry>& current() const { return current_; }
  [[nodiscard]] const std::vector<Entry>& previous() const {
    return previous_;
  }
  [[nodiscard]] std::uint32_t level() const { return level_; }

  /// Peak entries held at once (for the memory-footprint comparison with a
  /// dense per-vertex store).
  [[nodiscard]] std::size_t live_entries() const {
    return previous_.size() + current_.size();
  }
  /// Capacity-aware footprint: what the vectors reserve, not just what
  /// they hold — size-based accounting under-reports after a burst.
  [[nodiscard]] std::size_t memory_bytes() const {
    return (previous_.capacity() + current_.capacity()) * sizeof(Entry);
  }

  /// Reset for reuse. Capacity is kept for the hot steady state; pass
  /// release_capacity=true (or call shrink()) when going idle so a burst
  /// returns its memory.
  void reset(bool release_capacity = false) {
    previous_.clear();
    current_.clear();
    level_ = 0;
    if (release_capacity) shrink();
  }

  /// Drop all spare capacity now (idle hook for long-running services).
  void shrink() {
    previous_.shrink_to_fit();
    current_.shrink_to_fit();
  }

 private:
  static constexpr std::size_t kShrinkSlack = 4;
  static constexpr std::size_t kMinRetainedEntries = 64;

  std::vector<Entry> previous_;
  std::vector<Entry> current_;
  std::uint32_t level_ = 0;
};

}  // namespace cgraph
