#include "query/paths.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cgraph {

std::vector<VertexId> reconstruct_path(const ParentList& parents,
                                       VertexId source, VertexId target) {
  if (source == target) return {source};
  std::unordered_map<VertexId, VertexId> parent_of;
  parent_of.reserve(parents.size());
  for (const auto& [v, p] : parents) parent_of.emplace(v, p);

  std::vector<VertexId> path{target};
  VertexId cur = target;
  while (cur != source) {
    const auto it = parent_of.find(cur);
    if (it == parent_of.end()) return {};  // unreachable
    cur = it->second;
    path.push_back(cur);
    CGRAPH_CHECK_MSG(path.size() <= parents.size() + 2,
                     "cycle in parent list");
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cgraph
