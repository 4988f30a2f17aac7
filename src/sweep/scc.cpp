#include "sweep/scc.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace unsnap::sweep {

std::string to_string(CycleStrategy strategy) {
  switch (strategy) {
    case CycleStrategy::Abort: return "abort";
    case CycleStrategy::LagScc: return "lag-scc";
  }
  UNSNAP_ASSERT(false);
  return {};
}

CycleStrategy cycle_strategy_from_string(const std::string& name) {
  if (name == "abort") return CycleStrategy::Abort;
  if (name == "lag-scc") return CycleStrategy::LagScc;
  throw InvalidInput("unknown cycle strategy '" + name +
                     "' (expected abort or lag-scc)");
}

std::vector<int> SccResult::component_sizes() const {
  std::vector<int> sizes(static_cast<std::size_t>(count), 0);
  for (const int c : component) ++sizes[static_cast<std::size_t>(c)];
  return sizes;
}

int SccResult::num_nontrivial() const {
  int nontrivial = 0;
  for (const int size : component_sizes())
    if (size > 1) ++nontrivial;
  return nontrivial;
}

SccResult strongly_connected_components(
    const std::vector<std::vector<int>>& successors) {
  const int n = static_cast<int>(successors.size());
  SccResult result;
  result.component.assign(static_cast<std::size_t>(n), -1);

  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> lowlink(static_cast<std::size_t>(n), 0);
  std::vector<char> on_stack(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  // Explicit DFS frames instead of recursion: `child` is the next
  // successor of `v` to visit.
  struct Frame {
    int v;
    std::size_t child;
  };
  std::vector<Frame> frames;
  int next_index = 0;

  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    frames.push_back({root, 0});

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const int v = frame.v;
      if (frame.child < successors[static_cast<std::size_t>(v)].size()) {
        const int w = successors[static_cast<std::size_t>(v)][frame.child++];
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
      if (lowlink[v] == index[v]) {
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          result.component[static_cast<std::size_t>(w)] = result.count;
          if (w == v) break;
        }
        ++result.count;
      }
    }
  }
  return result;
}

std::vector<std::vector<int>> dependency_successors(
    const mesh::HexMesh& mesh, const AngleDependency& dep,
    const std::vector<std::uint8_t>& lagged_mask) {
  const int ne = mesh.num_elements();
  const auto is_lagged = [&lagged_mask](int e, int f) {
    return !lagged_mask.empty() &&
           ((lagged_mask[static_cast<std::size_t>(e)] >> f) & 1u);
  };
  std::vector<std::vector<int>> successors(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    for (int f = 0; f < fem::kFacesPerHex; ++f) {
      if (dep.is_incoming(e, f)) continue;  // outgoing faces only
      const int nbr = mesh.neighbor(e, f);
      if (nbr == mesh::kNoNeighbor) continue;
      // Same edge rule as the Kahn relaxation, seen from the downstream
      // (neighbour's) side.
      const int nbr_face = mesh.neighbor_face(e, f);
      if (!is_dependency_edge(mesh, dep, nbr, nbr_face)) continue;
      if (is_lagged(nbr, nbr_face)) continue;
      successors[static_cast<std::size_t>(e)].push_back(nbr);
    }
  }
  return successors;
}

std::vector<std::pair<int, int>> break_cycles_scc(
    const mesh::HexMesh& mesh, const AngleDependency& dep,
    std::vector<std::uint8_t>& lagged_mask) {
  const int ne = mesh.num_elements();
  lagged_mask.assign(static_cast<std::size_t>(ne), 0);
  std::vector<std::pair<int, int>> lagged;

  while (true) {
    const SccResult scc = strongly_connected_components(
        dependency_successors(mesh, dep, lagged_mask));
    if (scc.num_nontrivial() == 0) break;
    const std::vector<int> sizes = scc.component_sizes();

    // One face per cyclic component per round: the internal incoming face
    // with the smallest upwind flow |n . omega|. Scanning elements and
    // faces in ascending order with a strict `<` makes the lowest
    // (element, face) pair win every tie, so the lagged set is identical
    // run to run and platform to platform.
    std::vector<int> best_e(static_cast<std::size_t>(scc.count), -1);
    std::vector<int> best_f(static_cast<std::size_t>(scc.count), -1);
    std::vector<double> best_flow(static_cast<std::size_t>(scc.count), 0.0);
    for (int e = 0; e < ne; ++e) {
      const int c = scc.component[static_cast<std::size_t>(e)];
      if (sizes[static_cast<std::size_t>(c)] < 2) continue;
      for (int f = 0; f < fem::kFacesPerHex; ++f) {
        // Only actual graph edges are candidates; lagging a non-edge
        // would decrement a dependency that was never counted.
        if (!is_dependency_edge(mesh, dep, e, f)) continue;
        if ((lagged_mask[static_cast<std::size_t>(e)] >> f) & 1u) continue;
        const int nbr = mesh.neighbor(e, f);
        if (scc.component[static_cast<std::size_t>(nbr)] != c) continue;
        const double flow =
            std::fabs(fem::dot(mesh.face_area_normal(e, f), dep.omega));
        auto& be = best_e[static_cast<std::size_t>(c)];
        if (be < 0 || flow < best_flow[static_cast<std::size_t>(c)]) {
          be = e;
          best_f[static_cast<std::size_t>(c)] = f;
          best_flow[static_cast<std::size_t>(c)] = flow;
        }
      }
    }
    const std::size_t before = lagged.size();
    for (int c = 0; c < scc.count; ++c) {
      if (best_e[static_cast<std::size_t>(c)] < 0) continue;
      const int e = best_e[static_cast<std::size_t>(c)];
      const int f = best_f[static_cast<std::size_t>(c)];
      lagged_mask[static_cast<std::size_t>(e)] |=
          static_cast<std::uint8_t>(1u << f);
      lagged.emplace_back(e, f);
    }
    // A cyclic component always has an internal incoming face to lag.
    UNSNAP_ASSERT(lagged.size() > before);
    // Every non-trivial component lost an internal edge, so the loop
    // terminates after at most |interior faces| rounds.
  }
  return lagged;
}

}  // namespace unsnap::sweep
