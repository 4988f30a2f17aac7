#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sweep/dependency.hpp"

namespace unsnap::sweep {

/// How build_schedule resolves cyclic sweep dependencies (possible on
/// strongly twisted meshes, where faces rotate far enough that a ring of
/// elements feeds itself under some ordinates).
enum class CycleStrategy {
  /// Throw NumericalError on the first stall — the paper's behaviour.
  Abort,
  /// Tarjan SCC condensation up front: find every strongly connected
  /// component of the per-angle dependency graph, then break each
  /// component by lagging its smallest-|n.omega| internal face until the
  /// component is acyclic (deterministic (element, face) tie-breaking).
  /// The schedule construction then never stalls, and the lagged set is
  /// confined to provably cyclic regions.
  LagScc,
};

[[nodiscard]] std::string to_string(CycleStrategy strategy);
[[nodiscard]] CycleStrategy cycle_strategy_from_string(
    const std::string& name);

/// Strongly connected components of a directed graph given as successor
/// lists. Component ids are dense (0..count-1) and assigned in reverse
/// topological order of the condensation (Tarjan's natural output): if any
/// edge u -> v crosses components, component[v] < component[u].
struct SccResult {
  std::vector<int> component;  // vertex -> component id
  int count = 0;

  [[nodiscard]] std::vector<int> component_sizes() const;
  /// Number of components with more than one vertex (the cyclic ones; the
  /// dependency graph has no self loops).
  [[nodiscard]] int num_nontrivial() const;
};

/// Iterative Tarjan over an adjacency list (no recursion, so meshes of any
/// size are safe).
[[nodiscard]] SccResult strongly_connected_components(
    const std::vector<std::vector<int>>& successors);

/// The per-angle element dependency graph as successor lists: an edge
/// e -> nbr exists when e's outgoing face feeds nbr (nbr sees the shared
/// face as incoming). Faces marked in `lagged_mask` (bit f of element e set
/// => incoming face f of e is lagged) are excluded; pass an empty vector
/// for no lagging.
[[nodiscard]] std::vector<std::vector<int>> dependency_successors(
    const mesh::HexMesh& mesh, const AngleDependency& dep,
    const std::vector<std::uint8_t>& lagged_mask);

/// Break every cycle of the dependency graph by SCC condensation: while a
/// non-trivial component exists, lag that component's internal incoming
/// face with the smallest upwind flow |n . dep.omega| (ties broken on the
/// lowest (element, face) pair, so the lagged set is bit-reproducible),
/// then recompute the components. Returns the lagged (element, face) pairs
/// in the order they were broken and fills `lagged_mask` (sized to the
/// mesh, bit f of element e set => face lagged). The result graph is
/// acyclic by construction.
[[nodiscard]] std::vector<std::pair<int, int>> break_cycles_scc(
    const mesh::HexMesh& mesh, const AngleDependency& dep,
    std::vector<std::uint8_t>& lagged_mask);

}  // namespace unsnap::sweep
