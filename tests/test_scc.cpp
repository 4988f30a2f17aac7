// Verification battery for the SCC scheduling subsystem: Tarjan on
// crafted graphs, cycle breaking on genuinely twisted meshes, and the
// solver-level guarantee that a mesh whose sweep aborts under
// CycleStrategy::Abort converges under CycleStrategy::LagScc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/transport_solver.hpp"
#include "mesh/mesh_builder.hpp"
#include "sweep/scc.hpp"
#include "sweep/schedule.hpp"

namespace unsnap::sweep {
namespace {

mesh::HexMesh make_mesh(std::array<int, 3> dims, double twist,
                        std::uint64_t shuffle) {
  mesh::MeshOptions opt;
  opt.dims = dims;
  opt.extent = {1.0, 1.0, 1.0};
  opt.twist = twist;
  opt.shuffle_seed = shuffle;
  return mesh::build_brick_mesh(opt);
}

/// The ordinate/mesh pairing known (and asserted by ScheduleDeterminism)
/// to produce cyclic dependencies: a strongly twisted flat brick and a
/// nearly-vertical direction.
struct CyclicCase {
  mesh::HexMesh mesh = make_mesh({6, 6, 3}, 2.5, 0);
  AngleDependency dep;
  CyclicCase() {
    const fem::Vec3 omega{0.38, 0.05, 0.92};
    const double norm = std::sqrt(fem::dot(omega, omega));
    dep = build_dependency(
        mesh, {omega[0] / norm, omega[1] / norm, omega[2] / norm});
  }
};

// ---- Tarjan on crafted graphs -------------------------------------------

TEST(Tarjan, ChainIsAllSingletons) {
  // 0 -> 1 -> 2 -> 3: four trivial components in reverse topological
  // order (the sink finishes first).
  const std::vector<std::vector<int>> g{{1}, {2}, {3}, {}};
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 4);
  EXPECT_EQ(scc.num_nontrivial(), 0);
  // Reverse topological: every edge u -> v has component[v] < component[u].
  EXPECT_LT(scc.component[1], scc.component[0]);
  EXPECT_LT(scc.component[2], scc.component[1]);
  EXPECT_LT(scc.component[3], scc.component[2]);
}

TEST(Tarjan, RingIsOneComponent) {
  const std::vector<std::vector<int>> g{{1}, {2}, {3}, {0}};
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 1);
  EXPECT_EQ(scc.num_nontrivial(), 1);
  EXPECT_EQ(scc.component_sizes(), std::vector<int>{4});
}

TEST(Tarjan, TwoRingsWithBridge) {
  // Ring {0,1,2} -> bridge -> ring {3,4}; vertex 5 dangles off the back.
  const std::vector<std::vector<int>> g{{1}, {2}, {0, 3}, {4}, {3}, {0}};
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 3);
  EXPECT_EQ(scc.num_nontrivial(), 2);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_EQ(scc.component[3], scc.component[4]);
  EXPECT_NE(scc.component[0], scc.component[3]);
  // The downstream ring {3,4} finishes first.
  EXPECT_LT(scc.component[3], scc.component[0]);
  std::vector<int> sizes = scc.component_sizes();
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<int>{1, 2, 3}));
}

TEST(Tarjan, DeepChainDoesNotOverflowTheStack) {
  // 200k-vertex chain: a recursive Tarjan would blow the call stack.
  const int n = 200000;
  std::vector<std::vector<int>> g(static_cast<std::size_t>(n));
  for (int v = 0; v + 1 < n; ++v) g[static_cast<std::size_t>(v)] = {v + 1};
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, n);
  EXPECT_EQ(scc.num_nontrivial(), 0);
}

TEST(Tarjan, SelfContainedDiamondReconverges) {
  // Diamond 0 -> {1, 2} -> 3 plus a back edge 3 -> 0: one component.
  const std::vector<std::vector<int>> g{{1, 2}, {3}, {3}, {0}};
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 1);
  EXPECT_EQ(scc.num_nontrivial(), 1);
}

// ---- dependency graphs on meshes ----------------------------------------

TEST(DependencyGraph, BrickAxisSweepIsAcyclic) {
  const mesh::HexMesh mesh = make_mesh({4, 4, 4}, 0.0, 5);
  const AngleDependency dep = build_dependency(mesh, {1.0, 0.0, 0.0});
  const SccResult scc =
      strongly_connected_components(dependency_successors(mesh, dep, {}));
  EXPECT_EQ(scc.count, mesh.num_elements());
  EXPECT_EQ(scc.num_nontrivial(), 0);
}

TEST(DependencyGraph, StrongTwistHasNontrivialComponent) {
  const CyclicCase c;
  const SccResult scc =
      strongly_connected_components(dependency_successors(c.mesh, c.dep, {}));
  EXPECT_GT(scc.num_nontrivial(), 0);
}

TEST(BreakCyclesScc, ResultGraphIsAcyclic) {
  const CyclicCase c;
  std::vector<std::uint8_t> lagged_mask;
  const auto lagged = break_cycles_scc(c.mesh, c.dep, lagged_mask);
  ASSERT_FALSE(lagged.empty());
  const SccResult after = strongly_connected_components(
      dependency_successors(c.mesh, c.dep, lagged_mask));
  EXPECT_EQ(after.num_nontrivial(), 0);
  // The mask and the pair list must agree.
  for (const auto& [e, f] : lagged)
    EXPECT_TRUE((lagged_mask[static_cast<std::size_t>(e)] >> f) & 1u);
}

TEST(BreakCyclesScc, DeterministicAcrossRuns) {
  const CyclicCase c;
  std::vector<std::uint8_t> mask_a, mask_b;
  const auto lag_a = break_cycles_scc(c.mesh, c.dep, mask_a);
  const auto lag_b = break_cycles_scc(c.mesh, c.dep, mask_b);
  EXPECT_EQ(lag_a, lag_b);
  EXPECT_EQ(mask_a, mask_b);
}

TEST(ScheduleSetBatches, BatchesPartitionTheOctantAngles) {
  const mesh::HexMesh mesh = make_mesh({4, 4, 4}, 0.05, 11);
  const angular::QuadratureSet quad(angular::QuadratureKind::SnapLike, 6);
  const ScheduleSet set(mesh, quad, CycleStrategy::LagScc);
  for (int oct = 0; oct < angular::kOctants; ++oct) {
    std::set<int> seen;
    for (const auto& batch : set.batches(oct)) {
      ASSERT_FALSE(batch.empty());
      const SweepSchedule* shared = &set.get(oct, batch[0]);
      for (const int a : batch) {
        EXPECT_TRUE(seen.insert(a).second) << "angle in two batches";
        EXPECT_EQ(&set.get(oct, a), shared)
            << "batch member does not share the schedule";
      }
      EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
    }
    EXPECT_EQ(static_cast<int>(seen.size()), quad.per_octant());
  }
}

TEST(ScheduleSetStats, UniformBrickProfile) {
  const mesh::HexMesh mesh = make_mesh({4, 4, 4}, 0.0, 0);
  const angular::QuadratureSet quad(angular::QuadratureKind::SnapLike, 4);
  const ScheduleSet set(mesh, quad);
  const ScheduleSetStats stats = schedule_set_stats(set, 1);
  EXPECT_EQ(stats.unique, 8);
  EXPECT_EQ(stats.total_lagged, 0);
  // Diagonal sweeps on a 4^3 brick: 4+4+4-2 hyperplane buckets.
  EXPECT_EQ(stats.min_buckets, 10);
  EXPECT_EQ(stats.max_buckets, 10);
  // One thread is always perfectly efficient in the bucket model.
  EXPECT_DOUBLE_EQ(stats.parallel_efficiency, 1.0);
  // More threads than the largest bucket cannot be fully efficient.
  const ScheduleSetStats wide = schedule_set_stats(set, 64);
  EXPECT_LT(wide.parallel_efficiency, 1.0);
  EXPECT_GT(wide.parallel_efficiency, 0.0);
}

// ---- solver-level acceptance --------------------------------------------

snap::Input twisted_input() {
  snap::Input input;
  input.dims = {6, 6, 3};
  input.twist = 2.5;
  input.shuffle_seed = 0;
  input.order = 1;
  input.quadrature = angular::QuadratureKind::Product;
  input.nang = 9;
  input.ng = 2;
  input.mat_opt = 0;
  input.src_opt = 1;
  input.scattering_ratio = 0.3;
  input.epsi = 1e-6;
  input.iitm = 50;
  input.oitm = 10;
  input.fixed_iterations = false;
  input.num_threads = 2;
  return input;
}

TEST(TwistedSolve, AbortThrowsWhereLagSccConverges) {
  // The acceptance scenario of the SCC subsystem: the same deck throws
  // NumericalError under Abort and converges under LagScc.
  snap::Input aborting = twisted_input();
  aborting.cycle_strategy = CycleStrategy::Abort;
  EXPECT_THROW(core::TransportSolver{aborting}, NumericalError);

  snap::Input lagging = twisted_input();
  lagging.cycle_strategy = CycleStrategy::LagScc;
  core::TransportSolver solver(lagging);
  const core::IterationResult result = solver.run();
  EXPECT_TRUE(result.converged);
  // The converged answer must balance: residual small against the source.
  const core::BalanceReport balance = solver.balance();
  EXPECT_LT(balance.relative(), 1e-5);
}

}  // namespace
}  // namespace unsnap::sweep
