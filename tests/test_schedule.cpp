#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <vector>

#include "angular/quadrature.hpp"
#include "mesh/mesh_builder.hpp"
#include "sweep/schedule.hpp"
#include "util/assert.hpp"

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

// A schedule is valid iff every element appears exactly once and every
// interior upwind neighbour of an element is scheduled strictly earlier
// (unless the face was explicitly lagged).
void expect_valid_schedule(const mesh::HexMesh& mesh,
                           const AngleDependency& dep,
                           const SweepSchedule& schedule) {
  ASSERT_EQ(schedule.num_elements(), mesh.num_elements());
  std::vector<int> position(static_cast<std::size_t>(mesh.num_elements()),
                            -1);
  std::vector<int> bucket_of(static_cast<std::size_t>(mesh.num_elements()),
                             -1);
  for (int b = 0; b < schedule.num_buckets(); ++b)
    for (const int e : schedule.bucket(b)) {
      EXPECT_EQ(position[e], -1) << "element scheduled twice";
      position[e] = 1;
      bucket_of[e] = b;
    }
  for (int e = 0; e < mesh.num_elements(); ++e) {
    EXPECT_NE(position[e], -1) << "element missing from schedule";
    for (int f = 0; f < fem::kFacesPerHex; ++f) {
      if (!is_dependency_edge(mesh, dep, e, f)) continue;
      if (schedule.face_is_lagged(e, f)) continue;
      EXPECT_LT(bucket_of[mesh.neighbor(e, f)], bucket_of[e])
          << "upwind dependency violated across face " << f;
    }
  }
}

TEST(Dependency, AxisDirectionOnBrick) {
  const mesh::HexMesh mesh = make_mesh({3, 3, 3}, 0.0, 0);
  const AngleDependency dep =
      build_dependency(mesh, {1.0, 0.0, 0.0});
  for (int e = 0; e < mesh.num_elements(); ++e) {
    // Only the -x face is incoming for a +x-axis direction.
    EXPECT_TRUE(dep.is_incoming(e, 0));
    EXPECT_FALSE(dep.is_incoming(e, 1));
    for (int f = 2; f < 6; ++f) EXPECT_FALSE(dep.is_incoming(e, f));
  }
}

TEST(Dependency, DiagonalDirectionThreeIncoming) {
  const mesh::HexMesh mesh = make_mesh({3, 3, 3}, 0.0, 0);
  const double s = 1.0 / std::sqrt(3.0);
  const AngleDependency dep = build_dependency(mesh, {s, s, s});
  for (int e = 0; e < mesh.num_elements(); ++e) {
    EXPECT_TRUE(dep.is_incoming(e, 0));
    EXPECT_TRUE(dep.is_incoming(e, 2));
    EXPECT_TRUE(dep.is_incoming(e, 4));
    EXPECT_FALSE(dep.is_incoming(e, 1));
  }
}

TEST(Schedule, BrickAxisSweepHasNxBuckets) {
  const mesh::HexMesh mesh = make_mesh({5, 3, 2}, 0.0, 0);
  const AngleDependency dep = build_dependency(mesh, {1.0, 0.0, 0.0});
  const SweepSchedule schedule = build_schedule(mesh, dep);
  // Wavefronts along +x: exactly nx buckets of ny*nz elements.
  ASSERT_EQ(schedule.num_buckets(), 5);
  for (int b = 0; b < 5; ++b) EXPECT_EQ(schedule.bucket(b).size(), 6u);
  expect_valid_schedule(mesh, dep, schedule);
}

TEST(Schedule, BrickDiagonalBucketCount) {
  // Diagonal sweeps have nx+ny+nz-2 hyperplanes on a brick.
  const mesh::HexMesh mesh = make_mesh({4, 5, 3}, 0.0, 0);
  const double s = 1.0 / std::sqrt(3.0);
  const AngleDependency dep = build_dependency(mesh, {s, s, s});
  const SweepSchedule schedule = build_schedule(mesh, dep);
  EXPECT_EQ(schedule.num_buckets(), 4 + 5 + 3 - 2);
  expect_valid_schedule(mesh, dep, schedule);
}

struct ScheduleCase {
  double twist;
  std::uint64_t shuffle;
  int octant;
};
// Without a printer gtest prints the case as raw bytes, tail padding
// included, and ctest names the tests after that print. No spaces or
// semicolons, so the names stay single ctest tokens.
void PrintTo(const ScheduleCase& c, std::ostream* os) {
  *os << "twist_" << c.twist << "_shuffle_" << c.shuffle << "_octant_"
      << c.octant;
}
class ScheduleSweep : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleSweep, ValidForEveryAngle) {
  const auto param = GetParam();
  const mesh::HexMesh mesh = make_mesh({4, 4, 4}, param.twist, param.shuffle);
  const angular::QuadratureSet quad(angular::QuadratureKind::SnapLike, 6);
  for (int a = 0; a < quad.per_octant(); ++a) {
    const AngleDependency dep =
        build_dependency(mesh, quad.direction(param.octant, a));
    const SweepSchedule schedule = build_schedule(mesh, dep);
    expect_valid_schedule(mesh, dep, schedule);
    EXPECT_TRUE(schedule.lagged_faces().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScheduleSweep,
    ::testing::Values(ScheduleCase{0.0, 0, 0}, ScheduleCase{0.001, 1, 3},
                      ScheduleCase{0.001, 99, 7}, ScheduleCase{0.05, 5, 5},
                      ScheduleCase{0.0, 42, 1}));

TEST(ScheduleSetDedup, UntwistedMeshSharesSchedulesPerOctant) {
  const mesh::HexMesh mesh = make_mesh({4, 4, 4}, 0.0, 3);
  const angular::QuadratureSet quad(angular::QuadratureKind::SnapLike, 12);
  const ScheduleSet set(mesh, quad);
  // On a perfect brick every angle in an octant has the same dependency
  // masks, so at most 8 unique schedules exist.
  EXPECT_LE(set.unique_count(), 8);
  EXPECT_GE(set.unique_count(), 8);
}

TEST(ScheduleSetDedup, SharedSchedulesAreIdenticalObjects) {
  const mesh::HexMesh mesh = make_mesh({3, 3, 3}, 0.0, 0);
  const angular::QuadratureSet quad(angular::QuadratureKind::SnapLike, 4);
  const ScheduleSet set(mesh, quad);
  for (int a = 1; a < quad.per_octant(); ++a)
    EXPECT_EQ(&set.get(0, 0), &set.get(0, a));
  EXPECT_NE(&set.get(0, 0), &set.get(1, 0));
}

TEST(ScheduleStats, AxisSweepStatistics) {
  const mesh::HexMesh mesh = make_mesh({5, 3, 2}, 0.0, 0);
  const AngleDependency dep = build_dependency(mesh, {1.0, 0.0, 0.0});
  const SweepSchedule schedule = build_schedule(mesh, dep);
  const ScheduleStats stats = schedule_stats(schedule);
  EXPECT_EQ(stats.buckets, 5);
  EXPECT_EQ(stats.min_bucket, 6);
  EXPECT_EQ(stats.max_bucket, 6);
  EXPECT_DOUBLE_EQ(stats.mean_bucket, 6.0);
  EXPECT_EQ(schedule.max_bucket_size(), 6);
}

TEST(ScheduleCycles, ArtificialCycleDetected) {
  // Two elements whose shared face is "incoming" on both sides cannot
  // happen geometrically, but a ring of elements under a rotating
  // direction field can produce cycles on strongly twisted meshes. Build
  // a genuinely cyclic case by brute force: crank the twist until Kahn
  // stalls, then require the cycle-breaking path to succeed.
  bool found_cycle = false;
  for (const double twist : {1.5, 2.5, 3.0}) {
    const mesh::HexMesh mesh = make_mesh({6, 6, 3}, twist, 0);
    // A nearly-vertical direction with small xy components interacts with
    // the rotated faces.
    const fem::Vec3 omega{0.38, 0.05, 0.92};
    const double norm = std::sqrt(fem::dot(omega, omega));
    const fem::Vec3 unit{omega[0] / norm, omega[1] / norm, omega[2] / norm};
    const AngleDependency dep = build_dependency(mesh, unit);
    try {
      (void)build_schedule(mesh, dep, CycleStrategy::Abort);
    } catch (const NumericalError&) {
      found_cycle = true;
      const SweepSchedule broken =
          build_schedule(mesh, dep, CycleStrategy::LagScc);
      EXPECT_FALSE(broken.lagged_faces().empty());
      expect_valid_schedule(mesh, dep, broken);
      break;
    }
  }
  EXPECT_TRUE(found_cycle)
      << "no twist value produced a cyclic dependency; cycle-breaking path "
         "untested";
}

TEST(ScheduleCycles, UntwistedNeverLags) {
  const mesh::HexMesh mesh = make_mesh({4, 4, 4}, 0.0, 17);
  const angular::QuadratureSet quad(angular::QuadratureKind::Product, 9);
  const ScheduleSet set(mesh, quad, CycleStrategy::LagScc);
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < quad.per_octant(); ++a)
      EXPECT_TRUE(set.get(oct, a).lagged_faces().empty());
}

// Satellite regression: the lagged-face pick breaks flow ties on the
// lowest (element, face) pair, so rebuilding the same schedule — in any
// process, any number of times — yields a bit-identical bucket order and
// lag set. A twisted brick has many exactly-tied face flows (the twist
// map is z-invariant within a layer), making this the tie-heavy case.
TEST(ScheduleDeterminism, RebuildIsBitIdentical) {
  const mesh::HexMesh mesh = make_mesh({6, 6, 3}, 2.5, 7);
  const angular::QuadratureSet quad(angular::QuadratureKind::Product, 9);
  bool lagged_somewhere = false;
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < quad.per_octant(); ++a) {
      const AngleDependency dep =
          build_dependency(mesh, quad.direction(oct, a));
      const SweepSchedule first =
          build_schedule(mesh, dep, CycleStrategy::LagScc);
      const SweepSchedule second =
          build_schedule(mesh, dep, CycleStrategy::LagScc);
      ASSERT_TRUE(std::equal(first.order().begin(), first.order().end(),
                             second.order().begin(), second.order().end()))
          << "oct " << oct << " angle " << a;
      ASSERT_EQ(first.lagged_faces(), second.lagged_faces())
          << "oct " << oct << " angle " << a;
      lagged_somewhere |= !first.lagged_faces().empty();
    }
  EXPECT_TRUE(lagged_somewhere) << "case too tame: no cycles to break";
}

TEST(ScheduleScc, SccLagSetIsConfinedToCyclicComponents) {
  // Every face the SCC strategy lags must join two elements of one
  // non-trivial strongly connected component of the unlagged graph.
  const mesh::HexMesh mesh = make_mesh({6, 6, 3}, 2.5, 0);
  const angular::QuadratureSet quad(angular::QuadratureKind::Product, 9);
  bool checked = false;
  for (int oct = 0; oct < angular::kOctants && !checked; ++oct)
    for (int a = 0; a < quad.per_octant(); ++a) {
      const AngleDependency dep =
          build_dependency(mesh, quad.direction(oct, a));
      const SweepSchedule schedule =
          build_schedule(mesh, dep, CycleStrategy::LagScc);
      if (schedule.lagged_faces().empty()) continue;
      const SccResult scc = strongly_connected_components(
          dependency_successors(mesh, dep, {}));
      const std::vector<int> sizes = scc.component_sizes();
      for (const auto& [e, f] : schedule.lagged_faces()) {
        const int nbr = mesh.neighbor(e, f);
        ASSERT_NE(nbr, mesh::kNoNeighbor);
        EXPECT_EQ(scc.component[e], scc.component[nbr]);
        EXPECT_GT(sizes[static_cast<std::size_t>(scc.component[e])], 1);
      }
      checked = true;
      break;
    }
  EXPECT_TRUE(checked) << "no cyclic ordinate found on this mesh";
}

}  // namespace
}  // namespace unsnap::sweep
