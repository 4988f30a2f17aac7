#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "comm/distributed.hpp"
#include "core/transport_solver.hpp"

namespace unsnap::comm {
namespace {

snap::Input bj_input() {
  snap::Input input;
  input.dims = {6, 6, 4};
  input.extent = {1.0, 1.0, 1.0};
  input.order = 1;
  input.nang = 3;
  input.ng = 2;
  input.twist = 0.001;
  input.shuffle_seed = 9;
  input.mat_opt = 1;
  input.src_opt = 0;
  input.scattering_ratio = 0.5;
  input.scheme = snap::ConcurrencyScheme::Serial;
  input.num_threads = 1;
  input.sweep_exchange = snap::SweepExchange::BlockJacobi;
  return input;
}

// Canonical global (element, group, node) flux from a single-domain solve.
std::vector<double> single_domain_phi(const snap::Input& input) {
  core::TransportSolver solver(input);
  solver.run();
  const auto& disc = solver.discretization();
  std::vector<double> out;
  for (int e = 0; e < disc.num_elements(); ++e)
    for (int g = 0; g < input.ng; ++g) {
      const double* ph = solver.scalar_flux().at(e, g);
      out.insert(out.end(), ph, ph + disc.num_nodes());
    }
  return out;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

TEST(BlockJacobi, SingleRankReproducesDirectSolve) {
  snap::Input input = bj_input();
  input.iitm = 4;
  input.oitm = 1;
  DistributedSweepSolver bj(input, 1, 1);
  const DistributedSweepResult result = bj.run();
  EXPECT_EQ(result.inners, 4);
  EXPECT_LT(max_diff(single_domain_phi(input), bj.gather_scalar_flux()),
            1e-13);
}

struct Grid {
  int px, py;
};
class BlockJacobiGrid : public ::testing::TestWithParam<Grid> {};

TEST_P(BlockJacobiGrid, ConvergesToSingleDomainSolution) {
  const auto [px, py] = GetParam();
  snap::Input input = bj_input();
  input.fixed_iterations = false;
  input.epsi = 1e-9;
  input.iitm = 300;
  input.oitm = 60;

  const std::vector<double> reference = single_domain_phi(input);
  DistributedSweepSolver bj(input, px, py);
  const DistributedSweepResult result = bj.run();
  EXPECT_TRUE(result.converged);
  // Same fixed point, but each side stops at its own epsi: compare loosely.
  EXPECT_LT(max_diff(reference, bj.gather_scalar_flux()), 1e-5);
}

TEST_P(BlockJacobiGrid, InnerHistoryDecreases) {
  const auto [px, py] = GetParam();
  snap::Input input = bj_input();
  input.fixed_iterations = false;
  input.epsi = 1e-8;
  input.iitm = 200;
  input.oitm = 1;
  DistributedSweepSolver bj(input, px, py);
  const DistributedSweepResult result = bj.run();
  ASSERT_GE(result.inner_history.size(), 3u);
  // Monotone-ish decay: final change far below the early ones.
  EXPECT_LT(result.inner_history.back(),
            0.01 * result.inner_history.front());
}

INSTANTIATE_TEST_SUITE_P(Grids, BlockJacobiGrid,
                         ::testing::Values(Grid{2, 1}, Grid{2, 2},
                                           Grid{3, 2}));

// Volumetric grids: block Jacobi over bricks (pz > 1) shares the fixed
// point with the single domain exactly like the column layout does.
struct Grid3 {
  int px, py, pz;
};
class BlockJacobiGrid3 : public ::testing::TestWithParam<Grid3> {};

TEST_P(BlockJacobiGrid3, ConvergesToSingleDomainSolution) {
  const auto [px, py, pz] = GetParam();
  snap::Input input = bj_input();
  input.fixed_iterations = false;
  input.epsi = 1e-9;
  input.iitm = 300;
  input.oitm = 60;

  const std::vector<double> reference = single_domain_phi(input);
  DistributedSweepSolver bj(input, px, py, pz);
  const DistributedSweepResult result = bj.run();
  EXPECT_TRUE(result.converged);
  // Same fixed point, but each side stops at its own epsi: compare loosely.
  EXPECT_LT(max_diff(reference, bj.gather_scalar_flux()), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Grids, BlockJacobiGrid3,
                         ::testing::Values(Grid3{1, 1, 4}, Grid3{2, 2, 2},
                                           Grid3{3, 2, 2}));

TEST(BlockJacobi, MoreRanksNeedMoreIterations) {
  // The Garrett observation (paper §III-A-1): block Jacobi convergence
  // degrades with the number of subdomains.
  snap::Input input = bj_input();
  input.fixed_iterations = false;
  input.epsi = 1e-8;
  input.iitm = 400;
  input.oitm = 1;

  DistributedSweepSolver one(input, 1, 1);
  DistributedSweepSolver many(input, 3, 3);
  const int inners_one = one.run().inners;
  const int inners_many = many.run().inners;
  EXPECT_GE(inners_many, inners_one);
  EXPECT_GT(inners_many, 1);
}

TEST(BlockJacobi, FixedIterationCountsMatchInput) {
  snap::Input input = bj_input();
  input.iitm = 3;
  input.oitm = 2;
  DistributedSweepSolver bj(input, 2, 2);
  const DistributedSweepResult result = bj.run();
  EXPECT_EQ(result.inners, 6);
  EXPECT_EQ(result.outers, 2);
}

TEST(BlockJacobi, RankSolversExposeSubdomains) {
  snap::Input input = bj_input();
  input.iitm = 1;
  input.oitm = 1;
  DistributedSweepSolver bj(input, 2, 2);
  bj.run();
  int total_elements = 0;
  for (int r = 0; r < bj.num_ranks(); ++r) {
    EXPECT_EQ(bj.submesh(r).mesh.num_elements(),
              bj.rank_solver(r).discretization().num_elements());
    total_elements += bj.submesh(r).mesh.num_elements();
  }
  EXPECT_EQ(total_elements, bj.global_mesh().num_elements());
}

}  // namespace
}  // namespace unsnap::comm
