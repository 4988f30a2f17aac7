// Diffusion synthetic acceleration (src/accel/dsa.*): the assembled vertex
// diffusion operator and the exact infinite-medium correction.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "accel/dsa.hpp"
#include "accel/inner.hpp"
#include "util/rng.hpp"

namespace unsnap {
namespace {

/// A two-material 3x4x3 deck: strongly twisted with vacuum sides, or
/// nearly flat with two reflective sides (reflection needs flat planes),
/// so that only some sides carry the Marshak term.
snap::Input small_deck(bool reflective) {
  snap::Input input;
  input.dims = {3, 4, 3};
  input.twist = reflective ? 0.01 : 0.4;
  input.shuffle_seed = 5;
  input.nang = 2;
  input.ng = 2;
  input.mat_opt = 1;
  input.scattering_ratio = 0.9;
  input.src_opt = 1;
  input.fixed_iterations = false;
  if (reflective) {
    input.boundary[0] = snap::Input::Bc::Reflective;
    input.boundary[5] = snap::Input::Bc::Reflective;
  }
  return input;
}

void expect_symmetric_positive_definite(bool reflective) {
  const snap::Input input = small_deck(reflective);
  const core::TransportSolver solver(input);
  const accel::DiffusionPreconditioner dsa(solver);
  const std::span<const int> rows = dsa.row_ptr();
  const std::span<const int> cols = dsa.columns();
  ASSERT_EQ(static_cast<int>(rows.size()), dsa.num_vertices() + 1);
  ASSERT_EQ(dsa.num_vertices(), 4 * 5 * 4);

  const auto entry = [&](std::span<const double> values, int i, int j) {
    for (int k = rows[i]; k < rows[i + 1]; ++k)
      if (cols[k] == j) return values[k];
    ADD_FAILURE() << "no entry (" << i << ", " << j << ") in the pattern";
    return 0.0;
  };
  for (int g = 0; g < input.ng; ++g) {
    SCOPED_TRACE(::testing::Message() << "group " << g);
    const std::span<const double> values = dsa.values(g);
    for (int i = 0; i < dsa.num_vertices(); ++i)
      for (int k = rows[i]; k < rows[i + 1]; ++k) {
        const int j = cols[k];
        if (j == i) EXPECT_GT(values[k], 0.0) << "diagonal " << i;
        else
          EXPECT_NEAR(values[k], entry(values, j, i),
                      1e-14 * std::fabs(values[k]))
              << "entry (" << i << ", " << j << ")";
      }
    // x^T C x > 0 for random x: positive definite, not only a positive
    // diagonal.
    Rng rng(17 + g);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> x(static_cast<std::size_t>(dsa.num_vertices()));
      for (double& xi : x) xi = rng.uniform(-1.0, 1.0);
      double quad = 0.0;
      for (int i = 0; i < dsa.num_vertices(); ++i)
        for (int k = rows[i]; k < rows[i + 1]; ++k)
          quad += x[static_cast<std::size_t>(i)] * values[k] *
                  x[static_cast<std::size_t>(cols[k])];
      EXPECT_GT(quad, 0.0);
    }
  }
}

TEST(Dsa, OperatorIsSymmetricPositiveDefinite) {
  for (const bool reflective : {false, true}) {
    SCOPED_TRACE(reflective ? "reflective sides" : "twisted, vacuum");
    expect_symmetric_positive_definite(reflective);
  }
}

// With every side reflective and one material, a constant flux is an
// eigenvector of the diffusion operator: C 1 = sigma_a M 1, because the
// stiffness annihilates constants and the Gauss-rule mass integrates the
// trilinear row sums exactly. So the correction of a flat error is exact:
// P C^-1 P^T sigma_s M 1 = (sigma_s / sigma_a) 1.
TEST(Dsa, InfiniteMediumCorrectionIsExact) {
  snap::Input input;
  input.dims = {3, 3, 3};
  input.twist = 0.01;
  input.nang = 2;
  input.ng = 2;
  input.mat_opt = 0;
  input.scattering_ratio = 0.95;
  input.fixed_iterations = false;
  input.boundary.fill(snap::Input::Bc::Reflective);
  core::TransportSolver solver(input);
  accel::DiffusionPreconditioner dsa(solver);

  const std::vector<double> ones(accel::flux_vector_size(solver), 1.0);
  std::vector<double> y(ones.size());
  dsa.apply(ones, y);
  EXPECT_GT(dsa.pcg_iterations(), 0);

  const core::ProblemData& problem = solver.problem();
  const core::NodalField& layout = solver.scalar_flux();
  for (int g = 0; g < input.ng; ++g) {
    const double sigs = problem.xs.slgg(0, g, g);
    const double siga = problem.xs.sigt(0, g) - sigs;
    const double expected = sigs / siga;
    for (int e = 0; e < layout.num_elements(); ++e)
      for (int i = 0; i < layout.node_count(); ++i)
        ASSERT_NEAR(y[layout.offset(e, g) + static_cast<std::size_t>(i)] -
                        1.0,
                    expected, 1e-10 * expected)
            << "group " << g << " element " << e << " node " << i;
  }
}

}  // namespace
}  // namespace unsnap
