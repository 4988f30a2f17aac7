#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/transport_solver.hpp"
#include "linalg/gauss_elim.hpp"

namespace unsnap::core {
namespace {

snap::Input reflective_input(int ng = 1) {
  snap::Input input;
  input.dims = {4, 4, 4};
  input.order = 1;
  input.nang = 4;
  input.ng = ng;
  input.twist = 0.0;  // reflection is specular w.r.t. the untwisted planes
  input.shuffle_seed = 7;
  input.mat_opt = 0;
  input.src_opt = 0;
  input.scattering_ratio = 0.3;
  input.fixed_iterations = false;
  input.epsi = 1e-11;
  input.iitm = 800;
  input.oitm = 80;
  input.num_threads = 2;
  for (auto& b : input.boundary) b = snap::Input::Bc::Reflective;
  return input;
}

TEST(Reflective, InfiniteMediumMatchesAnalyticSolution) {
  // Fully reflected homogeneous box with a uniform source is an infinite
  // medium: phi = q / sigma_a exactly, at every node.
  snap::Input input = reflective_input(1);
  TransportSolver solver(input);
  const IterationResult result = solver.run();
  EXPECT_TRUE(result.converged);
  const double expected =
      1.0 / solver.problem().siga_eg(0, 0);  // q = 1 everywhere
  for (int e = 0; e < solver.discretization().num_elements(); ++e) {
    const double* ph = solver.scalar_flux().at(e, 0);
    for (int i = 0; i < solver.discretization().num_nodes(); ++i)
      EXPECT_NEAR(ph[i], expected, 1e-7 * expected);
  }
}

TEST(Reflective, MultigroupInfiniteMediumMatchesDirectSolve) {
  // With group coupling the infinite-medium fluxes solve the ng x ng
  // system sigt(g) phi_g - sum_g' sigs(0, g', g) phi_g' = q. Solve it with
  // the dense solver and compare against the converged transport run.
  const int ng = 3;
  snap::Input input = reflective_input(ng);
  TransportSolver solver(input);
  const IterationResult result = solver.run();
  EXPECT_TRUE(result.converged);

  const xs::Material& mat = solver.problem().xs.materials[0];
  linalg::Matrix a(ng, ng);
  std::vector<double> rhs(static_cast<std::size_t>(ng), 1.0);
  for (int g = 0; g < ng; ++g) {
    a(g, g) += mat.sigt[static_cast<std::size_t>(g)];
    for (int gp = 0; gp < ng; ++gp) a(g, gp) -= mat.sigs(0, gp, g);
  }
  linalg::gauss_solve(a.view(), rhs);

  for (int g = 0; g < ng; ++g) {
    const double* ph = solver.scalar_flux().at(0, g);
    EXPECT_NEAR(ph[0], rhs[g], 1e-6 * rhs[g]) << "group " << g;
  }
}

TEST(Reflective, BalanceIsPureAbsorption) {
  // Nothing escapes a fully reflected box: the reflected inflow returns
  // every outgoing particle, so source = absorption at convergence.
  snap::Input input = reflective_input(1);
  input.epsi = 1e-9;
  TransportSolver solver(input);
  solver.run();
  const BalanceReport report = solver.balance();
  EXPECT_NEAR(report.leakage, report.inflow,
              1e-6 * std::max(report.leakage, 1.0));
  EXPECT_NEAR(report.source, report.absorption, 1e-6 * report.source);
}

TEST(Reflective, HalfDomainWithMirrorMatchesFullDomain) {
  // Reflective symmetry plane: the right half of a symmetric problem with
  // a reflective -x boundary reproduces the full-domain solution.
  snap::Input full = reflective_input(1);
  full.dims = {6, 4, 4};
  full.extent = {1.0, 1.0, 1.0};
  for (auto& b : full.boundary) b = snap::Input::Bc::Vacuum;
  full.epsi = 1e-10;
  TransportSolver full_solver(full);
  full_solver.run();

  snap::Input half = full;
  half.dims = {3, 4, 4};
  half.extent = {0.5, 1.0, 1.0};
  half.boundary[1] = snap::Input::Bc::Reflective;  // +x is the mirror plane
  TransportSolver half_solver(half);
  half_solver.run();

  // Match elements by brick provenance: half (i,j,k) == full (i,j,k).
  std::map<std::array<int, 3>, int> full_by_ijk;
  const auto& full_mesh = full_solver.discretization().mesh();
  for (int e = 0; e < full_mesh.num_elements(); ++e)
    full_by_ijk[full_mesh.provenance_ijk(e)] = e;

  const auto& half_mesh = half_solver.discretization().mesh();
  const int n = half_solver.discretization().num_nodes();
  for (int e = 0; e < half_mesh.num_elements(); ++e) {
    const int fe = full_by_ijk.at(half_mesh.provenance_ijk(e));
    const double* ph = half_solver.scalar_flux().at(e, 0);
    const double* pf = full_solver.scalar_flux().at(fe, 0);
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(ph[i], pf[i], 1e-6 * (1.0 + std::fabs(pf[i])));
  }
}

TEST(Reflective, MixedBoundariesStillConverge) {
  snap::Input input = reflective_input(2);
  input.boundary = {snap::Input::Bc::Reflective, snap::Input::Bc::Vacuum,
                    snap::Input::Bc::Reflective, snap::Input::Bc::Vacuum,
                    snap::Input::Bc::Vacuum,     snap::Input::Bc::Vacuum};
  input.epsi = 1e-8;
  TransportSolver solver(input);
  const IterationResult result = solver.run();
  EXPECT_TRUE(result.converged);
  // Leakage persists through the vacuum sides.
  const BalanceReport report = solver.balance();
  EXPECT_GT(report.leakage - report.inflow, 0.0);
  EXPECT_LT(std::fabs(report.relative()), 1e-6);
}

TEST(Reflective, ReflectionIncreasesFlux) {
  // Returning particles can only raise the flux relative to vacuum.
  snap::Input vacuum = reflective_input(1);
  for (auto& b : vacuum.boundary) b = snap::Input::Bc::Vacuum;
  vacuum.epsi = 1e-8;
  TransportSolver vac_solver(vacuum);
  vac_solver.run();

  snap::Input reflect = reflective_input(1);
  reflect.epsi = 1e-8;
  TransportSolver ref_solver(reflect);
  ref_solver.run();

  const auto& disc = vac_solver.discretization();
  for (int e = 0; e < disc.num_elements(); ++e) {
    const double* pv = vac_solver.scalar_flux().at(e, 0);
    const double* pr = ref_solver.scalar_flux().at(e, 0);
    double vac_avg = 0.0, ref_avg = 0.0;
    for (int i = 0; i < disc.num_nodes(); ++i) {
      vac_avg += pv[i];
      ref_avg += pr[i];
    }
    EXPECT_GT(ref_avg, vac_avg);
  }
}

}  // namespace
}  // namespace unsnap::core
